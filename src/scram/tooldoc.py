"""Product specification documents and their binding to a local system.

One document describes one product for several versions. Each version block
declares the product's libraries, the variables a client site must supply
(inside ``<Client>``), derived variables computed from them, and external
products it depends on. Resolution turns a selected block into concrete
name/value bindings using, in order: the site description file, a library
probe of the site's search roots (for ``type=lib`` variables), then an
interactive prompt when one is available. Variables typed ``Runtime_path``
become runtime path prepends; everything else stays a build-time setting.
"""

from __future__ import annotations

import enum
import fnmatch
import os
import re
import sys
from bisect import bisect_left

from .errors import ToolError
from .markup import DocType, PayloadCodec, Value, parse_with_handlers

_REF_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


class VarType(enum.Enum):
    PLAIN = "plain"
    LIB = "lib"
    RUNTIME_PATH = "Runtime_path"

    @classmethod
    def from_attr(cls, raw: str | None) -> "VarType":
        if not raw:
            return cls.PLAIN
        member = _VAR_TYPES.get(raw.casefold())
        if member is None:
            raise ToolError(f"unknown Environment type '{raw}'")
        return member


_VAR_TYPES = {member.value.casefold(): member for member in VarType}


class EnvVarDecl(Value):
    __slots__ = ("name", "value", "var_type", "client")

    def __init__(self, name: str, value: str | None, var_type: VarType, client: bool):
        self.name = name
        self.value = value
        self.var_type = var_type
        self.client = client


class ExternalRef(Value):
    __slots__ = ("ref", "version")

    def __init__(self, ref: str, version: str):
        self.ref = ref
        self.version = version

    @property
    def folded_ref(self) -> str:
        return self.ref.casefold()


class ToolVersionBlock(Value):
    __slots__ = ("version", "libs", "variables", "externals", "descriptions")

    def __init__(self, version: str):
        self.version = version
        self.libs: list[str] = []
        self.variables: list[EnvVarDecl] = []
        self.externals: list[ExternalRef] = []
        self.descriptions: dict[str, str] = {}

    def description_of(self, name: str) -> str:
        return self.descriptions.get(name, "")


class ToolSpec:
    __slots__ = ("name", "blocks")

    def __init__(self, name: str, blocks: list[ToolVersionBlock]):
        self.name = name
        self.blocks = blocks

    def versions(self) -> list[str]:
        return [b.version for b in self.blocks]


class _ToolDocBuilder:
    """State threaded through the tag tables while reading a ToolDoc.

    ``client`` is set between ``<Client>`` and ``</Client>``, and marks the
    ``<Environment>`` declarations read meanwhile as client variables.
    """

    def __init__(self):
        self.name: str | None = None
        self.blocks: list[ToolVersionBlock] = []
        self.block: ToolVersionBlock | None = None
        self.seen_versions: set[str] = set()
        self.seen_vars: set[str] = set()
        self.pending_text: str | None = None  # key in descriptions being filled
        self.client = False

    def require_block(self, ev) -> ToolVersionBlock:
        if self.block is None:
            raise ToolError(
                f"<{ev.name}> outside any <Tool> block", location=ev.location
            )
        return self.block


def _open_tool(state: _ToolDocBuilder, ev):
    name = ev.require("name")
    version = ev.require("version")
    if state.name is None:
        state.name = name
    elif state.name.casefold() != name.casefold():
        raise ToolError(
            f"one document describes one product: found <Tool name={name}> "
            f"after <Tool name={state.name}>"
        )
    if version in state.seen_versions:
        raise ToolError(f"duplicate <Tool> block for version {version}")
    state.seen_versions.add(version)
    state.block = ToolVersionBlock(version)
    state.seen_vars = set()
    state.blocks.append(state.block)


def _close_tool(state: _ToolDocBuilder, ev):
    state.block = None
    state.pending_text = None


def _on_info(state: _ToolDocBuilder, ev):
    state.require_block(ev)  # accepted in a block, and ignored


def _on_lib(state: _ToolDocBuilder, ev):
    state.require_block(ev).libs.append(ev.require("name"))


def _on_external(state: _ToolDocBuilder, ev):
    block = state.require_block(ev)
    ref = ev.require("ref")
    if ref.casefold() == (state.name or "").casefold():
        raise ToolError(f"tool '{state.name}' cannot depend on itself")
    block.externals.append(ExternalRef(ref, ev.require("version")))
    state.pending_text = f"external:{ref}"


def _enter_client(state: _ToolDocBuilder, ev):
    state.client = True


def _leave_client(state: _ToolDocBuilder, ev):
    state.client = False


def _on_environment(state: _ToolDocBuilder, ev):
    block = state.require_block(ev)
    name = ev.require("name")
    if name in state.seen_vars:
        raise ToolError(
            f"duplicate variable '{name}' in Tool block {block.version}"
        )
    state.seen_vars.add(name)
    value = ev.get("value")
    if state.client and value is not None:
        raise ToolError(
            f"client variable '{name}' must not carry a value; "
            f"it is supplied at setup time"
        )
    block.variables.append(EnvVarDecl(
        name=name,
        value=value,
        var_type=VarType.from_attr(ev.get("type")),
        client=state.client,
    ))
    state.pending_text = name


def _on_description(state: _ToolDocBuilder, ev):
    if state.pending_text is None or state.block is None:
        return
    text = ev.text.strip()  # never empty: blank runs make no event
    existing = state.block.descriptions.get(state.pending_text)
    state.block.descriptions[state.pending_text] = (
        f"{existing} {text}" if existing else text)


_TOOL_OPEN = {
    "tool": _open_tool,
    "info": _on_info,
    "lib": _on_lib,
    "external": _on_external,
    "client": _enter_client,
    "environment": _on_environment,
}
_TOOL_CLOSE = {"tool": _close_tool, "client": _leave_client}
_TOOL_CHARDATA = {"external": _on_description, "environment": _on_description}


def parse_tool_doc(events) -> ToolSpec:
    """Builder for ``BuildSystem::ToolDoc`` documents.

    ``$REF`` values are accepted as written here; whether they resolve is
    only knowable once external bindings exist, so dangling references
    surface from resolve_tool, not the parse.
    """
    state = _ToolDocBuilder()
    parse_with_handlers(events, state, open=_TOOL_OPEN, close=_TOOL_CLOSE,
                        chardata=_TOOL_CHARDATA)
    if state.name is None:
        raise ToolError("tool document contains no <Tool> block")
    return ToolSpec(state.name, state.blocks)


def encode_tool_spec(spec: ToolSpec) -> list:
    """``spec`` as the JSON value ``decode_tool_spec`` reads."""
    return [spec.name, [
        [block.version, block.libs,
         [[d.name, d.value, d.var_type.value, d.client] for d in block.variables],
         [[e.ref, e.version] for e in block.externals],
         block.descriptions]
        for block in spec.blocks]]


def decode_tool_spec(value) -> ToolSpec:
    """The ToolSpec that ``encode_tool_spec`` gave ``value`` for."""
    name, encoded = value
    blocks = []
    for version, libs, variables, externals, descriptions in encoded:
        block = ToolVersionBlock(version)
        block.libs = libs
        block.variables = [EnvVarDecl(var, default, _VAR_TYPES[kind.casefold()], client)
                           for var, default, kind, client in variables]
        block.externals = [ExternalRef(ref, ext_version) for ref, ext_version in externals]
        block.descriptions = descriptions
        blocks.append(block)
    return ToolSpec(name, blocks)


# The builder looks ``parse_tool_doc`` up when it runs, so whatever the
# module attribute is rebound to (the benchmark tracer's wrapper) is called.
TOOLDOC = DocType("BuildSystem::ToolDoc", "1.0", lambda events: parse_tool_doc(events),
                  codec=PayloadCodec("tooldoc-1", encode_tool_spec, decode_tool_spec))


def select_version(spec: ToolSpec, version: str) -> ToolVersionBlock:
    """Exact version match; anything else lists what exists."""
    for block in spec.blocks:
        if block.version == version:
            return block
    available = ", ".join(spec.versions()) or "(none)"
    raise ToolError(
        f"{spec.name} has no version {version} (available: {available})"
    )


def default_library_patterns() -> list[str]:
    if sys.platform == "darwin":
        return ["lib{name}.dylib", "lib{name}.a", "lib{name}.so"]
    return ["lib{name}.so", "lib{name}.so.*", "lib{name}.a"]


class LibraryProber:
    """Looks for platform-conventional library files under search roots.

    A directory qualifies when it holds at least one matching file for any
    of the requested base names; roots are scanned in order, then their
    direct subdirectories in sorted order, first hit wins. The first probe
    lists every candidate directory once and indexes the file names; later
    probes look names up in that index. A directory that cannot be listed
    holds no files.
    """

    def __init__(self, search_roots: list[str], patterns: list[str] | None = None):
        self.search_roots = list(search_roots)
        self.patterns = patterns if patterns is not None else default_library_patterns()
        self._candidates: list[str] = []  # in scan order, once indexed
        self._names: list[str] | None = None  # every file name, sorted
        self._first: dict[str, int] = {}  # file name -> first candidate holding it

    def _index(self) -> list[str]:
        if self._names is None:
            # each candidate directory, in scan order, and its file names
            listings: dict[str, list[str]] = {}
            for root in filter(os.path.isdir, self.search_roots):
                if root not in listings:
                    listings[root] = _listing(root)
                for entry in sorted(listings[root]):
                    sub = os.path.join(root, entry)
                    if sub not in listings and os.path.isdir(sub):
                        listings[sub] = _listing(sub)
            self._candidates = list(listings)
            for i, names in enumerate(listings.values()):
                for name in names:
                    self._first.setdefault(name, i)
            self._names = sorted(self._first)
        return self._names

    def find_library_dir(self, lib_names: list[str]) -> str | None:
        if not lib_names or not self.patterns:
            return None
        names = self._index()
        best = None
        for glob in [pattern.format(name=name)
                     for name in lib_names for pattern in self.patterns]:
            # a name can match only if it starts with the glob's literal head
            head = _GLOB_MAGIC.split(glob, 1)[0]
            literal = head == glob
            i = bisect_left(names, head)
            while i < len(names) and names[i].startswith(head):
                name = names[i]
                # fnmatch.fnmatch would also normcase both sides, which is
                # the identity on the POSIX systems scram runs on
                if name == glob if literal else fnmatch.fnmatchcase(name, glob):
                    at = self._first[name]
                    if best is None or at < best:
                        best = at
                i += 1
        return None if best is None else self._candidates[best]


_GLOB_MAGIC = re.compile(r"[*?[]")


def _listing(directory: str) -> list[str]:
    """The names in ``directory``; none when it cannot be listed."""
    try:
        return os.listdir(directory)
    except OSError:
        return []


PROVENANCE_SITE = "site-file"
PROVENANCE_PROBE = "probe"
PROVENANCE_PROMPT = "prompt"
PROVENANCE_SUBSTITUTION = "substitution"


class ResolvedTool(Value):
    __slots__ = ("name", "version", "bindings", "runtime_entries", "lib_names",
                 "provenance", "descriptions", "externals")

    def __init__(self, name: str, version: str, bindings: dict[str, str],
                 runtime_entries: list[tuple[str, str]], lib_names: list[str],
                 provenance: dict[str, str],
                 descriptions: dict[str, str] | None = None,
                 externals: list[tuple[str, str]] | None = None):
        self.name = name
        self.version = version
        self.bindings = bindings  # insertion-ordered, declaration order
        self.runtime_entries = runtime_entries
        self.lib_names = lib_names
        self.provenance = provenance
        self.descriptions = {} if descriptions is None else descriptions
        self.externals = [] if externals is None else externals


def resolve_tool(block: ToolVersionBlock, *, tool_name: str, site,
                 prober: LibraryProber | None = None, prompt=None,
                 already_resolved: dict[str, ResolvedTool] | None = None) -> ResolvedTool:
    """Bind every variable of a version block to a concrete value.

    Client variables resolve through the site file, then (lib-typed only)
    the prober, then the prompt callback; an unresolved one is an error
    that echoes the block's description text as an installation hint.
    Derived variables expand ``$REF`` against bindings made so far plus the
    bindings of declared externals. Fails if an external is missing from
    ``already_resolved`` or resolved at a different version.
    """
    already_resolved = already_resolved or {}
    imported: dict[str, str] = {}
    for ext in block.externals:
        dep = already_resolved.get(ext.folded_ref)
        if dep is None:
            raise ToolError(
                f"{tool_name} {block.version} needs external "
                f"'{ext.ref}' {ext.version}, which is not resolved yet"
            )
        if dep.version != ext.version:
            raise ToolError(
                f"{tool_name} {block.version} needs '{ext.ref}' {ext.version} "
                f"exactly, found {dep.version}"
            )
        imported.update(dep.bindings)

    bindings: dict[str, str] = {}
    provenance: dict[str, str] = {}

    def lookup(ref: str) -> str | None:
        if ref in bindings:
            return bindings[ref]
        return imported.get(ref)

    for decl in block.variables:
        if decl.client:
            value, source = _resolve_client_var(decl, block, tool_name, site,
                                                prober, prompt)
        else:
            value = _expand(decl.value or "", decl, block, tool_name, lookup)
            source = PROVENANCE_SUBSTITUTION
        bindings[decl.name] = value
        provenance[decl.name] = source

    runtime_entries = [
        (decl.name, bindings[decl.name])
        for decl in block.variables
        if decl.var_type is VarType.RUNTIME_PATH
    ]
    return ResolvedTool(
        name=tool_name.casefold(),
        version=block.version,
        bindings=bindings,
        runtime_entries=runtime_entries,
        lib_names=list(block.libs),
        provenance=provenance,
        descriptions=dict(block.descriptions),
        externals=[(e.ref, e.version) for e in block.externals],
    )


def _resolve_client_var(decl, block, tool_name, site, prober, prompt):
    value = site.tool_value(tool_name, decl.name)
    if value is not None:
        return value, PROVENANCE_SITE
    if decl.var_type is VarType.LIB and prober is not None:
        found = prober.find_library_dir(block.libs)
        if found is not None:
            return found, PROVENANCE_PROBE
    if prompt is not None:
        answer = prompt(tool_name, decl.name, block.description_of(decl.name))
        if answer is not None:
            return answer, PROVENANCE_PROMPT
    hint = block.description_of(decl.name)
    hint_text = f" ({hint})" if hint else ""
    raise ToolError(
        f"cannot resolve client variable '{decl.name}' of {tool_name} "
        f"{block.version}{hint_text}; provide tool.{tool_name.casefold()}."
        f"{decl.name} in the site file or run setup interactively"
    )


def _expand(raw: str, decl, block, tool_name, lookup) -> str:
    def substitute(match):
        ref = match.group(1)
        value = lookup(ref)
        if value is None:
            raise ToolError(
                f"variable '{decl.name}' of {tool_name} {block.version} "
                f"references undefined '${ref}'"
            )
        return value

    return _REF_RE.sub(substitute, raw)


def order_by_externals(blocks: dict[str, ToolVersionBlock]) -> list[str]:
    """Dependency-first ordering of tools by their external references.

    Externals pointing outside ``blocks`` are left to resolve-time checks.
    A cycle is an error naming the tools involved.
    """
    ordered: list[str] = []
    state: dict[str, int] = {}  # 1 visiting, 2 done

    def visit(name: str, trail: tuple[str, ...]):
        mark = state.get(name)
        if mark == 2:
            return
        if mark == 1:
            cycle = " -> ".join(trail[trail.index(name):] + (name,))
            raise ToolError(f"external dependency cycle: {cycle}")
        state[name] = 1
        for ext in blocks[name].externals:
            if ext.folded_ref in blocks:
                visit(ext.folded_ref, trail + (name,))
        state[name] = 2
        ordered.append(name)

    for name in blocks:
        visit(name, ())
    return ordered

