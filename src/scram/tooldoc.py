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

from .errors import ToolError
from .markup import HandlerMap, parse_with_handlers
from .runtime import EnvDelta

_REF_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


class VarType(enum.Enum):
    PLAIN = "plain"
    LIB = "lib"
    RUNTIME_PATH = "Runtime_path"

    @classmethod
    def from_attr(cls, raw: str | None, location=None) -> "VarType":
        if raw is None or raw == "":
            return cls.PLAIN
        for member in cls:
            if member.value.casefold() == raw.casefold():
                return member
        raise ToolError(f"unknown Environment type '{raw}'", location=location)


class EnvVarDecl:
    __slots__ = ("name", "value", "var_type", "client")

    def __init__(self, name: str, value: str | None = None,
                 var_type: VarType = VarType.PLAIN, client: bool = False):
        self.name = name
        self.value = value
        self.var_type = var_type
        self.client = client

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.value, self.var_type, self.client)
                == (other.name, other.value, other.var_type, other.client))


class ExternalRef:
    __slots__ = ("ref", "version", "description")

    def __init__(self, ref: str, version: str, description: str = ""):
        self.ref = ref
        self.version = version
        self.description = description

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ref, self.version, self.description)
                == (other.ref, other.version, other.description))

    @property
    def folded_ref(self) -> str:
        return self.ref.casefold()


class ToolVersionBlock:
    __slots__ = ("version", "info_url", "libs", "variables", "externals",
                 "descriptions")

    def __init__(self, version: str, info_url: str | None = None,
                 libs: list[str] | None = None,
                 variables: list[EnvVarDecl] | None = None,
                 externals: list[ExternalRef] | None = None,
                 descriptions: dict[str, str] | None = None):
        self.version = version
        self.info_url = info_url
        self.libs = [] if libs is None else libs
        self.variables = [] if variables is None else variables
        self.externals = [] if externals is None else externals
        self.descriptions = {} if descriptions is None else descriptions

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.version, self.info_url, self.libs, self.variables,
                 self.externals, self.descriptions)
                == (other.version, other.info_url, other.libs, other.variables,
                    other.externals, other.descriptions))

    @property
    def client_vars(self) -> list[EnvVarDecl]:
        return [v for v in self.variables if v.client]

    @property
    def derived_vars(self) -> list[EnvVarDecl]:
        return [v for v in self.variables if not v.client]

    def description_of(self, name: str) -> str:
        return self.descriptions.get(name, "")


class ToolSpec:
    __slots__ = ("name", "blocks")

    def __init__(self, name: str, blocks: list[ToolVersionBlock] | None = None):
        self.name = name
        self.blocks = [] if blocks is None else blocks

    @property
    def folded_name(self) -> str:
        return self.name.casefold()

    def versions(self) -> list[str]:
        return [b.version for b in self.blocks]


class _ToolDocBuilder:
    """State threaded through the handler map while reading a ToolDoc.

    ``<Client>`` switches between two handler groups for ``<Environment>``
    so the client flag comes from dispatch, not from ad hoc nesting checks.
    """

    def __init__(self):
        self.name: str | None = None
        self.blocks: list[ToolVersionBlock] = []
        self.block: ToolVersionBlock | None = None
        self.seen_versions: set[str] = set()
        self.seen_vars: set[str] = set()
        self.pending_text: str | None = None  # key in descriptions being filled
        self.handlers = self._build_handlers()

    def _build_handlers(self) -> HandlerMap:
        hm = HandlerMap()
        hm.add("tool", "Tool", open=_open_tool, close=_close_tool)
        hm.add("tool", "info", open=_on_info)
        hm.add("tool", "Lib", open=_on_lib)
        hm.add("tool", "External", open=_on_external, chardata=_on_description)
        hm.add("tool", "Client", open=_enter_client, close=_leave_client)
        hm.add("plain-env", "Environment",
               open=_env_handler(client=False), chardata=_on_description)
        hm.add("client-env", "Environment",
               open=_env_handler(client=True), chardata=_on_description,
               activate=False)
        return hm

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
    state.block = ToolVersionBlock(version=version)
    state.seen_vars = set()
    state.blocks.append(state.block)


def _close_tool(state: _ToolDocBuilder, ev):
    state.block = None
    state.pending_text = None


def _on_info(state: _ToolDocBuilder, ev):
    state.require_block(ev).info_url = ev.get("url")


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
    state.handlers.deactivate("plain-env")
    state.handlers.activate("client-env")


def _leave_client(state: _ToolDocBuilder, ev):
    state.handlers.deactivate("client-env")
    state.handlers.activate("plain-env")


def _env_handler(client: bool):
    def on_environment(state: _ToolDocBuilder, ev):
        block = state.require_block(ev)
        name = ev.require("name")
        if name in state.seen_vars:
            raise ToolError(
                f"duplicate variable '{name}' in Tool block {block.version}"
            )
        state.seen_vars.add(name)
        value = ev.get("value")
        if client and value is not None:
            raise ToolError(
                f"client variable '{name}' must not carry a value; "
                f"it is supplied at setup time"
            )
        block.variables.append(EnvVarDecl(
            name=name,
            value=value,
            var_type=VarType.from_attr(ev.get("type"), ev.location),
            client=client,
        ))
        state.pending_text = name
    return on_environment


def _on_description(state: _ToolDocBuilder, ev):
    if state.pending_text is None or state.block is None:
        return
    text = ev.text.strip()
    if not text:
        return
    existing = state.block.descriptions.get(state.pending_text, "")
    state.block.descriptions[state.pending_text] = (
        f"{existing} {text}".strip() if existing else text
    )


def parse_tool_doc(events) -> ToolSpec:
    """Builder for ``BuildSystem::ToolDoc`` documents.

    ``$REF`` values are accepted as written here; whether they resolve is
    only knowable once external bindings exist, so dangling references
    surface from resolve_tool, not the parse.
    """
    state = _ToolDocBuilder()
    parse_with_handlers(events, state.handlers, state)
    if state.name is None:
        raise ToolError("tool document contains no <Tool> block")
    return ToolSpec(state.name, state.blocks)


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
    if sys.platform.startswith("win"):
        return ["{name}.dll", "{name}.lib", "lib{name}.a"]
    if sys.platform == "darwin":
        return ["lib{name}.dylib", "lib{name}.a", "lib{name}.so"]
    return ["lib{name}.so", "lib{name}.so.*", "lib{name}.a"]


class LibraryProber:
    """Looks for platform-conventional library files under search roots.

    A directory qualifies when it holds at least one matching file for any
    of the requested base names; roots are scanned in order, then their
    direct subdirectories in sorted order, first hit wins. A prober lists
    each directory at most once, however many probes it serves; a directory
    that cannot be listed holds no files.
    """

    def __init__(self, search_roots: list[str], patterns: list[str] | None = None):
        self.search_roots = list(search_roots)
        self.patterns = patterns if patterns is not None else default_library_patterns()
        self._candidates: list[str] | None = None
        self._listings: dict[str, list[str]] = {}

    def _files(self, directory: str) -> list[str]:
        files = self._listings.get(directory)
        if files is None:
            try:
                files = os.listdir(directory)
            except OSError:
                files = []
            self._listings[directory] = files
        return files

    def _candidate_dirs(self) -> list[str]:
        if self._candidates is None:
            self._candidates = []
            for root in self.search_roots:
                if not os.path.isdir(root):
                    continue
                self._candidates.append(root)
                for entry in sorted(self._files(root)):
                    sub = os.path.join(root, entry)
                    if os.path.isdir(sub):
                        self._candidates.append(sub)
        return self._candidates

    def find_library_dir(self, lib_names: list[str]) -> str | None:
        globs = [pattern.format(name=name)
                 for name in lib_names for pattern in self.patterns]
        if not globs:
            return None
        # fnmatch.fnmatch would also normcase both sides, which is the
        # identity on the POSIX systems scram runs on
        wanted = re.compile("|".join(map(fnmatch.translate, globs)))
        for directory in self._candidate_dirs():
            if any(map(wanted.match, self._files(directory))):
                return directory
        return None


PROVENANCE_SITE = "site-file"
PROVENANCE_PROBE = "probe"
PROVENANCE_PROMPT = "prompt"
PROVENANCE_SUBSTITUTION = "substitution"


class ResolvedTool:
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.version, self.bindings, self.runtime_entries,
                 self.lib_names, self.provenance, self.descriptions,
                 self.externals)
                == (other.name, other.version, other.bindings,
                    other.runtime_entries, other.lib_names, other.provenance,
                    other.descriptions, other.externals))

    @property
    def folded_name(self) -> str:
        return self.name.casefold()


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
    value = site.tool_value(tool_name, decl.name) if site is not None else None
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


def runtime_contribution(rt: ResolvedTool) -> EnvDelta:
    """The runtime fragment of a resolved tool: its Runtime_path prepends.

    Plain and lib bindings stay build-time; they are not exported at
    runtime.
    """
    delta = EnvDelta()
    for name, value in rt.runtime_entries:
        delta.prepend(name, value)
    return delta


def build_contribution(rt: ResolvedTool) -> EnvDelta:
    """The build-environment fragment: every binding as a plain setting,
    plus the runtime prepends."""
    delta = EnvDelta()
    runtime_names = {name for name, _ in rt.runtime_entries}
    for name, value in rt.bindings.items():
        if name not in runtime_names:
            delta.set(name, value)
    for name, value in rt.runtime_entries:
        delta.prepend(name, value)
    return delta
