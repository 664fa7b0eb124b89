"""Central installations, developer areas, and their lifecycle.

A project area is a directory with a fixed skeleton (src, config, lib, bin,
logs, tmp, .SCRAM). The .SCRAM directory holds everything administrative:
the area's own identity, a state marker, per-architecture resolved tool
records, and, for developer areas, a Link file pointing at the central
installation they draw from. Nothing else in the area stores an absolute
self-path, so an area keeps working after a rename; only the Link target
is absolute.

A flat registry file (one ``project version arch location`` record per
line) makes central installations discoverable. Developer areas inherit
tool records and the resolved configuration through their link and keep
locally only what the developer overrides.

One seam, ``read_tool_records`` and ``write_tool_records``, is the only
code that knows how and where tool records are stored; every other
function reads and writes them through it. ``write_tool_records`` alone
decides how a record reaches disk: a bootstrap has the document cache's
record store link in an identical record it holds.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, contextmanager, suppress
from itertools import chain

from .activedoc import DocumentEngine
from .configuration import (
    CONFIGURATION,
    REQUIREMENTS,
    ConfigurationDoc,
    PinnedTool,
    RequireEntry,
    RequirementsDoc,
    SelectEntry,
    resolve_selection,
)
from .errors import AreaError, ToolError, UrlError
from .fsutil import (
    atomic_write,
    check_name,
    list_dir,
    locked,
    make_dirs,
    private_tree,
    read_json,
    read_text,
    write_new,
)
from .markup import DocType, Value, parse_with_handlers
from .runtime import (
    EXEC_PATH_VAR,
    LIB_PATH_VAR,
    EnvDelta,
)
from .sitefile import SiteInfo
from .tooldoc import (
    TOOLDOC,
    LibraryProber,
    ResolvedTool,
    order_by_externals,
    resolve_tool,
    select_version,
)
from .urlaccess import ResourceUrl, UrlCache, default_registry, parse_url, url_scheme

ADMIN_DIR = ".SCRAM"
AREA_SUBDIRS = ("src", "config", "lib", "bin", "logs", "tmp", ADMIN_DIR)
LINK_FILE = "Link"
STATE_FILE = "state"
AREA_FILE = "area"
LOCK_FILE = "lock"
CONFIG_RECORD = "configuration"
REQUIREMENTS_ID_FILE = "requirements.url"

STATE_INCOMPLETE = "incomplete"
STATE_COMPLETE = "complete"

LOOKUPDB_ENV = "SCRAM_LOOKUPDB"
CACHE_ENV = "SCRAM_CACHE"
REGISTRY_BASENAME = ".scramdb"


class InstallationRecord(Value):
    __slots__ = ("project", "version", "arch", "location")

    def __init__(self, project: str, version: str, arch: str, location: str):
        self.project = project
        self.version = version
        self.arch = arch
        self.location = location


class Registry:
    """Text registry of central installations, one record per line."""

    def __init__(self, path: str):
        self.path = path

    @classmethod
    def locate(cls, env) -> "Registry":
        """``$SCRAM_LOOKUPDB`` of ``env``, else ``.scramdb`` under its ``HOME``."""
        if env.get(LOOKUPDB_ENV):
            return cls(env[LOOKUPDB_ENV])
        if not env.get("HOME"):
            raise AreaError(f"set {LOOKUPDB_ENV} or HOME to locate the registry")
        return cls(os.path.join(env["HOME"], REGISTRY_BASENAME))

    def _lines(self) -> list[str]:
        return read_text(self.path, "registry", missing="").splitlines()

    def records(self, lines: list[str] | None = None) -> list[InstallationRecord]:
        """The records of ``lines``, by default the registry's own."""
        out = []
        for raw in self._lines() if lines is None else lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 3)
            if len(parts) != 4:
                continue  # tolerate junk lines
            out.append(InstallationRecord(*parts))
        return out

    def find(self, project: str, version: str, arch: str,
             lines: list[str] | None = None) -> InstallationRecord | None:
        for record in self.records(lines):
            if (record.project, record.version, record.arch) == (project, version, arch):
                return record
        return None

    def add(self, record: InstallationRecord) -> None:
        """Register ``record`` unless an identical one exists; a record whose
        line would read back as another record, or none, is refused. The
        check and the rewrite hold the registry lock and use one read of it,
        so concurrent installs cannot record duplicate or conflicting
        entries."""
        line = f"{record.project} {record.version} {record.arch} {record.location}"
        if self.records(line.splitlines()) != [record]:
            raise AreaError(
                f"cannot register project {record.project!r} version "
                f"{record.version!r} for {record.arch!r} at {record.location!r}: "
                "a registry line holds a project, version and architecture with "
                "no whitespace, the first not starting with '#', then a location "
                "with no line break and no whitespace at either end")
        with locked(os.path.realpath(self.path) + ".lock", wait=True):
            lines = self._lines()
            existing = self.find(record.project, record.version, record.arch, lines)
            if existing is not None:
                if existing.location == record.location:
                    return  # re-registering the identical record is a no-op
                raise AreaError(
                    f"{record.project} {record.version} ({record.arch}) is "
                    f"already registered at {existing.location}"
                )
            lines.append(line)
            atomic_write(self.path, "\n".join(lines) + "\n")


class ProjectArea:
    """An area on disk, named by its root. It holds no way of writing: a
    file of an area still being built in a private tree, where nobody
    reads it, is made by ``write_new``, and a published area's files are
    replaced by ``atomic_write``."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self._central: str | None = None

    # ---- layout -----------------------------------------------------
    @property
    def admin(self) -> str:
        return os.path.join(self.root, ADMIN_DIR)

    def _admin_file(self, name: str) -> str:
        return os.path.join(self.admin, name)

    @property
    def kind(self) -> str:
        return "central" if self.link_target() is None else "developer"

    def link_target(self) -> str | None:
        """The central root a developer area's Link names; None without one."""
        path = self._admin_file(LINK_FILE)
        target = read_text(path, "link file", missing=None)
        if target is None:
            if os.path.islink(path):
                raise AreaError(f"link file {path} is a dangling symlink")
            return None
        target = target.strip()
        if not os.path.isabs(target):
            raise AreaError(f"link file {path} names no absolute path: {target!r}")
        return target

    def central_root(self) -> str:
        """The linked central installation, or this area if it is central.
        Resolved once per instance: a command reads the Link file once."""
        if self._central is None:
            target = self.link_target()
            if target is None:
                target = self.root
            elif not os.path.isdir(os.path.join(target, ADMIN_DIR)):
                raise AreaError(
                    f"linked central installation {target} is missing or not an area"
                )
            self._central = target
        return self._central

    @property
    def install_root(self) -> str:
        """The ``--dest`` the central root was bootstrapped under."""
        return os.path.dirname(self.central_root())

    def identity(self) -> tuple[str, str]:
        path = self._admin_file(AREA_FILE)
        values = {}
        for line in read_text(path, "area metadata").splitlines():
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
        try:
            return values["project"], values["version"]
        except KeyError as exc:
            raise AreaError(f"area metadata {path} lacks {exc}") from exc

    @property
    def area_id(self) -> str:
        project, version = self.identity()
        return f"{project}:{version}"

    def config_record_path(self, arch: str) -> str:
        return os.path.join(self.admin, arch, CONFIG_RECORD)

    # ---- state ------------------------------------------------------
    def state(self) -> str:
        return read_text(self._admin_file(STATE_FILE), "area state",
                         missing=STATE_INCOMPLETE).strip()

    def set_state(self, state: str) -> None:
        atomic_write(self._admin_file(STATE_FILE), state + "\n")

    # ---- creation ---------------------------------------------------
    @classmethod
    def create(cls, root: str, project: str, version: str,
               link_target: str | None = None) -> "ProjectArea":
        """A new area at ``root``, a path in a ``private_tree``, whose
        files are made with ``write_new``."""
        area = cls(root)
        for sub in AREA_SUBDIRS:
            make_dirs(os.path.join(area.root, sub))
        write_new(area._admin_file(AREA_FILE),
                  f"project = {project}\nversion = {version}\n")
        if link_target is not None:
            write_new(area._admin_file(LINK_FILE), os.path.abspath(link_target) + "\n")
        write_new(area._admin_file(STATE_FILE), STATE_INCOMPLETE + "\n")
        return area

    @contextmanager
    def lock(self) -> Iterator[None]:
        """One mutating command per area; read-only commands never take
        this. A second holder fails at once rather than waiting."""
        path = self._admin_file(LOCK_FILE)
        with locked(path, wait=False) as held:
            if not held:
                raise AreaError(f"another scram command holds the area lock ({path})")
            yield


def area_context(cwd: str) -> ProjectArea:
    """Nearest enclosing area: walk upward until a .SCRAM directory."""
    path = os.path.abspath(cwd)
    while True:
        if os.path.isdir(os.path.join(path, ADMIN_DIR)):
            return ProjectArea(path)
        parent = os.path.dirname(path)
        if parent == path:
            raise AreaError(
                f"{cwd} is not inside a scram area (no {ADMIN_DIR} found upward)"
            )
        path = parent


# ---------------------------------------------------------------------
# bootstrap documents

class BootStrapDoc:
    __slots__ = ("project", "version", "downloads", "config_url")

    def __init__(self, project: str, version: str,
                 downloads: list[tuple[str, str]], config_url: str | None = None):
        self.project = project
        self.version = version
        self.downloads = downloads
        self.config_url = config_url


def _safe_destination(dest: str) -> str:
    if "\0" in dest:
        raise AreaError(f"download destination holds a NUL byte: {dest!r}")
    norm = os.path.normpath(dest)
    top = norm.split(os.sep)[0]
    if not dest or os.path.isabs(norm) or top == "..":
        raise AreaError(f"download destination escapes the area: {dest!r}")
    if top == ADMIN_DIR:
        raise AreaError(f"download destination is in {ADMIN_DIR}, scram's own state: "
                        f"{dest!r}")
    return norm


def parse_bootstrap(events) -> BootStrapDoc:
    """Builder for ``BuildSystem::BootStrapDoc``: one ``<project>``, any
    number of ``<download url= to=>``, an optional ``<config url=>``."""
    doc = BootStrapDoc(project="", version="", downloads=[])

    def on_project(_, ev):
        doc.project = ev.require("name")
        doc.version = ev.require("version")

    def on_download(_, ev):
        doc.downloads.append((ev.require("url"), _safe_destination(ev.require("to"))))

    def on_config(_, ev):
        doc.config_url = ev.require("url")

    parse_with_handlers(events, None, open={
        "project": on_project, "download": on_download, "config": on_config})
    if not doc.project or not doc.version:
        raise AreaError("bootstrap document does not name a project and version")
    return doc


BOOTSTRAP = DocType("BuildSystem::BootStrapDoc", "1.0", parse_bootstrap)


# ---------------------------------------------------------------------
# engine assembly

@contextmanager
def build_engine(site: SiteInfo, env, install_root: str,
                 refresh: bool = False) -> Iterator[DocumentEngine]:
    """The engine over the command's document cache, for the block to
    fetch with; the cache's pack is published when the block ends, failed
    or not. A command publishes what it made, an area or records, only
    after this block, so a pack that cannot be published fails it first."""
    cache_root = env.get(CACHE_ENV) or os.path.join(install_root, ".scram-cache")
    engine = DocumentEngine(UrlCache(cache_root, default_registry(site), refresh))
    try:
        yield engine
    finally:
        engine.cache.publish()


# ---------------------------------------------------------------------
# shapes of the values in the JSON state files

# Each check runs on every record of every read-only command, so it walks
# the value with ``map`` rather than a generator; JSON gives exact types.


def _is_str(value) -> bool:
    return type(value) is str


def _is_str_list(value) -> bool:
    return type(value) is list and set(map(type, value)) <= {str}


def _is_str_pairs(value) -> bool:
    return (type(value) is list and set(map(type, value)) <= {list}
            and set(map(len, value)) <= {2}
            and set(map(type, chain.from_iterable(value))) <= {str})


def _is_str_map(value) -> bool:
    return type(value) is dict and set(map(type, value.values())) <= {str}


def _is_object_list(value) -> bool:
    return type(value) is list and set(map(type, value)) <= {dict}


_MISSING = object()


def _field(payload: dict, key: str, valid, what: str, path: str,
           default=_MISSING):
    """``payload[key]`` if ``valid`` holds for it; a missing key gives
    ``default``, and without one, like an invalid value, an AreaError."""
    value = payload.get(key, default)
    if value is _MISSING:
        raise AreaError(f"{what} {path} lacks '{key}'")
    if not valid(value):
        raise AreaError(f"{what} {path} has a malformed '{key}'")
    return value


# ---------------------------------------------------------------------
# resolved-configuration persistence

def _write_config_record(area: ProjectArea, arch: str,
                         resolved: dict[str, PinnedTool]) -> None:
    payload = {"tools": [
        {"name": pin.name, "version": pin.version, "spec_url": pin.spec_url}
        for pin in resolved.values()
    ]}
    write_new(area.config_record_path(arch), json.dumps(payload) + "\n")


def load_config_record(area: ProjectArea, arch: str) -> dict[str, PinnedTool]:
    """The central installation's resolved configuration, folded name -> pin;
    an installation set up for no architecture at all reads as empty."""
    path = ProjectArea(area.central_root()).config_record_path(arch)
    what = "configuration record"
    payload = read_json(path, what, missing=None)
    if payload is None:
        _require_architecture(area, arch)
        return {}
    tools = {}
    for t in _field(payload, "tools", _is_object_list, what, path):
        name = _field(t, "name", _is_str, what, path)
        tools[name] = PinnedTool(
            name, _field(t, "version", _is_str, what, path),
            _field(t, "spec_url", _is_str, what, path))
    return tools  # order preserved by json


def _require_architecture(area: ProjectArea, arch: str) -> None:
    """Fail if the central installation was set up for other architectures
    but not for ``arch``."""
    admin = os.path.join(area.central_root(), ADMIN_DIR)
    if os.path.isdir(os.path.join(admin, arch)):
        return
    held = sorted(name for name in list_dir(admin, "administrative directory")
                  if os.path.isdir(os.path.join(admin, name)))
    if held:
        raise AreaError(f"{area.central_root()} has no tools for architecture {arch}, "
                        f"only for {', '.join(held)} (pass --arch or set SCRAM_ARCH)")


# ---------------------------------------------------------------------
# tool records: the one seam that knows how and where they are stored
TOOLS_DIR = "tools"


def write_tool_record(area: ProjectArea, arch: str, rt: ResolvedTool, write) -> None:
    path = os.path.join(area.root, ADMIN_DIR, arch, TOOLS_DIR, rt.name.casefold())
    payload = {"name": rt.name, "version": rt.version, "bindings": rt.bindings,
               "runtime": rt.runtime_entries, "libs": rt.lib_names,
               "provenance": rt.provenance, "descriptions": rt.descriptions,
               "externals": rt.externals}
    write(path, (json.dumps(payload) + "\n").encode())


def write_tool_records(area: ProjectArea, arch: str, tools: list[ResolvedTool],
                       write=atomic_write) -> None:
    """Write the records of ``tools``, every one of them already resolved,
    once every name is known to stay in the tools directory, each by
    ``write``: a bootstrap gives the record store's ``write_record``."""
    for rt in tools:
        check_name(rt.name, "tool name")
    for rt in tools:
        write_tool_record(area, arch, rt, write)


# a tool record's fields in the order their errors take precedence:
# (key, check, default for a missing key)
_TOOL_RECORD_FIELDS = (
    ("name", _is_str, _MISSING),
    ("version", _is_str, _MISSING),
    ("bindings", _is_str_map, _MISSING),
    ("runtime", _is_str_pairs, _MISSING),
    ("libs", _is_str_list, _MISSING),
    ("provenance", _is_str_map, _MISSING),
    ("descriptions", _is_str_map, {}),
    ("externals", _is_str_pairs, []),
)


def _load_record(path: str) -> ResolvedTool:
    what = "tool record"
    payload = read_json(path, what)
    get = payload.get
    name, version, libs = get("name"), get("version"), get("libs")
    bindings, provenance = get("bindings"), get("provenance")
    descriptions, runtime = get("descriptions", {}), get("runtime")
    externals = get("externals", [])
    # every field's check of _TOOL_RECORD_FIELDS at once; a missing key
    # reads as None, which no check accepts
    if not (type(name) is str and type(version) is str
            and type(bindings) is dict and type(provenance) is dict
            and type(descriptions) is dict and type(libs) is list
            and type(runtime) is list and type(externals) is list
            and set(map(type, chain(runtime, externals))) <= {list}
            and set(map(len, chain(runtime, externals))) <= {2}
            and set(map(type, chain(
                libs, bindings.values(), provenance.values(), descriptions.values(),
                chain.from_iterable(runtime), chain.from_iterable(externals)))) <= {str}):
        # one field is missing or malformed: name the first, in order
        for key, valid, default in _TOOL_RECORD_FIELDS:
            _field(payload, key, valid, what, path, default)
    return ResolvedTool(
        name=name, version=version, bindings=bindings,
        runtime_entries=list(map(tuple, runtime)), lib_names=libs,
        provenance=provenance, descriptions=descriptions,
        externals=list(map(tuple, externals)))


class ToolRecords(dict):
    """An area's tool records, casefolded name -> ``"central"`` or ``"local"``;
    ``read(name)`` opens one, and ``version(name)`` gives its version."""

    def __init__(self, dirs: dict[str, str]):
        """List ``dirs``, source -> tools directory, in order, each sorted; a
        later source's record replaces an earlier one in its place."""
        super().__init__()
        self._dirs = dirs
        for source, directory in dirs.items():
            self.update((entry, source)
                        for entry in sorted(list_dir(directory, "tools directory")))

    def read(self, name: str) -> ResolvedTool:
        return _load_record(os.path.join(self._dirs[self[name]], name))

    def version(self, name: str) -> str:
        return self.read(name).version

    def by_configuration(self, resolved: dict[str, PinnedTool]) -> list[tuple]:
        """(name, pin, record name) of the configured tools in configuration
        order, None for a missing record, then of the others in order."""
        others = dict(self)
        rows = []
        for pin in resolved.values():
            key = pin.name.casefold()
            rows.append((pin.name, pin, key if others.pop(key, None) else None))
        return rows + [(key, None, key) for key in others]


def read_tool_records(area: ProjectArea, arch: str) -> ToolRecords:
    """The area's tool records, none opened yet: the central root's, then
    the area's own in the place of any they replace. A central area is its
    own central root, so its one directory is listed once, all local."""
    roots = {area.central_root(): "central", area.root: "local"}
    return ToolRecords({source: os.path.join(root, ADMIN_DIR, arch, TOOLS_DIR)
                        for root, source in roots.items()})


# ---------------------------------------------------------------------
# spec loading and resolution

def resolve_project_configuration(engine: DocumentEngine, url: ResourceUrl,
                                  arch: str) -> tuple[dict[str, PinnedTool], str]:
    """Activate a requirements document, load its configurations, and bind
    the architecture's selection (see ``resolve_selection``); also return
    the document's identity, ``url`` and its version. A configuration
    document stands for itself with every entry selected.

    Every ``<require url>`` is made absolute here, once: against its
    configuration's ``<base>``, else the requirements' ``<base>``; with
    neither, a URL naming no scheme resolves against the configuration's
    own URL and one naming a scheme stays as written.
    """
    req = engine.activate(url, (REQUIREMENTS, CONFIGURATION))

    def absolute(config, source, fallback):
        base = parse_url(config.base, base=source) if config.base else fallback
        entries = []
        for e in config.entries:
            try:
                pinned = parse_url(e.url, base=base or (None if url_scheme(e.url)
                                                        else source))
            except UrlError as exc:
                raise UrlError(f"{source}: <require name={e.name} version="
                               f"{e.version}>: {exc.message}") from exc
            entries.append(RequireEntry(e.name, e.version, str(pinned), e.arch_scope))
        return ConfigurationDoc(entries)

    if isinstance(req, ConfigurationDoc):
        configs = [absolute(req, url, None)]
        req = RequirementsDoc(selects=[SelectEntry(e.name, e.arch_scope)
                                       for e in req.entries])
    else:
        req_base = parse_url(req.base, base=url) if req.base else None
        configs = []
        for raw in req.includes:
            inc_url = parse_url(raw, base=req_base or url)
            configs.append(absolute(engine.activate(inc_url, (CONFIGURATION,)),
                                    inc_url, req_base))
    identity = f"{url.unparse()} {url.version_tag()}"
    return resolve_selection(req, configs, arch), identity


def _activate_spec(engine: DocumentEngine, pin: PinnedTool):
    return engine.activate(parse_url(pin.spec_url), (TOOLDOC,))


def resolve_selected_tools(engine: DocumentEngine, pins: Iterable[PinnedTool],
                           records: ToolRecords | dict, site: SiteInfo,
                           prompt=None) -> list[ResolvedTool]:
    """Resolve ``pins`` in dependency order; write nothing.

    Every spec is activated before any tool is resolved. A tool's
    externals come from the tools resolved earlier in this call, then from
    ``records``, the area's active records as its caller read them; only
    the records they name are read.
    """
    named = {pin.name.casefold(): pin for pin in pins}
    blocks = {key: select_version(_activate_spec(engine, pin), pin.version)
              for key, pin in named.items()}
    order = order_by_externals(blocks)
    prober = LibraryProber(site.library_roots())
    done: dict[str, ResolvedTool] = {}
    for key in order:
        for ext in blocks[key].externals:
            ref = ext.folded_ref
            if ref not in done and ref in records:
                done[ref] = records.read(ref)
        done[key] = resolve_tool(blocks[key], tool_name=named[key].name, site=site,
                                 prober=prober, prompt=prompt, already_resolved=done)
    return [done[key] for key in order]


# ---------------------------------------------------------------------
# lifecycle commands

def bootstrap_install(bootstrap_url: str, dest_root: str, *, site: SiteInfo,
                      env, arch: str, prompt=None, refresh: bool = False,
                      ) -> tuple[ProjectArea, InstallationRecord]:
    """Assemble a central installation from a bootstrap document.

    The whole area is built in a private dot-named directory beside its
    final path and published by one rename, after the command's cache
    pack, so a failed bootstrap, its pack's publishing too, leaves nothing
    behind, not even a directory of ``dest_root`` it made that is still
    empty, and a killed one only the dot-named directory. The area is
    created unregistered and stays in the ``incomplete`` state until a
    successful build (or a forced install) marks it complete.
    """
    # the highest directory of dest_root that this command makes, if any
    made, path = None, os.path.abspath(dest_root)
    while not os.path.lexists(path):
        made, path = path, os.path.dirname(path)
    try:
        # the engine's block ends first: the pack is published before the
        # tree is renamed into place
        with ExitStack() as tree, build_engine(site, env, dest_root, refresh) as engine:
            boot_url = parse_url(bootstrap_url)
            boot: BootStrapDoc = engine.activate(boot_url, (BOOTSTRAP,))

            root = os.path.join(os.path.abspath(dest_root), check_name(
                f"{boot.project}_{boot.version}", "area name"))
            if not os.path.isdir(dest_root):
                make_dirs(dest_root)  # here, so a failure names the --dest given
            area = ProjectArea.create(tree.enter_context(private_tree(root)),
                                      boot.project, boot.version)
            for raw_url, dest in boot.downloads:
                content, _ = engine.cache.fetch(parse_url(raw_url, base=boot_url))
                write_new(os.path.join(area.root, dest), content)

            if boot.config_url is not None:
                config_url = parse_url(boot.config_url, base=boot_url)
                resolved, identity = resolve_project_configuration(
                    engine, config_url, arch)
                # a new area has no records yet
                tools = resolve_selected_tools(engine, resolved.values(), {},
                                               site, prompt)
                _write_config_record(area, arch, resolved)
                write_new(os.path.join(area.root, "config", REQUIREMENTS_ID_FILE),
                          identity + "\n")
                write_tool_records(area, arch, tools, engine.cache.write_record)
    except BaseException:
        if made is not None:
            path = os.path.abspath(dest_root)
            with suppress(OSError):  # bottom-up, each only while it is empty
                while path != os.path.dirname(made):
                    with suppress(FileNotFoundError):  # its making failed
                        os.rmdir(path)
                    path = os.path.dirname(path)
        raise

    area = ProjectArea(root)
    record = InstallationRecord(boot.project, boot.version, arch, area.root)
    return area, record


def register_install(area: ProjectArea, registry: Registry, *,
                     arch: str, force: bool = False) -> InstallationRecord:
    """Register the central ``area``; with ``force`` an incomplete one too,
    which is marked complete once it is registered."""
    if area.kind != "central":
        raise AreaError("only central installations can be registered; "
                        "this is a developer area")
    complete = area.state() == STATE_COMPLETE
    if not (complete or force):
        raise AreaError(
            "installation is not marked complete (run a successful "
            "'scram build' first, or pass --force)"
        )
    project, version = area.identity()
    record = InstallationRecord(project, version, arch, area.root)
    registry.add(record)
    if not complete:
        area.set_state(STATE_COMPLETE)
    return record


LIST_HEADER = "| Project  | Version  |  Location  |"
LIST_RULE = "-" * 36
TOOL_LIST_RULE = "+" * 50


def list_installs(registry: Registry, project_filter: str | None,
                  arch: str) -> str:
    lines = ["Listing installed projects....", "", LIST_RULE, LIST_HEADER,
             LIST_RULE]
    for record in registry.records():
        if record.arch != arch:
            continue
        if project_filter is not None and record.project != project_filter:
            continue
        lines.append(f"{record.project} {record.version} --> {record.location}")
    lines.append(f"Projects available for platform >> {arch} <<")
    return "\n".join(lines) + "\n"


def create_dev_area(project: str, version: str, registry: Registry, cwd: str,
                    *, arch: str) -> ProjectArea:
    """Developer area linked to a registered central installation; only the
    configuration identity and administrative metadata are local. It is
    built in a private tree, as ``bootstrap_install`` builds a central one,
    so a failed command leaves nothing behind."""
    record = registry.find(project, version, arch)
    if record is None:
        available = [r.version for r in registry.records()
                     if r.project == project and r.arch == arch]
        hint = (f" (available versions: {', '.join(available)})" if available
                else " (no versions registered; see 'scram list')")
        raise AreaError(f"no registered installation of {project} {version} "
                        f"for {arch}{hint}")
    if not os.path.isdir(os.path.join(record.location, ADMIN_DIR)):
        raise AreaError(
            f"registered location {record.location} is gone or is not an "
            f"installation area"
        )
    identity = read_text(os.path.join(record.location, "config", REQUIREMENTS_ID_FILE),
                         "configuration identity", missing=None)
    root = os.path.join(os.path.abspath(cwd),
                        check_name(f"{project}_{version}", "area name"))
    with private_tree(root) as private:
        ProjectArea.create(private, project, version, link_target=record.location)
        if identity is not None:
            write_new(os.path.join(private, "config", REQUIREMENTS_ID_FILE),
                      identity)
    return ProjectArea(root)


def tool_list(area: ProjectArea, arch: str) -> str:
    """The area's tools in configuration order: active version next to the
    configuration default, then local additions."""
    lines = [f"Tool list for location {area.central_root()}", TOOL_LIST_RULE]
    records = read_tool_records(area, arch)
    for name, pin, key in records.by_configuration(load_config_record(area, arch)):
        version = records.version(key) if key else pin.version
        lines.append(_tool_row(name, version, pin.version if pin else "none"))
    return "\n".join(lines) + "\n"


def _tool_row(name: str, version: str, default: str) -> str:
    return f" {name:<21}{version:<11}(default={default})"


def setup_tool(area: ProjectArea, name: str | None = None,
               version: str | None = None, url: str | None = None, *,
               site: SiteInfo, env, arch: str, prompt=None,
               refresh: bool = False) -> list[str]:
    """(Re)resolve tools into the area's own records.

    With a URL: set up exactly that product/version, overriding locally.
    With a name: re-resolve that tool from the inherited configuration; a
    version, if given, must be the configured one.
    With nothing: make sure every configured tool has a record, resolving,
    in dependency order, those with none and those whose record is the
    central one at another version. A local record, a developer's
    override, is left alone; re-resolving it takes its name.

    Returns the names written.
    """
    if url is None and url_scheme(version or ""):
        url, version = version, None  # a URL given in the VERSION place
    records = read_tool_records(area, arch)
    if url is not None:
        if name is None or version is None:
            raise AreaError("setup with a URL needs both a name and a version")
        pins = [PinnedTool(name, version, url)]
    elif name is not None:
        resolved = load_config_record(area, arch)
        pin = resolved.get(name.casefold())
        if pin is None:
            known = ", ".join(resolved) or "(none)"
            raise ToolError(
                f"'{name}' is not in the configuration (known tools: {known}); "
                f"pass a specification URL to add it"
            )
        if version is not None and version != pin.version:
            raise ToolError(f"'{name}' is configured at version {pin.version}; "
                            f"pass a specification URL to set up version {version}")
        pins = [pin]
    else:
        rows = records.by_configuration(load_config_record(area, arch))
        pins = [pin for _, pin, key in rows if pin is not None
                and (key is None or records[key] == "central"
                     and records.version(key) != pin.version)]
        if not pins:
            return []  # nothing to resolve, so no cache to open
    with build_engine(site, env, area.install_root, refresh) as engine:
        tools = resolve_selected_tools(engine, pins, records, site, prompt)
    write_tool_records(area, arch, tools)
    return [rt.name for rt in tools]


def tool_info(area: ProjectArea, name: str, arch: str) -> str:
    records = read_tool_records(area, arch)
    source = records.get(name.casefold())
    if source is None:
        _require_architecture(area, arch)
        known = ", ".join(records) or "(none)"
        raise ToolError(f"unknown tool '{name}' (known tools: {known})")
    rt = records.read(name.casefold())
    lines = [f"Tool: {rt.name}", f"Version: {rt.version}", f"Record: {source}"]
    if rt.lib_names:
        lines.append("Libraries: " + " ".join(rt.lib_names))
    if rt.externals:
        lines.append("Externals:")
        lines.extend(f"  {ref} {version}" for ref, version in rt.externals)
    if rt.bindings:
        lines.append("Environment:")
        lines.extend(
            f"  {key}={value}  [{rt.provenance.get(key, '?')}]"
            for key, value in rt.bindings.items()
        )
    if rt.descriptions:
        lines.append("Notes:")
        lines.extend(f"  {key}: {text}" for key, text in rt.descriptions.items())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# environments

def _area_level_prepends(area: ProjectArea, delta: EnvDelta) -> None:
    """bin/ and lib/ of the central and developer areas, developer ending up
    ahead. Only directories with content contribute, which also keeps the
    emission byte-stable across a developer-area rename while the area has
    produced nothing."""
    roots = [area.central_root()]
    if area.root != roots[0]:
        roots.append(area.root)
    for var, sub in ((EXEC_PATH_VAR, "bin"), (LIB_PATH_VAR, "lib")):
        for root in roots:
            path = os.path.join(root, sub)
            if os.path.isdir(path) and os.listdir(path):
                delta.prepend(var, path)


def _tools_in_runtime_order(area: ProjectArea, arch: str) -> list[ResolvedTool]:
    records = read_tool_records(area, arch)
    rows = records.by_configuration(load_config_record(area, arch))
    missing = [name for name, _, key in rows if key is None]
    if missing:
        raise AreaError(f"tools without resolved records: {', '.join(missing)} "
                        "(run 'scram setup')")
    return [records.read(key) for _, _, key in rows]


def area_environment(area: ProjectArea, arch: str, *,
                     build: bool = False) -> EnvDelta:
    """The area's delta: every active tool's Runtime_path prepends in
    configuration order, then the area-level path entries. For ``build``,
    each tool's other bindings come along as plain settings; at runtime
    they are not exported."""
    delta = EnvDelta(area_id=area.area_id)
    for record in _tools_in_runtime_order(area, arch):
        if build:
            runtime_names = {name for name, _ in record.runtime_entries}
            for name, value in record.bindings.items():
                if name not in runtime_names:
                    delta.set(name, value)
        for name, value in record.runtime_entries:
            delta.prepend(name, value)
    _area_level_prepends(area, delta)
    return delta


def run_build(area: ProjectArea, args: list[str], *, site: SiteInfo, env,
              arch: str) -> int:
    """Pass-through build: run the operator-configured command inside tmp/
    with the area's build environment; a zero exit marks the area complete."""
    template = site.get("build.command")
    if not template:
        raise AreaError(
            "no build command configured (site key build.command)"
        )
    # imported here: only the build verb runs a command
    import shlex
    import subprocess

    from .runtime import apply_delta

    build_env = apply_delta(env, area_environment(area, arch, build=True))
    argv = shlex.split(template) + list(args)
    try:
        proc = subprocess.run(argv, cwd=os.path.join(area.root, "tmp"),
                              env=build_env)
    except FileNotFoundError as exc:
        raise AreaError(f"build command not found: {exc}") from exc
    if proc.returncode == 0:
        area.set_state(STATE_COMPLETE)
    return proc.returncode
