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
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, contextmanager
from itertools import chain

from .activedoc import DocTypeRegistry, DocumentEngine
from .configuration import (
    Architecture,
    ConfigurationDoc,
    PinnedTool,
    RequirementsDoc,
    ResolvedConfiguration,
    SelectEntry,
    detect_architecture,
    parse_configuration,
    parse_requirements,
)
from .errors import AreaError, ToolError
from .fsutil import atomic_write, locked, read_json
from .markup import HandlerMap, parse_with_handlers
from .runtime import (
    EXEC_PATH_VAR,
    LIB_PATH_VAR,
    EnvDelta,
)
from .sitefile import SiteInfo
from .tooldoc import (
    LibraryProber,
    ResolvedTool,
    build_contribution,
    order_by_externals,
    parse_tool_doc,
    resolve_tool,
    runtime_contribution,
    select_version,
)
from .urlaccess import ResourceUrl, UrlCache, default_registry, parse_url

ADMIN_DIR = ".SCRAM"
AREA_SUBDIRS = ("src", "config", "lib", "bin", "logs", "tmp", ADMIN_DIR)
LINK_FILE = "Link"
STATE_FILE = "state"
AREA_FILE = "area"
LOCK_FILE = "lock"
CONFIG_RECORD = "configuration"
TOOLS_DIR = "tools"
REQUIREMENTS_ID_FILE = "requirements.url"

STATE_INCOMPLETE = "incomplete"
STATE_COMPLETE = "complete"

LOOKUPDB_ENV = "SCRAM_LOOKUPDB"
CACHE_ENV = "SCRAM_CACHE"
REGISTRY_BASENAME = "scramdb"


class InstallationRecord:
    __slots__ = ("project", "version", "arch", "location")

    def __init__(self, project: str, version: str, arch: str, location: str):
        self.project = project
        self.version = version
        self.arch = arch
        self.location = location

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.project, self.version, self.arch, self.location)
                == (other.project, other.version, other.arch, other.location))


class Registry:
    """Text registry of central installations, one record per line."""

    def __init__(self, path: str):
        self.path = path

    @classmethod
    def locate(cls, env=None, dest_root: str | None = None) -> "Registry":
        env = os.environ if env is None else env
        path = env.get(LOOKUPDB_ENV)
        if not path:
            if dest_root:
                path = os.path.join(dest_root, REGISTRY_BASENAME)
            else:
                path = os.path.join(os.path.expanduser("~"), "." + REGISTRY_BASENAME)
        return cls(path)

    def _lines(self) -> list[str]:
        if not os.path.exists(self.path):
            return []
        with open(self.path) as fh:
            return [raw.rstrip("\n") for raw in fh]

    def records(self) -> list[InstallationRecord]:
        out = []
        for raw in self._lines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 3)
            if len(parts) != 4:
                continue  # tolerate junk lines
            out.append(InstallationRecord(*parts))
        return out

    def find(self, project: str, version: str, arch: str) -> InstallationRecord | None:
        for record in self.records():
            if (record.project, record.version, record.arch) == (project, version, arch):
                return record
        return None

    def add(self, record: InstallationRecord) -> None:
        """Register ``record`` unless an identical one exists. The check and
        the rewrite hold the registry lock, so concurrent installs cannot
        record duplicate or conflicting entries."""
        with locked(os.path.realpath(self.path) + ".lock", wait=True):
            existing = self.find(record.project, record.version, record.arch)
            if existing is not None:
                if existing.location == record.location:
                    return  # re-registering the identical record is a no-op
                raise AreaError(
                    f"{record.project} {record.version} ({record.arch}) is "
                    f"already registered at {existing.location}"
                )
            lines = self._lines()
            lines.append(f"{record.project} {record.version} {record.arch} "
                         f"{record.location}")
            atomic_write(self.path, "\n".join(lines) + "\n")


class ProjectArea:
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
        return "developer" if os.path.exists(self._admin_file(LINK_FILE)) else "central"

    def link_target(self) -> str | None:
        path = self._admin_file(LINK_FILE)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            return fh.read().strip()

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

    def identity(self) -> tuple[str, str]:
        path = self._admin_file(AREA_FILE)
        values = {}
        try:
            with open(path) as fh:
                for line in fh:
                    key, _, value = line.partition("=")
                    values[key.strip()] = value.strip()
        except OSError as exc:
            raise AreaError(f"unreadable area metadata {path}: {exc}") from exc
        try:
            return values["project"], values["version"]
        except KeyError as exc:
            raise AreaError(f"area metadata {path} lacks {exc}") from exc

    @property
    def area_id(self) -> str:
        project, version = self.identity()
        return f"{project}:{version}"

    def config_record_path(self, arch: Architecture) -> str:
        return os.path.join(self.admin, arch.canonical, CONFIG_RECORD)

    # ---- state ------------------------------------------------------
    def state(self) -> str:
        try:
            with open(self._admin_file(STATE_FILE)) as fh:
                return fh.read().strip()
        except OSError:
            return STATE_INCOMPLETE

    def set_state(self, state: str) -> None:
        atomic_write(self._admin_file(STATE_FILE), state + "\n")

    # ---- creation ---------------------------------------------------
    @classmethod
    def create(cls, root: str, project: str, version: str,
               link_target: str | None = None) -> "ProjectArea":
        if os.path.exists(root):
            raise AreaError(f"target directory already exists: {root}")
        area = cls(root)
        for sub in AREA_SUBDIRS:
            os.makedirs(os.path.join(area.root, sub))
        atomic_write(area._admin_file(AREA_FILE),
                     f"project = {project}\nversion = {version}\n")
        if link_target is not None:
            atomic_write(area._admin_file(LINK_FILE),
                         os.path.abspath(link_target) + "\n")
        area.set_state(STATE_INCOMPLETE)
        return area

    @contextmanager
    def lock(self) -> Iterator[None]:
        """One mutating command per area; read-only commands never take
        this. A second holder fails at once rather than waiting."""
        path = self._admin_file(LOCK_FILE)
        with ExitStack() as held:
            try:
                held.enter_context(locked(path, wait=False))
            except BlockingIOError:
                raise AreaError(
                    f"another scram command holds the area lock ({path})"
                ) from None
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
    norm = os.path.normpath(dest)
    if not dest or os.path.isabs(norm) or norm.startswith(".."):
        raise AreaError(f"download destination escapes the area: {dest!r}")
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

    handlers = HandlerMap()
    handlers.add("boot", "project", open=on_project)
    handlers.add("boot", "download", open=on_download)
    handlers.add("boot", "config", open=on_config)
    parse_with_handlers(events, handlers, None)
    if not doc.project or not doc.version:
        raise AreaError("bootstrap document does not name a project and version")
    return doc


# ---------------------------------------------------------------------
# engine assembly

TOOLDOC_TYPE = "BuildSystem::ToolDoc"
CONFIG_TYPE = "BuildSystem::Configuration"
REQUIREMENTS_TYPE = "BuildSystem::Requirements"
BOOTSTRAP_TYPE = "BuildSystem::BootStrapDoc"


def build_engine(site: SiteInfo | None = None, env=None,
                 install_root: str | None = None,
                 refresh: bool = False) -> DocumentEngine:
    env = os.environ if env is None else env
    cache_root = env.get(CACHE_ENV)
    if not cache_root:
        if install_root:
            cache_root = os.path.join(install_root, ".scram-cache")
        else:
            cache_root = os.path.join(os.path.expanduser("~"), ".scram-cache")
    types = DocTypeRegistry()
    types.register(TOOLDOC_TYPE, "1.0", parse_tool_doc)
    types.register(CONFIG_TYPE, "1.0", parse_configuration)
    types.register(REQUIREMENTS_TYPE, "2.0", parse_requirements,
                   splice_includes=False)
    types.register(BOOTSTRAP_TYPE, "1.0", parse_bootstrap)
    cache = UrlCache(cache_root, default_registry(site))
    return DocumentEngine(cache, types, refresh=refresh)


# ---------------------------------------------------------------------
# shapes of the values in the JSON state files

# Each check runs on every record of every read-only command, so it walks
# the value with ``map`` rather than a generator; JSON gives exact types.


def _is_str(value) -> bool:
    return type(value) is str


def _is_str_or_none(value) -> bool:
    return value is None or type(value) is str


def _is_str_list(value) -> bool:
    return type(value) is list and set(map(type, value)) <= {str}


def _is_str_pair(value) -> bool:
    return _is_str_list(value) and len(value) == 2


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

def _write_config_record(area: ProjectArea, arch: Architecture,
                         resolved: ResolvedConfiguration) -> None:
    payload = {
        "identity": list(resolved.config_identity),
        "tools": [
            {"name": pin.name, "version": pin.version, "spec_url": pin.spec_url,
             "spec_base": pin.spec_base}
            for pin in resolved.tools.values()
        ],
    }
    atomic_write(area.config_record_path(arch),
                 json.dumps(payload, indent=1) + "\n")


def load_config_record(area: ProjectArea, arch: Architecture) -> ResolvedConfiguration:
    """The central installation's resolved configuration; an installation
    never bootstrapped for this architecture reads as empty."""
    path = ProjectArea(area.central_root()).config_record_path(arch)
    if not os.path.exists(path):
        return ResolvedConfiguration(arch, {})
    what = "configuration record"
    payload = read_json(path, what)
    tools = {}
    for t in _field(payload, "tools", _is_object_list, what, path):
        name = _field(t, "name", _is_str, what, path)
        tools[name] = PinnedTool(
            name, _field(t, "version", _is_str, what, path),
            _field(t, "spec_url", _is_str, what, path),
            _field(t, "spec_base", _is_str_or_none, what, path, default=None))
    identity = tuple(_field(payload, "identity", _is_str_pair, what, path,
                            default=["", ""]))
    return ResolvedConfiguration(arch, tools, identity)  # order preserved by json


# ---------------------------------------------------------------------
# tool records

def _tools_dir(area_root: str, arch: Architecture) -> str:
    return os.path.join(area_root, ADMIN_DIR, arch.canonical, TOOLS_DIR)


def write_tool_record(area: ProjectArea, arch: Architecture,
                      rt: ResolvedTool) -> str:
    path = os.path.join(_tools_dir(area.root, arch), rt.name.casefold())
    payload = {
        "name": rt.name,
        "version": rt.version,
        "bindings": rt.bindings,
        "runtime": rt.runtime_entries,
        "libs": rt.lib_names,
        "provenance": rt.provenance,
        "descriptions": rt.descriptions,
        "externals": rt.externals,
    }
    atomic_write(path, json.dumps(payload, indent=1) + "\n")
    return path


def _load_record(path: str) -> ResolvedTool:
    what = "tool record"
    payload = read_json(path, what)
    return ResolvedTool(
        name=_field(payload, "name", _is_str, what, path),
        version=_field(payload, "version", _is_str, what, path),
        bindings=_field(payload, "bindings", _is_str_map, what, path),
        runtime_entries=list(map(tuple, _field(payload, "runtime", _is_str_pairs,
                                                what, path))),
        lib_names=_field(payload, "libs", _is_str_list, what, path),
        provenance=_field(payload, "provenance", _is_str_map, what, path),
        descriptions=_field(payload, "descriptions", _is_str_map, what, path, {}),
        externals=list(map(tuple, _field(payload, "externals", _is_str_pairs,
                                         what, path, []))),
    )


def _record_index(area: ProjectArea,
                  arch: Architecture) -> dict[str, tuple[str, str]]:
    """The area's active tool records: casefolded name -> (record path,
    ``"central"`` or ``"local"``). The central root's records are listed
    first, then the area's own, each in sorted order; a local record
    replaces the inherited one in its position. In a central area both
    listings are the same directory, so every record is local."""
    index: dict[str, tuple[str, str]] = {}
    for root, source in ((area.central_root(), "central"), (area.root, "local")):
        directory = _tools_dir(root, arch)
        try:
            entries = sorted(os.listdir(directory))
        except (FileNotFoundError, NotADirectoryError):
            continue
        for entry in entries:
            # dot-names are temp files of an interrupted write
            if not entry.startswith("."):
                index[entry] = (os.path.join(directory, entry), source)
    return index


def _tool_rows(area: ProjectArea, arch: Architecture,
               ) -> list[tuple[str, PinnedTool | None, str | None]]:
    """Every tool of the area as (name, pin, active record path): the
    configured tools in configuration order, with None for a missing
    record, then the unconfigured ones in index order, with None for the
    pin."""
    resolved = load_config_record(area, arch)
    index = _record_index(area, arch)
    rows = []
    for pin in resolved.tools.values():
        entry = index.pop(pin.name.casefold(), None)
        rows.append((pin.name, pin, entry[0] if entry else None))
    rows.extend((name, None, path) for name, (path, _) in index.items())
    return rows


# ---------------------------------------------------------------------
# spec loading and resolution

def _load_requirements(engine: DocumentEngine, url: ResourceUrl):
    typed = engine.activate(url)
    payload = typed.payload
    if isinstance(payload, RequirementsDoc):
        return typed, payload
    if isinstance(payload, ConfigurationDoc):
        selects = [SelectEntry(e.name, e.arch_scope) for e in payload.entries]
        return typed, RequirementsDoc(base=payload.base, includes=[],
                                      selects=selects)
    raise AreaError(
        f"{url} is a '{typed.header.doc_type}' document; expected "
        f"{REQUIREMENTS_TYPE} or {CONFIG_TYPE}"
    )


def resolve_project_configuration(engine: DocumentEngine, url: ResourceUrl,
                                  arch: Architecture) -> ResolvedConfiguration:
    """Activate a requirements document, load its configurations, and bind
    the architecture's selection."""
    from .configuration import resolve_selection

    typed, req = _load_requirements(engine, url)
    req_base = parse_url(req.base, base=typed.source) if req.base else None

    def rebased(config, source, fallback):
        # activated payloads are memoized and shared; rebase on a copy
        own = parse_url(config.base, base=source) if config.base else None
        effective = own or fallback
        return ConfigurationDoc(entries=list(config.entries),
                                base=effective.unparse() if effective else None)

    if isinstance(typed.payload, RequirementsDoc):
        configs = []
        for raw in req.includes:
            inc_url = parse_url(raw, base=req_base or typed.source)
            inc_typed = engine.activate(inc_url)
            configs.append(rebased(inc_typed.payload, inc_typed.source, req_base))
    else:
        configs = [rebased(typed.payload, typed.source, None)]
    identity = (typed.source.unparse(), typed.version)
    return resolve_selection(req, configs, arch, identity=identity)


def _activate_spec(engine: DocumentEngine, pin: PinnedTool):
    base = parse_url(pin.spec_base) if pin.spec_base else None
    spec_url = parse_url(pin.spec_url, base=base)
    typed = engine.activate(spec_url)
    if typed.header.type_path() != ("BuildSystem", "ToolDoc"):
        raise ToolError(
            f"{spec_url} is a '{typed.header.doc_type}' document, "
            f"expected {TOOLDOC_TYPE}"
        )
    return typed.payload


def resolve_selected_tools(engine: DocumentEngine, area: ProjectArea,
                           arch: Architecture, pins: Iterable[PinnedTool],
                           site: SiteInfo, prompt=None) -> list[ResolvedTool]:
    """Resolve ``pins`` in dependency order and persist the records under
    the area's administrative directory.

    Every spec is activated before any record is written. A tool's
    externals come from the tools resolved earlier in this call, then from
    the area's active records; only the records they name are read.
    """
    named = {pin.name.casefold(): pin for pin in pins}
    blocks = {key: select_version(_activate_spec(engine, pin), pin.version)
              for key, pin in named.items()}
    order = order_by_externals(blocks)
    index = _record_index(area, arch)
    prober = LibraryProber(site.library_roots())
    done: dict[str, ResolvedTool] = {}
    out = []
    for key in order:
        for ext in blocks[key].externals:
            ref = ext.folded_ref
            if ref not in done and ref in index:
                done[ref] = _load_record(index[ref][0])
        rt = resolve_tool(blocks[key], tool_name=named[key].name, site=site,
                          prober=prober, prompt=prompt, already_resolved=done)
        done[key] = rt
        write_tool_record(area, arch, rt)
        out.append(rt)
    return out


# ---------------------------------------------------------------------
# lifecycle commands

def bootstrap_install(bootstrap_url: str, dest_root: str,
                      site: SiteInfo | None = None, prompt=None, env=None,
                      arch: Architecture | None = None, refresh: bool = False,
                      ) -> tuple[ProjectArea, InstallationRecord]:
    """Assemble a central installation from a bootstrap document.

    The area is created unregistered and stays in the ``incomplete`` state
    until a successful build (or a forced install) marks it complete.
    """
    env = os.environ if env is None else env
    arch = arch or detect_architecture(env=env)
    site = site if site is not None else SiteInfo.locate(env, dest_root)
    engine = build_engine(site=site, env=env, install_root=dest_root,
                          refresh=refresh)
    typed = engine.activate(parse_url(bootstrap_url))
    boot: BootStrapDoc = typed.payload
    if not isinstance(boot, BootStrapDoc):
        raise AreaError(f"{bootstrap_url} is not a {BOOTSTRAP_TYPE} document")

    root = os.path.join(os.path.abspath(dest_root),
                        f"{boot.project}_{boot.version}")
    area = ProjectArea.create(root, boot.project, boot.version)
    for raw_url, dest in boot.downloads:
        content, _ = engine.cache.fetch(parse_url(raw_url, base=typed.source))
        atomic_write(os.path.join(area.root, dest), content)

    if boot.config_url is not None:
        config_url = parse_url(boot.config_url, base=typed.source)
        resolved = resolve_project_configuration(engine, config_url, arch)
        _write_config_record(area, arch, resolved)
        atomic_write(os.path.join(area.root, "config", REQUIREMENTS_ID_FILE),
                     f"{resolved.config_identity[0]} "
                     f"{resolved.config_identity[1]}\n")
        resolve_selected_tools(engine, area, arch, resolved.tools.values(),
                               site, prompt)

    record = InstallationRecord(boot.project, boot.version, arch.canonical,
                                area.root)
    return area, record


def register_install(area: ProjectArea, registry: Registry,
                     arch: Architecture | None = None,
                     force: bool = False) -> InstallationRecord:
    arch = arch or detect_architecture()
    if area.kind != "central":
        raise AreaError("only central installations can be registered; "
                        "this is a developer area")
    if area.state() != STATE_COMPLETE:
        if not force:
            raise AreaError(
                "installation is not marked complete (run a successful "
                "'scram build' first, or pass --force)"
            )
        area.set_state(STATE_COMPLETE)
    project, version = area.identity()
    record = InstallationRecord(project, version, arch.canonical, area.root)
    registry.add(record)
    return record


LIST_HEADER = "| Project  | Version  |  Location  |"
LIST_RULE = "-" * 36
TOOL_LIST_RULE = "+" * 50


def list_installs(registry: Registry, project_filter: str | None,
                  arch: Architecture) -> str:
    lines = ["Listing installed projects....", "", LIST_RULE, LIST_HEADER,
             LIST_RULE]
    for record in registry.records():
        if record.arch != arch.canonical:
            continue
        if project_filter is not None and record.project != project_filter:
            continue
        lines.append(f"{record.project} {record.version} --> {record.location}")
    lines.append(f"Projects available for platform >> {arch.canonical} <<")
    return "\n".join(lines) + "\n"


def create_dev_area(project: str, version: str, registry: Registry, cwd: str,
                    arch: Architecture | None = None) -> ProjectArea:
    """Developer area linked to a registered central installation; only the
    configuration identity and administrative metadata are local."""
    arch = arch or detect_architecture()
    record = registry.find(project, version, arch.canonical)
    if record is None:
        available = [r.version for r in registry.records()
                     if r.project == project and r.arch == arch.canonical]
        hint = (f" (available versions: {', '.join(available)})" if available
                else " (no versions registered; see 'scram list')")
        raise AreaError(f"no registered installation of {project} {version} "
                        f"for {arch}{hint}")
    if not os.path.isdir(os.path.join(record.location, ADMIN_DIR)):
        raise AreaError(
            f"registered location {record.location} is gone or is not an "
            f"installation area"
        )
    root = os.path.join(os.path.abspath(cwd), f"{project}_{version}")
    area = ProjectArea.create(root, project, version,
                              link_target=record.location)
    source = os.path.join(record.location, "config", REQUIREMENTS_ID_FILE)
    if os.path.exists(source):
        with open(source, "rb") as fh:
            atomic_write(os.path.join(area.root, "config", REQUIREMENTS_ID_FILE),
                         fh.read())
    return area


def tool_list(area: ProjectArea, arch: Architecture) -> str:
    """The area's tools in configuration order: active version next to the
    configuration default, then local additions."""
    lines = [f"Tool list for location {area.central_root()}", TOOL_LIST_RULE]
    for name, pin, path in _tool_rows(area, arch):
        version = _load_record(path).version if path else pin.version
        lines.append(_tool_row(name, version, pin.version if pin else "none"))
    return "\n".join(lines) + "\n"


def _tool_row(name: str, version: str, default: str) -> str:
    return f" {name:<21}{version:<11}(default={default})"


def setup_tool(area: ProjectArea, name: str | None = None,
               version: str | None = None, url: str | None = None,
               site: SiteInfo | None = None, prompt=None, env=None,
               arch: Architecture | None = None, refresh: bool = False) -> list[str]:
    """(Re)resolve tools into the area's own records.

    With a URL: set up exactly that product/version, overriding locally.
    With a name: re-resolve that tool from the inherited configuration.
    With nothing: make sure every configured tool has a valid record,
    resolving only the ones whose record is missing or has another version,
    in dependency order.

    Returns the names written.
    """
    env = os.environ if env is None else env
    arch = arch or detect_architecture(env=env)
    central = area.central_root()
    site = site if site is not None else SiteInfo.locate(env, central)
    engine = build_engine(site=site, env=env, install_root=central,
                          refresh=refresh)

    if url is not None:
        if name is None or version is None:
            raise AreaError("setup with a URL needs both a name and a version")
        pins = [PinnedTool(name, version, url)]
    elif name is not None:
        resolved = load_config_record(area, arch)
        pin = resolved.get(name)
        if pin is None:
            known = ", ".join(resolved.tools) or "(none)"
            raise ToolError(
                f"'{name}' is not in the configuration (known tools: {known}); "
                f"pass a specification URL to add it"
            )
        pins = [pin]
    else:
        pins = [pin for _, pin, path in _tool_rows(area, arch)
                if pin is not None and
                (path is None or _load_record(path).version != pin.version)]
    return [rt.name for rt in
            resolve_selected_tools(engine, area, arch, pins, site, prompt)]


def tool_info(area: ProjectArea, name: str, arch: Architecture) -> str:
    index = _record_index(area, arch)
    entry = index.get(name.casefold())
    if entry is None:
        known = ", ".join(index) or "(none)"
        raise ToolError(f"unknown tool '{name}' (known tools: {known})")
    path, source = entry
    rt = _load_record(path)
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


def _tools_in_runtime_order(area: ProjectArea,
                            arch: Architecture) -> list[ResolvedTool]:
    rows = _tool_rows(area, arch)
    missing = [name for name, _, path in rows if path is None]
    if missing:
        raise AreaError(
            "tools without resolved records: " + ", ".join(missing) +
            " (run 'scram setup')"
        )
    return [_load_record(path) for _, _, path in rows]


def compute_runtime_env(area: ProjectArea, arch: Architecture) -> EnvDelta:
    """Runtime delta of an area: every active tool's contribution in
    configuration order, then the area-level path entries."""
    delta = EnvDelta(area_id=area.area_id)
    for record in _tools_in_runtime_order(area, arch):
        delta.extend(runtime_contribution(record))
    _area_level_prepends(area, delta)
    return delta


def build_environment(area: ProjectArea, arch: Architecture) -> EnvDelta:
    """Build-time delta: every binding of every active tool, plus the
    runtime path entries."""
    delta = EnvDelta(area_id=area.area_id)
    for record in _tools_in_runtime_order(area, arch):
        delta.extend(build_contribution(record))
    _area_level_prepends(area, delta)
    return delta


def run_build(area: ProjectArea, args: list[str], site: SiteInfo | None = None,
              env=None, arch: Architecture | None = None) -> int:
    """Pass-through build: run the operator-configured command inside tmp/
    with the area's build environment; a zero exit marks the area complete."""
    env = os.environ if env is None else env
    arch = arch or detect_architecture(env=env)
    site = site if site is not None else SiteInfo.locate(env, area.central_root())
    template = site.get("build.command")
    if not template:
        raise AreaError(
            "no build command configured (site key build.command)"
        )
    # imported here: only the build verb runs a command
    import shlex
    import subprocess

    from .runtime import apply_delta

    build_env = apply_delta(env, build_environment(area, arch))
    argv = shlex.split(template) + list(args)
    try:
        proc = subprocess.run(argv, cwd=os.path.join(area.root, "tmp"),
                              env=build_env)
    except FileNotFoundError as exc:
        raise AreaError(f"build command not found: {exc}") from exc
    if proc.returncode == 0:
        area.set_state(STATE_COMPLETE)
    return proc.returncode
