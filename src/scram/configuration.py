"""Configurations, project requirements, and architecture-scoped selection.

A configuration pins (tool, version, spec URL) triples, optionally grouped
under ``<Architecture name=...>`` blocks. A requirements document names a
configuration (``<base>`` + ``<include>``) and selects tools from it by
name only; versions always come from the configuration, which is what
keeps a multi-project setup consistent. ``_ScopedParser`` reads both kinds.
An architecture is its canonical name, ``<os>__<release>``. Selection
picks, for each selected name, the require entry with the most specific
architecture scope that matches the running architecture; the resolved
configuration is a plain map from folded tool name to ``PinnedTool``, in
select order.
"""

from __future__ import annotations

import re

from .errors import ConfigError
from .markup import OPEN, DocType, PayloadCodec, Value, parse_with_handlers

ARCH_ENV = "SCRAM_ARCH"

_CANONICAL_RE = re.compile(r"^[A-Za-z0-9]+__[0-9.]+$")


def detect_architecture(override: str | None = None,
                        env: dict[str, str] | None = None) -> str:
    """The current architecture's canonical name ``<os>__<release>``, from
    an override, ``$SCRAM_ARCH``, or the OS."""
    if override is None and env is not None:
        override = env.get(ARCH_ENV) or None
    if override is not None:
        if not _CANONICAL_RE.match(override):
            raise ConfigError(
                f"bad architecture {override!r} (want <os>__<release>, "
                f"like Linux__2.4)"
            )
        return override
    # imported here: only host detection needs it, and $SCRAM_ARCH or
    # --arch usually spares it
    import platform

    os_name = re.sub(r"[^A-Za-z0-9]", "", platform.system()) or "Unknown"
    matched = re.match(r"(\d+)(?:\.(\d+))?", platform.release())
    if matched is None:
        release = "0"
    elif matched.group(2) is None:
        release = matched.group(1)
    else:
        release = f"{matched.group(1)}.{matched.group(2)}"
    return f"{os_name}__{release}"


def match_architecture(scope: str, arch: str) -> bool:
    """Scope prefixes match at component boundaries: SunOS__5 covers
    SunOS__5.8 but not SunOS__51; an empty scope covers everything."""
    if not scope or scope == arch:
        return True
    return arch.startswith(scope) and arch[len(scope)] == "."


class RequireEntry(Value):
    __slots__ = ("name", "version", "url", "arch_scope")

    def __init__(self, name: str, version: str, url: str, arch_scope: str = ""):
        self.name = name
        self.version = version
        self.url = url
        self.arch_scope = arch_scope

    @property
    def folded_name(self) -> str:
        return self.name.casefold()


class ConfigurationDoc:
    __slots__ = ("entries", "base")

    def __init__(self, entries: list[RequireEntry] | None = None,
                 base: str | None = None):
        self.entries = [] if entries is None else entries
        self.base = base


class SelectEntry:
    __slots__ = ("name", "arch_scope")

    def __init__(self, name: str, arch_scope: str = ""):
        self.name = name
        self.arch_scope = arch_scope

    @property
    def folded_name(self) -> str:
        return self.name.casefold()


class RequirementsDoc:
    __slots__ = ("base", "includes", "selects")

    def __init__(self, base: str | None = None,
                 includes: list[str] | None = None,
                 selects: list[SelectEntry] | None = None):
        self.base = base
        self.includes = [] if includes is None else includes
        self.selects = [] if selects is None else selects


class _ScopedParser:
    """Reads either document kind into ``doc``: each entry takes the scope
    of the ``<Architecture name=...>`` around it, a ``<base url=...>`` must
    precede every entry, and ``is_new`` holds once per (folded name, scope)."""

    def __init__(self, doc):
        self.doc = doc
        self.scope = ""
        self.used = False  # set once any entry is read; bases must precede
        self.seen: set[tuple[str, str]] = set()

    def is_new(self, entry) -> bool:
        key = (entry.folded_name, entry.arch_scope)
        new = key not in self.seen
        self.seen.add(key)
        return new

    def parse(self, events, **entries):
        """``doc``, read from ``events``; ``entries``: tag -> open handler."""

        def on_entry(_, ev):
            self.used = True
            entries[ev.folded_name](ev)

        def on_base(_, ev):
            if self.used:
                tags = " and ".join(f"<{tag}>" for tag in entries)
                raise ConfigError(f"<base> must precede every {tags}")
            self.doc.base = ev.require("url")

        def on_scope(_, ev):
            self.scope = ev.require("name") if ev.kind is OPEN else ""

        handlers = {"architecture": on_scope, "base": on_base}
        parse_with_handlers(events, None, close={"architecture": on_scope},
                            open={**handlers, **dict.fromkeys(entries, on_entry)})
        return self.doc


def parse_configuration(events) -> ConfigurationDoc:
    doc = ConfigurationDoc()
    parser = _ScopedParser(doc)

    def on_require(ev):
        entry = RequireEntry(ev.require("name"), ev.require("version"),
                             ev.require("url"), parser.scope)
        if not parser.is_new(entry):
            raise ConfigError(f"duplicate require for '{entry.name}' in scope "
                              f"'{entry.arch_scope or '(all)'}'")
        doc.entries.append(entry)

    return parser.parse(events, require=on_require)


def parse_requirements(events) -> RequirementsDoc:
    doc = RequirementsDoc()
    parser = _ScopedParser(doc)

    def on_select(ev):
        entry = SelectEntry(ev.require("name"), parser.scope)
        if parser.is_new(entry):  # duplicate selects collapse
            doc.selects.append(entry)

    return parser.parse(
        events, include=lambda ev: doc.includes.append(ev.require("url")),
        select=on_select)


def encode_configuration(doc: ConfigurationDoc) -> list:
    """``doc`` as the JSON value ``decode_configuration`` reads."""
    return [doc.base, [[e.name, e.version, e.url, e.arch_scope] for e in doc.entries]]


def decode_configuration(value) -> ConfigurationDoc:
    """The ConfigurationDoc that ``encode_configuration`` gave ``value`` for."""
    base, entries = value
    return ConfigurationDoc([RequireEntry(name, version, url, scope)
                             for name, version, url, scope in entries], base)


# The builders look their parsers up when they run, so whatever the module
# attributes are rebound to (the benchmark tracer's wrappers) is called.
CONFIGURATION = DocType("BuildSystem::Configuration", "1.0",
                        lambda events: parse_configuration(events),
                        codec=PayloadCodec("configuration-1", encode_configuration,
                                           decode_configuration))
REQUIREMENTS = DocType("BuildSystem::Requirements", "2.0",
                       lambda events: parse_requirements(events),
                       splice_includes=False)


class PinnedTool(Value):
    __slots__ = ("name", "version", "spec_url")

    def __init__(self, name: str, version: str, spec_url: str):
        self.name = name
        self.version = version
        self.spec_url = spec_url  # absolute: resolved when it was pinned


def resolve_selection(req: RequirementsDoc, configs: list[ConfigurationDoc],
                      arch: str) -> dict[str, PinnedTool]:
    """Bind every architecture-matching select to its pinned require entry:
    the resolved configuration, folded name -> pin, in select order.

    The most specific matching scope wins; equally specific candidates are
    an error, not a pick. Selects scoped to other architectures are skipped
    silently. Pure in (req, configs, arch).
    """
    # every architecture-matching entry by folded name, in configuration
    # and entry order
    by_name: dict[str, list[RequireEntry]] = {}
    for config in configs:
        for e in config.entries:
            if match_architecture(e.arch_scope, arch):
                by_name.setdefault(e.folded_name, []).append(e)
    tools: dict[str, PinnedTool] = {}
    for select in req.selects:
        if not match_architecture(select.arch_scope, arch):
            continue
        if select.folded_name in tools:
            continue
        candidates = by_name.get(select.folded_name)
        if not candidates:
            raise ConfigError(
                f"'{select.name}' is selected but no configuration entry "
                f"matches architecture {arch}"
            )
        best_len = max(len(e.arch_scope) for e in candidates)
        best = [e for e in candidates if len(e.arch_scope) == best_len]
        if len(best) > 1:
            raise ConfigError(
                f"'{select.name}' matches several equally specific "
                f"configuration entries under {arch}"
            )
        tools[select.folded_name] = PinnedTool(
            select.folded_name, best[0].version, best[0].url)
    return tools
