"""Configurations, project requirements, and architecture-scoped selection.

A configuration pins (tool, version, spec URL) triples, optionally grouped
under ``<Architecture name=...>`` blocks. A requirements document names a
configuration (``<base>`` + ``<include>``) and selects tools from it by
name only; versions always come from the configuration, which is what
keeps a multi-project setup consistent. Selection picks, for each selected
name, the require entry with the most specific architecture scope that
matches the running architecture.
"""

from __future__ import annotations

import re

from .errors import ConfigError
from .markup import HandlerMap, parse_with_handlers

ARCH_ENV = "SCRAM_ARCH"

_CANONICAL_RE = re.compile(r"^[A-Za-z0-9]+__[0-9.]+$")


class Architecture:
    __slots__ = ("os", "release")

    def __init__(self, os: str, release: str):
        self.os = os
        self.release = release

    @property
    def canonical(self) -> str:
        return f"{self.os}__{self.release}"

    def __str__(self) -> str:
        return self.canonical


def detect_architecture(override: str | None = None,
                        env: dict[str, str] | None = None) -> Architecture:
    """Current architecture, from an override, ``$SCRAM_ARCH``, or the OS."""
    if override is None and env is not None:
        override = env.get(ARCH_ENV) or None
    if override is not None:
        if not _CANONICAL_RE.match(override):
            raise ConfigError(
                f"bad architecture {override!r} (want <os>__<release>, "
                f"like Linux__2.4)"
            )
        os_name, _, release = override.partition("__")
        return Architecture(os_name, release)
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
    return Architecture(os_name, release)


def match_architecture(scope: str, arch: Architecture) -> bool:
    """Scope prefixes match at component boundaries: SunOS__5 covers
    SunOS__5.8 but not SunOS__51; an empty scope covers everything."""
    if not scope:
        return True
    canonical = arch.canonical
    if scope == canonical:
        return True
    return canonical.startswith(scope) and canonical[len(scope)] == "."


class RequireEntry:
    __slots__ = ("name", "version", "url", "arch_scope")

    def __init__(self, name: str, version: str, url: str, arch_scope: str = ""):
        self.name = name
        self.version = version
        self.url = url
        self.arch_scope = arch_scope

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.version, self.url, self.arch_scope)
                == (other.name, other.version, other.url, other.arch_scope))

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
    """Shared Architecture-scope tracking for both document kinds."""

    def __init__(self):
        self.scope = ""
        self.used = False  # set once any entry is recorded; bases must precede

    def enter_scope(self, _state, ev):
        self.scope = ev.require("name")

    def leave_scope(self, _state, ev):
        self.scope = ""


def parse_configuration(events) -> ConfigurationDoc:
    doc = ConfigurationDoc()
    state = _ScopedParser()
    seen: set[tuple[str, str]] = set()

    def on_require(_, ev):
        entry = RequireEntry(
            name=ev.require("name"),
            version=ev.require("version"),
            url=ev.require("url"),
            arch_scope=state.scope,
        )
        key = (entry.folded_name, entry.arch_scope)
        if key in seen:
            raise ConfigError(
                f"duplicate require for '{entry.name}' in scope "
                f"'{entry.arch_scope or '(all)'}'"
            )
        seen.add(key)
        state.used = True
        doc.entries.append(entry)

    def on_base(_, ev):
        if state.used:
            raise ConfigError("<base> must precede every <require>")
        doc.base = ev.require("url")

    handlers = HandlerMap()
    handlers.add("config", "Architecture", open=state.enter_scope, close=state.leave_scope)
    handlers.add("config", "require", open=on_require)
    handlers.add("config", "base", open=on_base)
    parse_with_handlers(events, handlers, None)
    return doc


def parse_requirements(events) -> RequirementsDoc:
    doc = RequirementsDoc()
    state = _ScopedParser()
    seen: set[tuple[str, str]] = set()

    def on_select(_, ev):
        entry = SelectEntry(ev.require("name"), state.scope)
        key = (entry.folded_name, entry.arch_scope)
        if key in seen:
            return  # duplicate selects collapse
        seen.add(key)
        state.used = True
        doc.selects.append(entry)

    def on_include(_, ev):
        state.used = True
        doc.includes.append(ev.require("url"))

    def on_base(_, ev):
        if state.used:
            raise ConfigError("<base> must precede every <include> and <select>")
        doc.base = ev.require("url")

    handlers = HandlerMap()
    handlers.add("req", "Architecture", open=state.enter_scope, close=state.leave_scope)
    handlers.add("req", "select", open=on_select)
    handlers.add("req", "include", open=on_include)
    handlers.add("req", "base", open=on_base)
    parse_with_handlers(events, handlers, None)
    return doc


class PinnedTool:
    __slots__ = ("name", "version", "spec_url", "spec_base")

    def __init__(self, name: str, version: str, spec_url: str,
                 spec_base: str | None = None):
        self.name = name
        self.version = version
        self.spec_url = spec_url
        # effective base of the configuration that pinned this tool;
        # spec_url resolves against it at fetch time
        self.spec_base = spec_base

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.version, self.spec_url, self.spec_base)
                == (other.name, other.version, other.spec_url, other.spec_base))


class ResolvedConfiguration:
    __slots__ = ("arch", "tools", "config_identity", "base")

    def __init__(self, arch: Architecture, tools: dict[str, PinnedTool],
                 config_identity: tuple[str, str] = ("", ""),
                 base: str | None = None):
        self.arch = arch
        self.tools = tools  # insertion-ordered by select order
        self.config_identity = config_identity
        self.base = base

    def names(self) -> list[str]:
        return list(self.tools)

    def get(self, name: str) -> PinnedTool | None:
        return self.tools.get(name.casefold())


def resolve_selection(req: RequirementsDoc, configs: list[ConfigurationDoc],
                      arch: Architecture,
                      identity: tuple[str, str] = ("", "")) -> ResolvedConfiguration:
    """Bind every architecture-matching select to its pinned require entry.

    The most specific matching scope wins; equally specific candidates are
    an error, not a pick. Selects scoped to other architectures are skipped
    silently. Pure in (req, configs, arch).
    """
    # every architecture-matching entry by folded name, in configuration
    # and entry order
    by_name: dict[str, list[tuple[RequireEntry, str | None]]] = {}
    for config in configs:
        for e in config.entries:
            if match_architecture(e.arch_scope, arch):
                by_name.setdefault(e.folded_name, []).append((e, config.base))
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
        best_len = max(len(e.arch_scope) for e, _ in candidates)
        best = [(e, base) for e, base in candidates if len(e.arch_scope) == best_len]
        if len(best) > 1:
            raise ConfigError(
                f"'{select.name}' matches several equally specific "
                f"configuration entries under {arch}"
            )
        chosen, chosen_base = best[0]
        tools[select.folded_name] = PinnedTool(
            select.folded_name, chosen.version, chosen.url, chosen_base
        )
    return ResolvedConfiguration(arch, tools, identity, req.base)
