"""Runtime environment deltas, shell emission, and rollback bookkeeping.

A delta is an ordered set of plain assignments and path prepends. Emission
produces shell-evaluable text (sh or csh) that first rolls back whatever a
previous emission did, then applies the delta, then records enough state in
the environment itself to let the *next* emission roll this one back:

    SCRAMRT_<NAME>  the value NAME had before (NAME existed)
    SCRAMRT_UNSET   colon-joined names that did not exist before
    SCRAMRT_SET     identity of the area that owns the current settings

The process cannot mutate its parent shell, so the environment is the only
state a later invocation can see; everything needed for an exact restore
travels in these shadow variables. Delta names are therefore confined to
ordinary identifiers outside the SCRAMRT_ namespace (SET and UNSET are
reserved too).

Values are computed host-side against the rolled-back environment and
emitted as literal assignments, so the generated text has no shell logic in
it and quoting is the only correctness concern. csh cannot carry newlines
inside a quoted word; sh can.
"""

from __future__ import annotations

import os
import re

from .errors import AreaError, MarkupError, ScramError
from .fsutil import check_name, read_text
from .markup import (
    DocType,
    check_doc_type,
    parse_with_handlers,
    read_doc_header,
    strip_doc_header,
    tokenize_markup,
)

SHADOW_PREFIX = "SCRAMRT_"
SHADOW_OWNER = "SCRAMRT_SET"
SHADOW_UNSET = "SCRAMRT_UNSET"
PATH_SEP = ":"

EXEC_PATH_VAR = "PATH"
LIB_PATH_VAR = "LD_LIBRARY_PATH"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED = ("SET", "UNSET")

DIALECTS = ("sh", "csh")


class EnvEmitError(ScramError):
    pass


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise EnvEmitError(f"bad environment variable name {name!r}")
    if name.startswith(SHADOW_PREFIX) or name in _RESERVED:
        raise EnvEmitError(
            f"variable name {name!r} is reserved for rollback bookkeeping"
        )
    return name


class EnvDelta:
    """Ordered environment changes contributed by an area and its tools.

    A delta accumulates in place: ``set``, ``prepend`` and ``extend`` append
    to its lists, and a name -> kind map rejects a name that is both a
    setting and a prepend without scanning either list.
    """

    __slots__ = ("sets", "prepends", "area_id", "_kinds")

    def __init__(self, area_id: str = ""):
        self.sets: list[tuple[str, str]] = []
        self.prepends: list[tuple[str, str]] = []
        self.area_id = area_id
        self._kinds: dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        held = self._kinds.setdefault(name, kind)
        if held != kind:
            raise EnvEmitError(f"{name!r} is already a {held} in this delta")

    def set(self, name: str, value: str) -> "EnvDelta":
        _check_name(name)
        self._claim(name, "setting")
        self.sets.append((name, value))
        return self

    def prepend(self, name: str, value: str) -> "EnvDelta":
        _check_name(name)
        self._claim(name, "prepend")
        self.prepends.append((name, value))
        return self

    def extend(self, other: "EnvDelta") -> "EnvDelta":
        """Append ``other``'s entries in place; its prepends land ahead.
        Its names were checked when they entered ``other``."""
        for name, _ in other.sets:
            self._claim(name, "setting")
        for name, _ in other.prepends:
            self._claim(name, "prepend")
        self.sets += other.sets
        self.prepends += other.prepends
        self.area_id = self.area_id or other.area_id
        return self

    def names(self) -> list[str]:
        return list(dict.fromkeys(name for name, _ in self.sets + self.prepends))

    def merge(self, overlay: "EnvDelta") -> "EnvDelta":
        """A new delta: this one followed by ``overlay``; overlay prepends
        land ahead."""
        return EnvDelta().extend(self).extend(overlay)


def apply_delta(env, delta: EnvDelta) -> dict[str, str]:
    """Apply a delta to an environment map.

    Prepends push the value onto the front of a path list, except when it
    already is the head entry, which makes re-application idempotent.
    """
    out = dict(env)
    for name, value in delta.sets:
        out[name] = value
    for name, value in delta.prepends:
        current = out.get(name, "")
        if not current:
            out[name] = value
        elif current.split(PATH_SEP, 1)[0] != value:
            out[name] = value + PATH_SEP + current
    return out


def rollback_actions(env) -> tuple[dict[str, str], list[tuple[str, str, str]]]:
    """Undo whatever a previous emission recorded in ``env``.

    Returns the restored map plus the ordered (op, name, value) actions
    that transform ``env`` into it.
    """
    restored = dict(env)
    actions: list[tuple[str, str, str]] = []
    shadow_keys = sorted(k for k in env if k.startswith(SHADOW_PREFIX))
    if not shadow_keys:
        return restored, actions
    for key in shadow_keys:
        if key in (SHADOW_OWNER, SHADOW_UNSET):
            continue
        target = key[len(SHADOW_PREFIX):]
        if not target:
            continue
        actions.append(("set", target, env[key]))
        restored[target] = env[key]
    for name in env.get(SHADOW_UNSET, "").split(PATH_SEP):
        if name:
            actions.append(("unset", name, ""))
            restored.pop(name, None)
    for key in shadow_keys:
        actions.append(("unset", key, ""))
        restored.pop(key, None)
    return restored, actions


def emit_shell(delta: EnvDelta, prior_env, dialect: str) -> str:
    """Shell text that rolls back prior state, applies ``delta`` and records
    the new rollback state. Pure in (delta, prior_env, dialect)."""
    if dialect not in DIALECTS:
        raise EnvEmitError(f"unsupported shell dialect '{dialect}' (want sh or csh)")
    restored, actions = rollback_actions(prior_env)
    applied = apply_delta(restored, delta)
    touched = delta.names()
    for name in touched:
        actions.append(("set", name, applied[name]))
    if touched:
        actions.append(("set", SHADOW_OWNER, delta.area_id))
        absent: list[str] = []
        for name in touched:
            if name in restored:
                actions.append(("set", SHADOW_PREFIX + name, restored[name]))
            else:
                absent.append(name)
        if absent:
            actions.append(("set", SHADOW_UNSET, PATH_SEP.join(absent)))
    render = _render_sh if dialect == "sh" else _render_csh
    return "".join(render(op, name, value) for op, name, value in actions)


_SH_ESCAPES = str.maketrans({ch: "\\" + ch for ch in '\\"$`'})


def _quote_sh(value: str) -> str:
    return value.translate(_SH_ESCAPES)


def _render_sh(op: str, name: str, value: str) -> str:
    if op == "unset":
        return f"unset {name};\n"
    return f'{name}="{_quote_sh(value)}"; export {name};\n'


def _quote_csh(value: str) -> str:
    if "\n" in value or "\0" in value:
        raise EnvEmitError(
            "csh cannot carry newlines in environment values; use -sh"
        )
    return value.replace("'", "'\\''")


def _render_csh(op: str, name: str, value: str) -> str:
    if op == "unset":
        return f"unsetenv {name};\n"
    return f"setenv {name} '{_quote_csh(value)}';\n"


APP_ENV_DIR = "app-env"


def parse_app_env(events) -> EnvDelta:
    """Read the body of a ``BuildSystem::AppEnvDoc``: flat
    ``<Environment name= value= [type=Runtime_path]>`` entries."""
    delta = EnvDelta()

    def on_environment(_, ev):
        name = ev.require("name")
        value = ev.get("value")
        if value is None:
            raise AreaError(
                f"application environment entry '{name}' has no value"
            )
        kind = (ev.get("type") or "").casefold()
        if kind == "runtime_path":
            delta.prepend(name, value)
        elif kind in ("", "plain"):
            delta.set(name, value)
        else:
            raise AreaError(
                f"application environment entry '{name}' has unknown type "
                f"'{ev.get('type')}'"
            )

    parse_with_handlers(events, None, open={"environment": on_environment})
    return delta


# any document version is read
APP_ENV = DocType("BuildSystem::AppEnvDoc", "0", parse_app_env)


def load_app_env_file(area_root: str, app_name: str) -> EnvDelta:
    """Read ``config/app-env/<app_name>`` under an area as an overlay delta;
    ``app_name`` must name a file of that directory."""
    path = os.path.join(area_root, "config", APP_ENV_DIR,
                        check_name(app_name, "application name"))
    text = read_text(path, "application environment file", missing=None)
    if text is None:
        raise AreaError(
            f"no application environment file for '{app_name}' "
            f"(expected {path})"
        )
    events = tokenize_markup(text, source_id=path)
    if not events:
        raise MarkupError(f"application environment file {path} has no <doc> header")
    header = read_doc_header(events)
    check_doc_type(header, (APP_ENV,), header.location)
    return parse_app_env(strip_doc_header(events))
