"""Output checks computed from the corpus ground truth, never from scram.

``evaluate_sh`` is an independent evaluator for the Bourne-shell text that
``scram runtime -sh`` prints: it applies the ``NAME="value"; export NAME;``
and ``unset NAME;`` statements to a prior environment. Expected path
variables follow the documented rule: each prepend goes in front of the
current value unless it already is the head entry, tools in configuration
order, then the central and developer ``bin``/``lib`` directories, then an
app-env overlay.

Every ``check_*`` function returns an error message, or ``None``.
"""

from __future__ import annotations

import json
import os
import re

from corpus import ARCH, Corpus

SHADOW_PREFIX = "SCRAMRT_"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_STATEMENT = re.compile(
    rf'unset ({_NAME});\n|({_NAME})="((?:[^"\\]|\\.)*)"; export \2;\n', re.S)
_ESCAPE = re.compile(r'\\(.)', re.S)


def _unescape(text: str) -> str:
    # inside double quotes a backslash only escapes \ " $ and `
    return _ESCAPE.sub(
        lambda m: m.group(1) if m.group(1) in '\\"$`' else m.group(0), text)


def evaluate_sh(text: str, prior: dict[str, str]) -> dict[str, str]:
    env = dict(prior)
    pos = 0
    while pos < len(text):
        m = _STATEMENT.match(text, pos)
        if m is None:
            raise ValueError(f"unparseable sh at offset {pos}: {text[pos:pos + 60]!r}")
        if m.group(1):
            env.pop(m.group(1), None)
        else:
            env[m.group(2)] = _unescape(m.group(3))
        pos = m.end()
    return env


def prepend_all(current: str | None, values: list[str]) -> str | None:
    for value in values:
        if not current:
            current = value
        elif current.split(":", 1)[0] != value:
            current = value + ":" + current
    return current


def expected_runtime(corpus: Corpus, root: str, base: dict[str, str],
                     versions: dict[int, str], area_dirs: list[str],
                     app: list[tuple[str, str, bool]] | None = None) -> dict:
    """Expected value (``None`` for unset) of every variable the emission
    may touch. ``area_dirs`` are area roots with content, central first."""
    prepends = corpus.runtime_prepends(root, versions)
    path = [v for n, v in prepends if n == "PATH"]
    lib = [v for n, v in prepends if n == "LD_LIBRARY_PATH"]
    path += [os.path.join(d, "bin") for d in area_dirs]
    lib += [os.path.join(d, "lib") for d in area_dirs]
    out = {}
    if app:
        path += [value for name, value, is_path in app if is_path]
        out.update({name: value for name, value, is_path in app if not is_path})
    out["PATH"] = prepend_all(base.get("PATH"), path)
    out["LD_LIBRARY_PATH"] = prepend_all(base.get("LD_LIBRARY_PATH"), lib)
    return out


def mismatch(name: str, want: str | None, got: str | None) -> str:
    """Where two values first differ, with some context."""
    if want is None or got is None:
        return f"{name}: expected {want!r:.60}, got {got!r:.60}"
    k = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
             min(len(want), len(got)))
    return (f"{name} differs at character {k}: expected ...{want[max(0, k - 20):k + 40]!r}, "
            f"got ...{got[max(0, k - 20):k + 40]!r}")


def check_runtime(stdout: bytes, prior: dict, base: dict, expected: dict,
                  previous: dict | None):
    """Returns ``(new_env, error)``; ``new_env`` is ``None`` only when the
    text does not parse. Besides the expected values, nothing may be left
    behind but rollback variables, and the result must equal ``previous``
    (the same area's last result) exactly."""
    try:
        env = evaluate_sh(stdout.decode(), prior)
    except (ValueError, UnicodeDecodeError) as exc:
        return None, str(exc)
    for name, value in expected.items():
        if env.get(name) != value:
            return env, mismatch(name, value, env.get(name))
    for name in env.keys() | base.keys():
        if name in expected or name.startswith(SHADOW_PREFIX):
            continue
        if env.get(name) != base.get(name):
            return env, f"residue in {name}: {env.get(name)!r:.80}"
    if previous is not None and env != previous:
        diff = sorted(k for k in env.keys() | previous.keys()
                      if env.get(k) != previous.get(k))
        return env, f"switching back differs from the last visit in {diff[:5]}"
    return env, None


def check_tool_list(stdout: bytes, corpus: Corpus, central: str,
                    versions: dict[int, str]) -> str | None:
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != f"Tool list for location {central}":
        return f"bad tool list header {lines[:1]!r}"
    rows = [line.split() for line in lines[2:]]
    want = [[corpus.tools[i].key, versions.get(i, corpus.tools[i].pinned),
             f"(default={corpus.tools[i].pinned})"] for i in corpus.select_order]
    if rows != want:
        bad = next(k for k in range(max(len(rows), len(want)))
                   if k >= len(rows) or k >= len(want) or rows[k] != want[k])
        got = rows[bad] if bad < len(rows) else None
        return f"tool list row {bad}: got {got}, expected {want[bad] if bad < len(want) else None}"
    return None


_BINDING = re.compile(r"^  (\S+?)=(.*)  \[([^\]]*)\]$")


def check_tool_info(stdout: bytes, corpus: Corpus, root: str, index: int,
                    version: str, record: str) -> str | None:
    tool = corpus.tools[index]
    lines = stdout.decode().splitlines()
    head = [f"Tool: {tool.key}", f"Version: {version}", f"Record: {record}",
            f"Libraries: {tool.key}"]
    if lines[:4] != head:
        return f"tool info header {lines[:4]} != {head}"
    externals, bindings, section = [], {}, None
    for line in lines[4:]:
        if not line.startswith("  "):
            section = line
        elif section == "Externals:":
            externals.append(line.split())
        elif section == "Environment:":
            m = _BINDING.match(line)
            if m is None:
                return f"unparseable binding {line!r}"
            bindings[m.group(1)] = (m.group(2), m.group(3))
    want_ext = [[corpus.tools[j].name, corpus.tools[j].pinned] for j in tool.deps]
    if externals != want_ext:
        return f"externals {externals} != {want_ext}"
    want = corpus.bindings(root, tool, version)
    if bindings != want:
        bad = sorted(k for k in want.keys() | bindings.keys()
                     if want.get(k) != bindings.get(k))
        return f"bindings differ in {bad[:5]}"
    return None


def check_records(area: str, corpus: Corpus) -> str | None:
    """The records ``bootstrap`` writes: one per selected tool, at the
    pinned version."""
    directory = os.path.join(area, ".SCRAM", ARCH, "tools")
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        return f"no tool records: {exc}"
    want = {t.key: t.pinned for t in corpus.tools}
    if names != sorted(want):
        return f"{len(names)} tool records, expected {len(want)}"
    for name in names:
        with open(os.path.join(directory, name)) as fh:
            record = json.load(fh)
        if (record.get("name"), record.get("version")) != (name, want[name]):
            return f"record {name} has {record.get('name')} {record.get('version')}"
    return None


def check_build_env(stdout: bytes, corpus: Corpus, root: str,
                    base: dict[str, str]) -> str | None:
    """``build.command`` is ``env``: its output is the build environment."""
    env = dict(line.split("=", 1) for line in stdout.decode().splitlines()
               if "=" in line)
    want = expected_runtime(corpus, root, base, {}, [])
    for tool in corpus.tools:
        for name, (value, _) in corpus.bindings(root, tool, tool.pinned).items():
            if name not in want:
                want[name] = value
    for name, value in want.items():
        if env.get(name) != value:
            return mismatch(f"build env {name}", value, env.get(name))
    return None


def check_contains(stdout: bytes, *needles: str) -> str | None:
    text = stdout.decode(errors="replace")
    for needle in needles:
        if needle not in text:
            return f"output lacks {needle!r}: {text[:120]!r}"
    return None
