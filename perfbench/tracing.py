"""Spans around scram's layer boundaries, recorded from outside the program.

``Tracer.install`` wraps the functions in ``WRAPPED`` in their defining
module and in every ``scram`` module that imported them by name, and
wraps the listed methods on their classes. Only functions called at most a
few times per document or per tool are wrapped, so the wrappers' own cost
stays small next to the work they time. Spans stay in memory: name,
start, end, parent, op id and one optional number (input size or output
length). ``build_parser`` also wraps the ``parse_args`` of the parser it
returns.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time

# (module, attribute or Class.method, what the span's number records)
WRAPPED = [
    ("scram.cli", "build_parser", "parser"),
    ("scram.runtime", "EnvDelta.merge", None),
    ("scram.runtime", "emit_shell", "out_len"),
    ("scram.runtime", "load_app_env_file", None),
    ("scram.project", "ProjectArea.central_root", None),
    ("scram.project", "_load_record", None),
    ("scram.project", "load_config_record", None),
    ("scram.project", "_write_config_record", None),
    ("scram.project", "write_tool_record", None),
    ("scram.project", "Registry.records", None),
    ("scram.project", "Registry.add", None),
    ("scram.markup", "tokenize_markup", "in_len"),
    ("scram.markup", "splice_inline", None),
    ("scram.markup", "parse_with_handlers", None),
    ("scram.urlaccess", "UrlCache.fetch", None),
    ("scram.urlaccess", "SchemeRegistry.retrieve", None),
    ("scram.activedoc", "DocumentEngine.activate", None),
    ("scram.activedoc", "DocumentEngine._activate_uncached", None),
    ("scram.activedoc", "DocumentEngine.events_for", None),
    ("scram.configuration", "parse_configuration", None),
    ("scram.configuration", "parse_requirements", None),
    ("scram.configuration", "resolve_selection", None),
    ("scram.tooldoc", "parse_tool_doc", None),
    ("scram.tooldoc", "resolve_tool", None),
    ("scram.tooldoc", "LibraryProber.find_library_dir", None),
    ("scram.tooldoc", "order_by_externals", None),
    ("scram.sitefile", "SiteInfo.load", None),
]

NAME, START, END, PARENT, OP, NUM, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, record):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, 0]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if record == "parser":
                result.parse_args = self._wrap("ArgumentParser.parse_args",
                                               result.parse_args, None)
            elif record == "in_len":
                span[NUM], span[EXTRA] = len(args[0]), len(result)
            elif record == "out_len":
                span[NUM] = len(result.encode())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import scram.cli  # noqa: F401  loads every scram module

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "scram" or n.startswith("scram.")]
        for module_name, attr, record in WRAPPED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(attr, raw.__func__, record))
                else:
                    wrapped = self._wrap(attr, raw, record)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(attr, original, record)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer numbers for the spans from index ``first`` on (one cycle
    of ops).

    ``*_ms`` is inclusive time of the named functions' outermost spans;
    ``activate_self_ms`` is the activedoc functions' self time: duration
    minus what their child spans cover.
    """
    children: dict[int, list[int]] = {}
    for i in range(first, len(spans)):
        children.setdefault(spans[i][PARENT], []).append(i)

    def ancestors_in(i: int, names: set[str]) -> bool:
        parent = spans[i][PARENT]
        while parent != -1:
            if spans[parent][NAME] in names:
                return True
            parent = spans[parent][PARENT]
        return False

    def picked(*names: str) -> list[int]:
        return [i for i in range(first, len(spans)) if spans[i][NAME] in names]

    def total_ms(*names: str) -> float:
        group = set(names)
        return 1000 * sum(spans[i][END] - spans[i][START] for i in picked(*names)
                          if not ancestors_in(i, group))

    own = self_times(spans, first)

    def self_ms(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    def count(*names: str) -> int:
        return len(picked(*names))

    def has_child(i: int, name: str) -> bool:
        return any(spans[c][NAME] == name for c in children.get(i, ()))

    tokenize = picked("tokenize_markup")
    tokenize_ms = total_ms("tokenize_markup")
    chars = sum(spans[i][NUM] for i in tokenize)
    fetches = picked("UrlCache.fetch")
    activations = picked("DocumentEngine.activate")
    return {
        "cli.parse_args_ms": total_ms("build_parser", "ArgumentParser.parse_args"),
        "runtime.merge_ms": total_ms("EnvDelta.merge"),
        "runtime.merge_calls": count("EnvDelta.merge"),
        "runtime.emit_ms": total_ms("emit_shell"),
        "runtime.emit_bytes": sum(spans[i][NUM] for i in picked("emit_shell")),
        "runtime.app_env_ms": total_ms("load_app_env_file"),
        "project.central_root_calls": count("ProjectArea.central_root"),
        "project.record_reads": count("_load_record"),
        "project.record_read_ms": total_ms("_load_record"),
        "project.config_record_ms": total_ms("load_config_record", "_write_config_record"),
        "project.record_writes": count("write_tool_record", "_write_config_record"),
        "project.record_write_ms": total_ms("write_tool_record", "_write_config_record"),
        "project.registry_ms": total_ms("Registry.records", "Registry.add"),
        "markup.tokenize_ms": tokenize_ms,
        "markup.tokenize_mb_s": chars / 1e6 / (tokenize_ms / 1000) if tokenize_ms else 0.0,
        "markup.events": sum(spans[i][EXTRA] for i in tokenize),
        "markup.splice_ms": self_ms("splice_inline"),
        "markup.dispatch_ms": total_ms("parse_with_handlers"),
        "urlaccess.fetch_calls": len(fetches),
        "urlaccess.fetch_ms": total_ms("UrlCache.fetch"),
        "urlaccess.hit_ratio": (sum(not has_child(i, "SchemeRegistry.retrieve")
                                    for i in fetches) / len(fetches)) if fetches else 0.0,
        "urlaccess.adapter_calls": count("SchemeRegistry.retrieve"),
        "urlaccess.adapter_ms": total_ms("SchemeRegistry.retrieve"),
        "activedoc.activate_calls": len(activations),
        "activedoc.parses": count("DocumentEngine.events_for"),
        "activedoc.store_hit_ratio": (sum(not has_child(i, "DocumentEngine._activate_uncached")
                                          for i in activations) / len(activations))
        if activations else 0.0,
        "activedoc.activate_self_ms": self_ms("DocumentEngine.activate",
                                              "DocumentEngine._activate_uncached",
                                              "DocumentEngine.events_for"),
        "configuration.parse_ms": total_ms("parse_configuration", "parse_requirements"),
        "configuration.resolve_selection_ms": total_ms("resolve_selection"),
        "tooldoc.parse_ms": total_ms("parse_tool_doc"),
        "tooldoc.resolve_ms": total_ms("resolve_tool"),
        "tooldoc.probe_calls": count("LibraryProber.find_library_dir"),
        "tooldoc.probe_ms": total_ms("LibraryProber.find_library_dir"),
        "tooldoc.order_ms": total_ms("order_by_externals"),
        "sitefile.load_ms": total_ms("SiteInfo.load"),
    }


def self_times(spans: list[list], first: int = 0) -> dict[str, float]:
    """Self time in ms per span name over the spans from index ``first`` on:
    each span's duration minus what its child spans cover."""
    covered: dict[int, float] = {}
    for span in spans[first:]:
        if span[PARENT] != -1:
            covered[span[PARENT]] = covered.get(span[PARENT], 0.0) + span[END] - span[START]
    out: dict[str, float] = {}
    for i in range(first, len(spans)):
        span = spans[i]
        own = span[END] - span[START] - covered.get(i, 0.0)
        out[span[NAME]] = out.get(span[NAME], 0.0) + 1000 * own
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")
FETCH_ONLY = ("urllib.request", "http.client", "subprocess", "tempfile", "hashlib")


def fetch_only_import_us(importtime_stderr: str) -> int:
    """Cumulative ``-X importtime`` microseconds of ``FETCH_ONLY`` modules,
    each counted once: a listed module nested inside another listed one is
    already part of that one's cumulative time. Lines come in post-order,
    indented by depth."""
    pending: list[tuple[int, list[int]]] = []   # (depth, uncovered cumulatives)
    for line in importtime_stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m is None:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        below: list[int] = []
        while pending and pending[-1][0] > depth:
            below.extend(pending.pop()[1])
        pending.append((depth, [cumulative] if name in FETCH_ONLY else below))
    return sum(sum(values) for _, values in pending)


def startup_metrics(python: str, env: dict, cwd: str, reps: int) -> dict[str, float]:
    """Interpreter start, ``import scram.cli`` on top of it, and the
    fetch-only imports, each as fresh child processes; medians of ``reps``."""
    def wall(argv):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=60)
        return 1000 * (time.perf_counter() - start)

    interp, imports, fetch_only = [], [], []
    for _ in range(reps):
        interp.append(wall([python, "-c", "pass"]))
        imports.append(wall([python, "-c", "import scram.cli"]))
        proc = subprocess.run([python, "-X", "importtime", "-c", "import scram.cli"],
                              env=env, cwd=cwd, check=True, capture_output=True,
                              text=True, timeout=60)
        fetch_only.append(fetch_only_import_us(proc.stderr) / 1000)
    interp_ms = statistics.median(interp)
    return {
        "cli.interp_ms": interp_ms,
        "cli.import_ms": statistics.median(imports) - interp_ms,
        "cli.import_fetch_only_ms": statistics.median(fetch_only),
    }
