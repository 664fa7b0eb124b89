"""scram benchmark: per-verb latency end to end, and per-layer numbers from
a traced in-process run.

    python3 perfbench/run.py --workload switch-400 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it puts ``src/`` on ``PYTHONPATH`` (scram
need not be installed) and keeps every file it makes under
``.perfbench_work/``, removed on exit. One client runs one ``scram`` command
at a time (a closed loop, no threads). The last line of standard output is
the result object; the line before it holds the details (sample counts per
metric, corpus digests, machine, failures).

Each workload repeats a cycle of blocks of commands until ``--seconds``
have passed, stopping at a cycle boundary. A cycle alternates switch
blocks, which replay a developer moving between a developer area A and its
central area B, with install blocks, which assemble and publish a fresh
installation. The workload's name gives the number of tools of its heavy
block; its other block runs on a 4-tool corpus shaped like the test suite's
toy project, so every workload reports every verb and the light block is
the in-run control for a change aimed at the heavy one.
See perfbench/README.md for the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import corpus as corpusmod  # noqa: E402
from corpus import APP_NAME, ARCH, AREA_NAME, PROJECT, PROJECT_VERSION  # noqa: E402
from procs import Result, run_child, run_inprocess  # noqa: E402

DEFAULT_SEED = 1          # held-out seed for checking a claim: 90210
SETUP_REPEATS = 3         # at least; more while SETUP_MIN_S has not passed
SETUP_MIN_S = 3.0
OP_TIMEOUT_S = 60.0
STARTUP_REPS = 5
PUBLISHES = 2             # install, project, setup rounds per install block


@dataclass(frozen=True)
class Workload:
    switch_tools: int
    install_tools: int
    pairs: int              # (switch block, install block) pairs per cycle


WORKLOADS = {
    "switch-400": Workload(400, 4, 5),
    "install-400": Workload(4, 400, 2),
}

END_TO_END = {
    "runtime_sh_ms": "ms", "runtime_app_ms": "ms",
    "tool_list_ms": "ms", "tool_info_ms": "ms", "bootstrap_cold_ms": "ms",
    "bootstrap_warm_ms": "ms", "build_ms": "ms", "install_ms": "ms",
    "project_ms": "ms", "setup_tool_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


@dataclass
class Switch:
    """Developer area A linked to central area B, both from one corpus."""

    corpus: corpusmod.Corpus
    croot: str
    base: dict                     # the user's environment before any scram
    central: str = ""
    developer: str = ""
    expected: dict = field(default_factory=dict)


@dataclass
class SwitchState:
    env_a: dict | None = None      # last result of runtime -sh in A
    env_b: dict | None = None      # last result of runtime -sh in B


class Bench:
    def __init__(self, checkout: str, workload: str, seed: int):
        self.checkout = checkout
        self.src = os.path.join(checkout, "src")
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.python = sys.executable
        self.work = os.path.join(checkout, ".perfbench_work",
                                 f"{workload}-{seed}-{os.getpid()}")
        self.rng = random.Random(f"cycle:{seed}")
        self.failures: list[str] = []
        self.attempted = 0
        self.digests: dict[int, list[str]] = {}
        self.retired = 0

    # ---- environment -------------------------------------------------
    def base_env(self, root: str) -> dict:
        """A minimal, fully specified environment; every scram path points
        under ``root``."""
        return {
            "PATH": "/usr/local/bin:/usr/bin:/bin",
            "HOME": os.path.join(self.work, "home"),
            "TMPDIR": os.path.join(self.work, "tmp"),
            "LANG": "C.UTF-8",
            "PYTHONPATH": self.src,
            "SCRAM_ARCH": ARCH,
            "SCRAM_CACHE": os.path.join(root, "cache"),
            "SCRAM_LOOKUPDB": os.path.join(root, "scramdb"),
        }

    def fail(self, what: str, message: str) -> None:
        self.failures.append(f"{what}: {message}")

    @staticmethod
    def settle(root: str) -> None:
        """Write the tree's dirty pages now. The kernel would otherwise write
        them back during the commands measured next, and its time there
        varies by tens of percent from run to run."""
        for dirpath, _, files in os.walk(root):
            for name in [*files, "."]:
                fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    def retire(self, path: str) -> None:
        """Move a used tree aside; everything is deleted only when the run
        ends, because deleting thousands of files slows the file system
        calls of the commands measured next."""
        if os.path.exists(path):
            self.retired += 1
            os.rename(path, os.path.join(self.work, "retired", str(self.retired)))

    # ---- set-up ------------------------------------------------------
    def write_corpus(self, n: int, root: str) -> tuple[corpusmod.Corpus, str]:
        corpus = corpusmod.generate(self.seed, n)
        self.digests.setdefault(n, []).append(corpus.digest)
        croot = os.path.join(root, f"corpus{n}")
        corpus.write(croot)
        return corpus, croot

    def setup_switch(self, corpus, croot: str, root: str) -> Switch:
        env = self.base_env(root)
        env["SCRAM_SITE"] = os.path.join(croot, "site.cfg")
        fx = Switch(corpus, croot, env)

        def scram(*argv, cwd):
            res = run_inprocess(list(argv), env, cwd)
            if res.code != 0:
                raise SetupError(f"scram {' '.join(argv)}: {res.stderr.strip()}")

        for sub in ("central", "work"):
            os.makedirs(os.path.join(root, sub))
        scram("bootstrap", corpus.bootstrap_url(croot), "--dest",
              os.path.join(root, "central"), cwd=root)
        fx.central = os.path.join(root, "central", AREA_NAME)
        scram("install", "--force", cwd=fx.central)
        scram("project", PROJECT, PROJECT_VERSION, cwd=os.path.join(root, "work"))
        fx.developer = os.path.join(root, "work", AREA_NAME)
        for i, version in sorted(corpus.overrides.items()):
            tool = corpus.tools[i]
            scram("setup", tool.name, version, corpus.tool_url(croot, tool),
                  cwd=fx.developer)
        for kind, area in (("central", fx.central), ("developer", fx.developer)):
            app_dir = os.path.join(area, "config", "app-env")
            os.makedirs(app_dir)
            shutil.copy(os.path.join(croot, "app-env", kind),
                        os.path.join(app_dir, APP_NAME))
            for sub, name in (("bin", f"bench-{kind}"), ("lib", f"libbench{kind}.so")):
                with open(os.path.join(area, sub, name), "w") as fh:
                    fh.write(f"{kind}\n")

        central_only = [fx.central]
        both = [fx.central, fx.developer]
        fx.expected = {
            "B": checker.expected_runtime(corpus, croot, env, {}, central_only),
            "A": checker.expected_runtime(corpus, croot, env, corpus.overrides, both),
            "A+app": checker.expected_runtime(corpus, croot, env, corpus.overrides,
                                              both, corpus.app_env["developer"]),
            "B+app": checker.expected_runtime(corpus, croot, env, {}, central_only,
                                              corpus.app_env["central"]),
        }
        return fx

    def setup(self) -> tuple[float, Switch, SwitchState, tuple]:
        """Corpora, switch fixture and an in-process warm-up of both runtime
        paths (which also writes the .pyc files on a first run); returns its
        time."""
        root = os.path.join(self.work, "setup")
        self.retire(root)
        start = time.perf_counter()
        os.makedirs(root)
        wl = self.workload
        corpus, croot = self.write_corpus(wl.switch_tools, root)
        install = ((corpus, croot) if wl.install_tools == wl.switch_tools
                   else self.write_corpus(wl.install_tools, root))
        fx = self.setup_switch(corpus, croot, root)
        state = SwitchState()

        def warm(metric, argv, cwd, env):
            return self.checked(metric, argv, run_inprocess(argv, env, cwd))

        state.env_b = self.runtime(fx, "B", fx.base, warm, previous=None)
        state.env_a = self.runtime(fx, "A", state.env_b, warm, previous=None)
        if state.env_a is None or state.env_b is None:
            raise SetupError("warm-up runtime failed: " + "; ".join(self.failures))
        return time.perf_counter() - start, fx, state, install

    # ---- executors ---------------------------------------------------
    def child_executor(self, samples: dict, outputs=None):
        def execute(metric: str, argv: list[str], cwd: str, env: dict) -> Result:
            res = run_child([self.python, "-m", "scram.cli", *argv], env, cwd,
                            OP_TIMEOUT_S)
            self.attempted += 1
            samples.setdefault(metric, []).append(res.seconds)
            samples.setdefault("_cpu " + metric, []).append(res.cpu_seconds)
            samples.setdefault("_rss_kb", []).append(res.maxrss_kb)
            if outputs is not None:
                outputs.append((metric, res.stdout))
            return self.checked(metric, argv, res)
        return execute

    def inprocess_executor(self, timings: list, outputs: list, tracer=None):
        def execute(metric: str, argv: list[str], cwd: str, env: dict) -> Result:
            self.attempted += 1
            if tracer is not None:
                tracer.op += 1
            res = run_inprocess(argv, env, cwd)
            timings.append(res.seconds)
            outputs.append((metric, res.stdout))
            return self.checked(metric, argv, res)
        return execute

    def checked(self, metric: str, argv: list[str], res: Result) -> Result:
        if res.code != 0:
            self.fail(metric, f"scram {' '.join(argv)} exited {res.code}: "
                              f"{res.stderr.strip()[-300:]}")
        return res

    # ---- blocks ------------------------------------------------------
    def runtime(self, fx: Switch, area: str, prior: dict, execute, previous,
                app: bool = False):
        root = fx.developer if area.startswith("A") else fx.central
        argv = ["runtime", "-sh"] + (["--app", APP_NAME] if app else [])
        metric = "runtime_app_ms" if app else "runtime_sh_ms"
        res = execute(metric, argv, root, prior)
        if res.code != 0:
            return None
        env, error = checker.check_runtime(res.stdout, prior, fx.base,
                                           fx.expected[area], previous)
        if error:
            self.fail(metric, f"{area}: {error}")
        return env

    def switch_block(self, fx: Switch, state: SwitchState, info_tool: int, execute):
        """A <- B, B+app <- A, A <- B+app, B <- A, A+app <- B, B <- A+app,
        then tool list and tool info in both areas. Switching back must
        restore an area's last environment exactly, overlay included."""
        env_a = self.runtime(fx, "A", state.env_b, execute, state.env_a) or state.env_a
        with_app = self.runtime(fx, "B+app", env_a, execute, None, app=True)
        if with_app is not None:
            self.runtime(fx, "A", with_app, execute, env_a)
        env_b = self.runtime(fx, "B", env_a, execute, state.env_b) or state.env_b
        with_app = self.runtime(fx, "A+app", env_b, execute, None, app=True)
        if with_app is not None:
            self.runtime(fx, "B", with_app, execute, env_b)
        state.env_a, state.env_b = env_a, env_b

        corpus, overrides = fx.corpus, fx.corpus.overrides
        tool = corpus.tools[info_tool]
        # a central area's own records are local to it
        record = "local" if info_tool in overrides else "central"
        for root, versions, source in ((fx.developer, overrides, record),
                                       (fx.central, {}, "local")):
            res = execute("tool_list_ms", ["tool", "list"], root, fx.base)
            self.verify("tool_list_ms", res, lambda: checker.check_tool_list(
                res.stdout, corpus, fx.central, versions))
            res = execute("tool_info_ms", ["tool", "info", tool.name], root, fx.base)
            self.verify("tool_info_ms", res, lambda: checker.check_tool_info(
                res.stdout, corpus, fx.croot, info_tool,
                versions.get(info_tool, tool.pinned), source))

    def verify(self, metric: str, res: Result, check) -> None:
        if res.code == 0:
            error = check()
            if error:
                self.fail(metric, error)

    def install_block(self, install: tuple, root: str, picks: list[tuple[int, str]],
                      execute):
        """A fresh dest, cache and registries: a cold-cache bootstrap, a
        warm-cache bootstrap into a second dest and a build of the first;
        then, once per pick, the first area is installed into a fresh
        registry, a developer area is made from it with project, and setup
        NAME VER URL overrides a tool there."""
        corpus, croot = install
        env = self.base_env(root)
        env["SCRAM_SITE"] = os.path.join(croot, "site.cfg")
        url = corpus.bootstrap_url(croot)
        for metric, dest in (("bootstrap_cold_ms", "cold"), ("bootstrap_warm_ms", "warm")):
            dest = os.path.join(root, dest)
            os.makedirs(dest)
            area = os.path.join(dest, AREA_NAME)
            res = execute(metric, ["bootstrap", url, "--dest", dest], root, env)
            self.verify(metric, res, lambda: checker.check_contains(res.stdout, area)
                        or checker.check_records(area, corpus))
            self.settle(root)
        central = os.path.join(root, "cold", AREA_NAME)
        res = execute("build_ms", ["build"], central, env)
        self.verify("build_ms", res,
                    lambda: checker.check_build_env(res.stdout, corpus, croot, env))
        for k, (index, version) in enumerate(picks):
            publish = dict(env, SCRAM_LOOKUPDB=os.path.join(root, f"scramdb{k}"))
            res = execute("install_ms", ["install"], central, publish)
            self.verify("install_ms", res,
                        lambda: checker.check_contains(res.stdout, f"at {central}"))
            work = os.path.join(root, f"work{k}")
            os.makedirs(work)
            developer = os.path.join(work, AREA_NAME)
            res = execute("project_ms", ["project", PROJECT, PROJECT_VERSION], work, publish)
            self.verify("project_ms", res,
                        lambda: checker.check_contains(res.stdout, developer))
            tool = corpus.tools[index]
            res = execute("setup_tool_ms",
                          ["setup", tool.name, version, corpus.tool_url(croot, tool)],
                          developer, publish)
            self.verify("setup_tool_ms", res,
                        lambda: checker.check_contains(res.stdout, f"set up {tool.key}"))

    def cycle_plan(self, fx: Switch, install: tuple, pairs: int) -> list[tuple]:
        """The blocks of one cycle with their seeded choices."""
        plan = []
        for _ in range(pairs):
            plan.append(("switch", self.rng.randrange(fx.corpus.n_tools)))
            picks = []
            for _ in range(PUBLISHES):
                index = self.rng.randrange(install[0].n_tools)
                tool = install[0].tools[index]
                picks.append((index, self.rng.choice([v for v in tool.versions
                                                      if v != tool.pinned])))
            plan.append(("install", picks))
        return plan

    def run_block(self, block, fx, state, install, execute):
        kind, arg = block
        if kind == "switch":
            self.switch_block(fx, state, arg, execute)
            return
        root = os.path.join(self.work, "install")
        self.retire(root)
        os.makedirs(root)
        self.install_block(install, root, arg, execute)

    # ---- runs --------------------------------------------------------
    def prepare(self):
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            seconds, fx, state, install = self.setup()
            setups.append(seconds)
        for n, digests in self.digests.items():
            if len(set(digests)) != 1:
                self.fail("corpus", f"{n}-tool corpus differs between generations")
        self.settle(self.work)
        return setups, fx, state, install

    def measure(self, seconds: float) -> tuple[dict, dict]:
        setups, fx, state, install = self.prepare()
        samples: dict[str, list[float]] = {}
        execute = self.child_executor(samples)
        start = time.perf_counter()
        cycles = 0
        while True:
            for block in self.cycle_plan(fx, install, self.workload.pairs):
                self.run_block(block, fx, state, install, execute)
            cycles += 1
            if time.perf_counter() - start >= seconds:
                break

        metrics = {m: 1000 * statistics.median(samples[m]) for m in END_TO_END
                   if m in samples}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = max(samples["_rss_kb"]) / 1024
        details = {
            "cycles": cycles,
            "measured_s": round(time.perf_counter() - start, 3),
            "samples": {m: len(v) for m, v in sorted(samples.items())
                        if not m.startswith("_")},
            # user+system time of the same children: it moves with the
            # program but not with time the machine spends elsewhere
            "cpu_ms": {m[5:]: round(1000 * statistics.median(v), 3)
                       for m, v in sorted(samples.items()) if m.startswith("_cpu ")},
            "setup_samples_s": [round(s, 4) for s in setups],
        }
        return metrics, details

    def trace(self, seconds: float) -> tuple[dict, dict]:
        """Each block runs three times from the same state: as child
        processes, in process untraced, and in process traced. The traced
        outputs must equal the child outputs byte for byte."""
        from tracing import Tracer, WRAPPED, layer_metrics, self_times, startup_metrics

        _, fx, state, install = self.prepare()
        tracer = Tracer()
        per_cycle: list[dict] = []
        start = time.perf_counter()
        while True:
            first_span = len(tracer.spans)
            plain_s, traced_s = [], []
            for block in self.cycle_plan(fx, install, 1):
                passes = []
                for mode in ("child", "plain", "traced"):
                    outputs: list = []
                    pass_state = SwitchState(state.env_a, state.env_b)
                    if mode == "child":
                        execute = self.child_executor({}, outputs)
                    else:
                        timings = plain_s if mode == "plain" else traced_s
                        execute = self.inprocess_executor(
                            timings, outputs, tracer if mode == "traced" else None)
                    if mode == "traced":
                        tracer.install()
                    try:
                        self.run_block(block, fx, pass_state, install, execute)
                    finally:
                        tracer.uninstall()
                    passes.append((outputs, pass_state))
                (child_out, child_state), _, (traced_out, _) = passes
                for (metric, expected), (_, got) in zip(child_out, traced_out):
                    if expected != got:
                        self.fail(metric, "traced in-process stdout differs from "
                                          "the child process's")
                if len(child_out) != len(traced_out):
                    self.fail(block[0], "traced pass ran a different number of ops")
                state.env_a, state.env_b = child_state.env_a, child_state.env_b
            metrics = layer_metrics(tracer.spans, first_span)
            metrics["trace.overhead_ms"] = 1000 * (sum(traced_s) - sum(plain_s))
            metrics["trace.inprocess_ms"] = 1000 * sum(plain_s)
            per_cycle.append(metrics)
            if time.perf_counter() - start >= seconds:
                break

        metrics = {k: statistics.median(c[k] for c in per_cycle) for k in per_cycle[0]}
        metrics.update(startup_metrics(self.python, fx.base, self.checkout, STARTUP_REPS))
        called = {span[0] for span in tracer.spans}
        wanted = [attr for _, attr, _ in WRAPPED] + ["ArgumentParser.parse_args"]
        for attr in wanted:
            if attr not in called:
                self.fail("trace", f"wrapper {attr} recorded no call")
        details = {
            "cycles": len(per_cycle),
            "spans": len(tracer.spans),
            "self_ms_per_cycle": {k: round(v / len(per_cycle), 3)
                                  for k, v in sorted(self_times(tracer.spans).items())},
        }
        return metrics, details


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model or platform.processor(),
            "python": platform.python_version(), "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)  # run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "scram", "cli.py")):
        print("perfbench: run from a checkout of scram (no src/scram/cli.py here)",
              file=sys.stderr)
        return 2
    bench = Bench(checkout, args.workload, args.seed)
    sys.path.insert(0, bench.src)
    for sub in ("tmp", "home", "retired"):
        os.makedirs(os.path.join(bench.work, sub))
    tempfile.tempdir = os.path.join(bench.work, "tmp")
    try:
        if args.trace:
            metrics, details = bench.trace(args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, details = bench.measure(args.seconds)
            units = END_TO_END
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass

    failed = len(bench.failures)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_failed_frac": failed / max(bench.attempted, 1),
        "failures": bench.failures[:20],
        "corpus_digest": {str(n): d[0] for n, d in sorted(bench.digests.items())},
        "machine": machine(),
    })
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: no samples for {missing}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


PER_LAYER_UNITS = {
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.import_fetch_only_ms": "ms",
    "cli.parse_args_ms": "ms",
    "runtime.merge_ms": "ms", "runtime.merge_calls": "count", "runtime.emit_ms": "ms",
    "runtime.emit_bytes": "bytes", "runtime.app_env_ms": "ms",
    "project.central_root_calls": "count", "project.record_reads": "count",
    "project.record_read_ms": "ms", "project.config_record_ms": "ms",
    "project.record_writes": "count", "project.record_write_ms": "ms",
    "project.registry_ms": "ms",
    "markup.tokenize_ms": "ms", "markup.tokenize_mb_s": "MB/s", "markup.events": "count",
    "markup.splice_ms": "ms", "markup.dispatch_ms": "ms",
    "urlaccess.fetch_calls": "count", "urlaccess.fetch_ms": "ms",
    "urlaccess.hit_ratio": "ratio", "urlaccess.adapter_calls": "count",
    "urlaccess.adapter_ms": "ms",
    "activedoc.activate_calls": "count", "activedoc.parses": "count",
    "activedoc.store_hit_ratio": "ratio", "activedoc.activate_self_ms": "ms",
    "configuration.parse_ms": "ms", "configuration.resolve_selection_ms": "ms",
    "tooldoc.parse_ms": "ms", "tooldoc.resolve_ms": "ms", "tooldoc.probe_calls": "count",
    "tooldoc.probe_ms": "ms", "tooldoc.order_ms": "ms",
    "sitefile.load_ms": "ms",
    "trace.overhead_ms": "ms", "trace.inprocess_ms": "ms",
}


if __name__ == "__main__":
    sys.exit(main())
