"""The benchmark's own checks, run on 4 tools in process: a change that
``perfbench/run.py`` would count as a failed or incorrect operation fails
here first. ``run.py`` is loaded by path; the modules it imports from
``perfbench/`` and the ``sys.path`` entry it adds for them are removed
again once it is loaded, so nothing of the benchmark stays in this process.
A workload of a 4-tool switch block and a 4-tool install block is
registered on the loaded module; its set-up and one cycle of its blocks
run with the in-process executor under the test's own directory."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_run():
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            del sys.modules[name]
    return module


def test_one_cycle_of_a_4_tool_workload_passes_the_benchmark_checks(tmp_path):
    run = load_run()
    assert str(PERFBENCH) not in sys.path
    assert not {"checker", "corpus", "procs", "perfbench_run"} & set(sys.modules)
    run.WORKLOADS["contract-4"] = run.Workload(4, 4, 1)
    bench = run.Bench(str(PERFBENCH.parent), "contract-4", run.DEFAULT_SEED)
    bench.work = str(tmp_path / "work")
    for sub in ("tmp", "home", "retired"):
        (tmp_path / "work" / sub).mkdir(parents=True)
    _, fx, state, install = bench.setup()
    outputs = []
    execute = bench.inprocess_executor([], outputs)
    plan = bench.cycle_plan(fx, install, bench.workload.pairs)
    assert [kind for kind, _ in plan] == ["switch", "install"]
    for block in plan:
        bench.run_block(block, fx, state, install, execute)
    assert bench.failures == []
    # every verb that the benchmark times ran and was checked
    assert {metric for metric, _ in outputs} == set(run.END_TO_END) - {
        "setup_s", "peak_rss_mb"}
