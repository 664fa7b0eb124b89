"""The benchmark's tracer wraps scram functions by name, so renaming or
deleting one of them breaks every traced benchmark run. This guard loads
``perfbench/tracing.py`` by path, installs its tracer and uninstalls it
again, so such a change fails here first."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(module_name, attr):
    """The function now bound to ``attr``, unwrapped from a classmethod."""
    owner = sys.modules[module_name]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return getattr(owner, "__func__", owner)


def test_tracer_wraps_every_named_function_and_restores_it():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        originals = {(m, a): current(m, a).__wrapped__ for m, a, _ in tracing.WRAPPED}
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert current(module_name, attr) is original, f"{module_name}.{attr}"
