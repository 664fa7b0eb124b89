"""The benchmark's tracer wraps scram functions by name, so renaming or
deleting one of them breaks every traced benchmark run. This guard loads
``perfbench/tracing.py`` by path, installs its tracer and uninstalls it
again, so such a change fails here first. A wrapper that the program no
longer calls fails here too: the toy project runs every benchmarked verb
under the tracer."""

import importlib.util
import sys
from pathlib import Path

from conftest import make_toy_project
from scram.activedoc import DocumentEngine
from scram.cli import main

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


def test_every_wrapped_function_is_called_by_the_toy_lifecycle(tmp_path, capsys):
    """A wrapper that the program never calls reads 0 in every traced
    benchmark run. Run the toy project through every verb the benchmark
    runs, with its library directory left to the prober and an app-env
    overlay, and check that each wrapped name recorded a span."""
    toy = make_toy_project(tmp_path)
    libroot = tmp_path / "libroot"
    (libroot / "boost").mkdir(parents=True)
    (libroot / "boost" / "libboost_thread.so").write_text("")
    site = toy.site_path.read_text().replace("tool.boost.LIBDIR = /opt/boost/lib\n", "")
    toy.site_path.write_text(site + f"search.libroots = {libroot}\n")
    central, developer = toy.central_root, toy.workspace / "ORCA_7_1_3"

    def scram(cwd, *argv):
        assert main(list(argv), env=toy.env, cwd=str(cwd)) == 0, capsys.readouterr().err

    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        scram(tmp_path, "bootstrap", toy.bootstrap_url, "--dest", str(toy.install_root))
        scram(central, "build")
        scram(central, "install")
        scram(toy.workspace, "project", "ORCA", "7_1_3")
        (developer / "config" / "app-env").mkdir(parents=True)
        (developer / "config" / "app-env" / "viewer").write_text(
            "<doc type=BuildSystem::AppEnvDoc version=1.0>\n"
            "<Environment name=VIEWER_HOME value=/opt/viewer>\n")
        scram(developer, "setup", "htl", "1.5", f"file:{toy.specs}/htl.tooldoc")
        scram(developer, "runtime", "-sh")
        scram(developer, "runtime", "-sh", "--app", "viewer")
        scram(developer, "tool", "list")
        scram(developer, "tool", "info", "boost")
    finally:
        tracer.uninstall()
    assert f"{libroot}/boost" in capsys.readouterr().out
    called = {span[tracing.NAME] for span in tracer.spans}
    wanted = [attr for _, attr, _ in tracing.WRAPPED] + ["ArgumentParser.parse_args"]
    assert [attr for attr in wanted if attr not in called] == []


def test_store_hit_ratio_is_the_share_of_activations_served_a_kept_payload(
        tmp_path, capsys, monkeypatch):
    """A warm bootstrap is served the configuration's and the four tool
    documents' kept payloads, and parses the bootstrap document and the
    requirements, which keep none: 5 of its 7 activations are recalled."""
    toy = make_toy_project(tmp_path)
    recalled = []
    real_recall = DocumentEngine._recall

    def recall(self, kept, doc_type):
        payload = real_recall(self, kept, doc_type)
        recalled.append(payload is not None)
        return payload

    monkeypatch.setattr(DocumentEngine, "_recall", recall)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for dest in ("cold", "warm"):
            first = len(tracer.spans)
            recalled.clear()
            assert main(["bootstrap", toy.bootstrap_url, "--dest", str(tmp_path / dest)],
                        env=toy.env, cwd=str(tmp_path)) == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, first)
    activations = metrics["activedoc.activate_calls"]
    assert metrics["activedoc.store_hit_ratio"] == sum(recalled) / activations
    parses = [span for span in tracer.spans[first:]
              if span[tracing.NAME] == "DocumentEngine._activate_uncached"]
    assert (sum(recalled), len(parses), activations) == (5, 2, 7)
