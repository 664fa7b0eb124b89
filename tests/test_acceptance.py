"""Acceptance criteria, one test per criterion, each timed at its budget.

The conftest hook prints one ``ACCEPTANCE Cn: PASS|FAIL`` line per
criterion; the terminal summary prints the full-suite wall time against the
60 s budget (criterion 8), which test_c8 also checks from inside for this
module's share.
"""

import os
import time

from hypothesis import given, settings, strategies as st

from scram.cli import main
from scram.configuration import (
    detect_architecture,
    parse_configuration,
    parse_requirements,
    resolve_selection,
)
from scram.markup import strip_doc_header, tokenize_markup
from scram.runtime import EnvDelta, emit_shell
from scram.tooldoc import VarType, parse_tool_doc
from scram.urlaccess import SchemeRegistry, UrlCache, parse_url

from conftest import FIXTURES, SESSION_START, make_toy_project
from shelloracle import evaluate_emission

LINUX = detect_architecture("Linux__2.4")
SUNOS = detect_architecture("SunOS__5.8")


class budget:
    """Assert a wall-clock budget around a criterion body."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion exceeded its {self.seconds}s budget: {elapsed:.2f}s")
        return False


def events_of(name):
    return tokenize_markup((FIXTURES / name).read_text(), source_id=name)


def test_c1_corpus_conformance():
    with budget(1.0):
        spec = parse_tool_doc(strip_doc_header(events_of("boost.tooldoc")))
        assert spec.name == "Boost"
        assert spec.versions() == ["1.28.0", "1.29.0", "1.30.0"]
        for block in spec.blocks:
            assert block.libs == ["boost_thread"]
            assert [(v.name, v.var_type, v.client) for v in block.variables] == [
                ("BOOST_BASE", VarType.PLAIN, True),
                ("LIBDIR", VarType.LIB, True),
                ("INCLUDE", VarType.PLAIN, True),
                ("LD_LIBRARY_PATH", VarType.RUNTIME_PATH, False),
            ]
            assert [v for v in block.variables if not v.client][0].value == "$LIBDIR"
            assert [(e.ref, e.version) for e in block.externals] == [("sockets", "1.0")]

        config = parse_configuration(strip_doc_header(events_of("toolbox.conf")))
        assert len(config.entries) == 10  # nine from the corpus plus g77gcc3

        req = parse_requirements(strip_doc_header(events_of("project.reqs")))
        assert len(req.selects) == 13
        assert req.includes == ["cvs:?module=.../CMSconfiguration"]
        assert parse_url(req.base).get("version") == "CMS_68_2"


def test_c2_resolution_oracle():
    config = parse_configuration(strip_doc_header(events_of("toolbox.conf")))
    req = parse_requirements(strip_doc_header(events_of("acceptance.reqs")))

    linux = resolve_selection(req, [config], LINUX)
    assert linux.get("gcc3").version == "3.2"
    assert linux.get("g77gcc3").version == "0.5.24"
    assert linux.get("clhep").version == "1.8.0.0"
    assert linux.get("qt").version == "3.1.2"
    assert linux.get("lhcxx").version == "5.0.3"
    assert linux.get("gcc3").spec_url == "cvs:?module=SCRAMToolBox/CXX/gcc3"
    assert linux.get("cc") is None and linux.get("f77") is None

    sunos = resolve_selection(req, [config], SUNOS)
    assert sunos.get("cc").version == "5.4"      # via the SunOS__5 prefix scope
    assert sunos.get("f77").version == "4.2"
    assert sunos.get("gcc3") is None


def test_c3_golden_cli_output(tmp_path, capsys):
    registry = tmp_path / "golden-registry"
    registry.write_text(
        "ORCA 7_1_2 Linux__2.4 /afs/cern.ch/orca/ORCA_7_1_2\n"
        "ORCA 7_1_3 Linux__2.4 /afs/cern.ch/orca/ORCA_7_1_3\n"
    )
    env = {"SCRAM_LOOKUPDB": str(registry), "SCRAM_ARCH": "Linux__2.4"}
    assert main(["list", "ORCA"], env=env, cwd=str(tmp_path)) == 0
    assert capsys.readouterr().out == (
        "Listing installed projects....\n"
        "\n"
        "------------------------------------\n"
        "| Project  | Version  |  Location  |\n"
        "------------------------------------\n"
        "ORCA 7_1_2 --> /afs/cern.ch/orca/ORCA_7_1_2\n"
        "ORCA 7_1_3 --> /afs/cern.ch/orca/ORCA_7_1_3\n"
        "Projects available for platform >> Linux__2.4 <<\n"
    )

    toy = make_toy_project(tmp_path)
    assert main(["bootstrap", toy.bootstrap_url, "--dest",
                 str(toy.install_root)], env=toy.env, cwd=str(tmp_path)) == 0
    central = str(toy.central_root)
    assert main(["install", "--force"], env=toy.env, cwd=central) == 0
    capsys.readouterr()
    assert main(["tool", "list"], env=toy.env, cwd=central) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"Tool list for location {central}"
    assert lines[1] == "+" * 50
    assert lines[2] == " gcc                  2.95.2     (default=2.95.2)"


def test_c4_cache_property(tmp_path):
    with budget(5.0):
        calls = []

        def adapter(url, version):
            calls.append((url.unparse(), version))
            return f"content for {url.get('n')}@{version}".encode()

        registry = SchemeRegistry({"stub": adapter})
        cache = UrlCache(str(tmp_path / "cache"), registry)
        urls = [parse_url(f"stub:item?n={i}") for i in range(50)]
        seen: dict[str, bytes] = {}
        for round_no in range(20):
            for url in urls:
                content, _ = cache.fetch(url, "1.0")
                key = url.cache_key("1.0")
                if key in seen:
                    assert content == seen[key]
                else:
                    seen[key] = content
        assert len(seen) == 50
        assert len(calls) == 50
        assert cache.stats.misses == 50
        assert cache.stats.hits == 1000 - 50


names = st.sampled_from(["PATH", "LD_LIBRARY_PATH", "VA", "VB", "VC", "VD"])
hostile = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=16,
).filter(lambda s: "\n" not in s)
# the values C5 quotes: the hostile alphabet and the classic traps
hostile_values = st.one_of(hostile, st.sampled_from(
    ['a b c', '$HOME', '"x"', "'y'", '\\', '`t`', ' $ " \' mixed ']))


@st.composite
def rollback_case(draw):
    env = draw(st.dictionaries(names, hostile, max_size=4))
    def delta(area_id):
        d = EnvDelta(area_id=area_id)
        for name in draw(st.lists(names, unique=True, max_size=4)):
            if draw(st.booleans()):
                d.set(name, draw(hostile))
            else:
                d.prepend(name, draw(hostile))
        return d
    return env, delta("area-A"), delta("area-B")


class TestC5RollbackExactness:
    started = time.perf_counter()

    @settings(max_examples=200, deadline=None)
    @given(case=rollback_case(), dialect=st.sampled_from(["sh", "csh"]))
    def test_c5_rollback_exactness(self, case, dialect):
        env, delta_a, delta_b = case
        e1 = evaluate_emission(emit_shell(delta_a, env, dialect), env, dialect)
        e2 = evaluate_emission(emit_shell(delta_b, e1, dialect), e1, dialect)
        e3 = evaluate_emission(emit_shell(delta_a, e2, dialect), e2, dialect)
        fresh = evaluate_emission(emit_shell(delta_a, env, dialect), env, dialect)
        assert e3 == fresh

    @settings(max_examples=100, deadline=None)
    @given(value=hostile_values, dialect=st.sampled_from(["sh", "csh"]))
    def test_c5_hostile_quoting(self, value, dialect):
        text = emit_shell(EnvDelta(area_id="q").set("V", value), {}, dialect)
        assert evaluate_emission(text, {}, dialect)["V"] == value

    def test_c5_within_budget(self):
        assert time.perf_counter() - self.started < 10.0


def test_c6_end_to_end_lifecycle(tmp_path, capsys):
    with budget(10.0):
        toy = make_toy_project(tmp_path)
        env, root = toy.env, str(toy.root)

        assert main(["bootstrap", toy.bootstrap_url, "--dest",
                     str(toy.install_root)], env=env, cwd=root) == 0
        central = str(toy.central_root)
        assert main(["build"], env=env, cwd=central) == 0
        assert main(["install"], env=env, cwd=central) == 0

        capsys.readouterr()
        assert main(["list"], env=env, cwd=root) == 0
        assert f"ORCA 7_1_3 --> {central}" in capsys.readouterr().out

        assert main(["project", "ORCA", "7_1_3"], env=env,
                    cwd=str(toy.workspace)) == 0
        dev = str(toy.workspace / "ORCA_7_1_3")

        capsys.readouterr()
        assert main(["tool", "list"], env=env, cwd=dev) == 0
        inherited = capsys.readouterr().out
        assert " htl                  1.4        (default=1.4)" in inherited

        assert main(["setup", "htl", "1.5", f"file:{toy.specs}/htl.tooldoc"],
                    env=env, cwd=dev) == 0
        capsys.readouterr()
        assert main(["tool", "list"], env=env, cwd=dev) == 0
        assert " htl                  1.5        (default=1.4)" in capsys.readouterr().out

        assert main(["runtime", "-sh"], env=env, cwd=dev) == 0
        emission = capsys.readouterr().out
        assert "/opt/boost/lib" in emission
        final = evaluate_emission(emission, env, "sh")
        assert final["LD_LIBRARY_PATH"].split(":")[0] == "/opt/boost/lib"


def test_c7_relocatability(tmp_path, capsys):
    toy = make_toy_project(tmp_path)
    env = toy.env
    assert main(["bootstrap", toy.bootstrap_url, "--dest",
                 str(toy.install_root)], env=env, cwd=str(toy.root)) == 0
    central = str(toy.central_root)
    assert main(["install", "--force"], env=env, cwd=central) == 0
    assert main(["project", "ORCA", "7_1_3"], env=env,
                cwd=str(toy.workspace)) == 0
    dev = toy.workspace / "ORCA_7_1_3"
    assert main(["setup", "htl", "1.5", f"file:{toy.specs}/htl.tooldoc"],
                env=env, cwd=str(dev)) == 0

    def outputs(cwd):
        capsys.readouterr()
        assert main(["tool", "list"], env=env, cwd=cwd) == 0
        tools = capsys.readouterr().out
        assert main(["runtime", "-sh"], env=env, cwd=cwd) == 0
        runtime = capsys.readouterr().out
        assert main(["runtime", "-csh"], env=env, cwd=cwd) == 0
        runtime_csh = capsys.readouterr().out
        return tools, runtime, runtime_csh

    before = outputs(str(dev))
    renamed = toy.workspace / "ORCA_moved_elsewhere"
    os.rename(dev, renamed)
    after = outputs(str(renamed))
    assert before == after  # byte-for-byte


def test_c8_suite_budget():
    """The binding number is the full-suite wall time in the pytest summary
    (printed by conftest); this asserts the in-process share. No test in the suite opens a network connection: all
    schemes are file: or in-memory stubs."""
    assert time.perf_counter() - SESSION_START < 60.0
