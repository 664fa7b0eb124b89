import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scram.cli import main

from shelloracle import evaluate_emission


def run(toy, *argv, cwd=None):
    return main(list(argv), env=toy.env, cwd=cwd or str(toy.root))


def lifecycle(toy, capsys):
    """bootstrap -> build -> install through the CLI; returns central root."""
    assert run(toy, "bootstrap", toy.bootstrap_url,
               "--dest", str(toy.install_root)) == 0
    central = str(toy.central_root)
    assert run(toy, "build", cwd=central) == 0
    assert run(toy, "install", cwd=central) == 0
    capsys.readouterr()
    return central


def snapshot(root: Path):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


class TestUsage:
    def test_unknown_verb_is_usage_error(self, toy, capsys):
        assert run(toy, "frobnicate") == 2

    def test_no_verb_is_usage_error(self, toy):
        assert run(toy) == 2

    def test_unknown_flag(self, toy):
        assert run(toy, "list", "--sideways") == 2

    def test_version_flag(self, toy, capsys):
        assert run(toy, "--version") == 0
        assert capsys.readouterr().out.startswith("scram 0.1")

    def test_runtime_requires_dialect(self, toy):
        assert run(toy, "runtime") == 2

    def test_runtime_rejects_both_dialects(self, toy):
        assert run(toy, "runtime", "-csh", "-sh") == 2


class TestErrors:
    def test_operational_error_format(self, toy, capsys):
        code = run(toy, "tool", "list", cwd=str(toy.workspace))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("scram: ")
        assert err.count("\n") == 1
        assert "not inside a scram area" in err

    def test_unknown_tool_info_exit_1(self, toy, capsys):
        central = lifecycle(toy, capsys)
        assert run(toy, "tool", "info", "nosuch", cwd=central) == 1
        err = capsys.readouterr().err
        assert "boost" in err  # names the known tools
        # the empty name is no record path: one line, not a traceback
        assert run(toy, "tool", "info", "", cwd=central) == 1
        assert capsys.readouterr().err.startswith("scram: tool: unknown tool ''")

    def test_bad_arch_flag(self, toy, capsys):
        assert run(toy, "--arch", "bogus", "list") == 1
        assert "scram:" in capsys.readouterr().err


    def test_inclusion_cycle_is_one_line_naming_every_url(self, toy, tmp_path, capsys):
        a, b, c = (f"file:{tmp_path / n}" for n in ("a.doc", "b.doc", "c.doc"))
        header = "<doc type=BuildSystem::BootStrapDoc version=1.0>"
        for name, target in (("a.doc", b), ("b.doc", c), ("c.doc", a)):
            (tmp_path / name).write_text(f'{header}<inline url="{target}">')
        assert run(toy, "bootstrap", a, "--dest", str(tmp_path / "dest")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"scram: while activating {a}: ")
        assert err.count("\n") == 1
        assert err.endswith(f"document inclusion cycle: {a} -> {b} -> {c} -> {a}\n")


class TestCorruptState:
    CORRUPTIONS = {
        "truncated tool record": ("tools/boost", '{"name": "boost", "vers'),
        "tool record that is a list": ("tools/boost", '["boost", "1.28.0"]\n'),
        "garbage configuration record": ("configuration", "\x00garbage\n"),
    }

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_one_line_and_exit_1(self, toy, capsys, child_env, case):
        central = lifecycle(toy, capsys)
        rel, text = self.CORRUPTIONS[case]
        path = Path(central) / ".SCRAM" / "Linux__2.4" / rel
        assert path.is_file()
        path.write_text(text)
        for argv in (["runtime", "-sh"], ["tool", "list"]):
            proc = subprocess.run([sys.executable, "-m", "scram.cli", *argv],
                                  cwd=central, env=child_env(toy.env),
                                  capture_output=True, text=True)
            assert proc.returncode == 1, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.startswith("scram: ")
            assert proc.stderr.count("\n") == 1
            assert str(path) in proc.stderr


# Stdlib modules that only fetching, hashing, building or host detection
# needs, and dataclasses with the inspect it imports, which scram does not
# use; a read-only verb must not pay for importing any of them.
START_UP_DENY_LIST = ("dataclasses", "inspect", "subprocess", "hashlib",
                      "tempfile", "platform", "shlex", "urllib.request",
                      "http.client")

# Prints the deny-listed modules that the code after it loads; what the
# interpreter's own start-up (site and .pth files) loaded is not scram's.
_LOADED_BY_SCRAM = """
import sys
before = set(sys.modules)
{body}
print(" ".join(m for m in {deny!r} if m in sys.modules and m not in before))
"""


def loaded_by_scram(body: str, env: dict, cwd) -> list[str]:
    code = _LOADED_BY_SCRAM.format(body=body, deny=START_UP_DENY_LIST)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_leaves_http_modules_unloaded(child_env):
    assert loaded_by_scram("import scram.cli", child_env(os.environ),
                           Path(__file__).resolve().parents[1]) == []


def test_read_only_verbs_leave_fetch_and_build_modules_unloaded(
        toy, capsys, child_env):
    lifecycle(toy, capsys)
    assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
    body = ("import scram.cli\n"
            "assert scram.cli.main(['runtime', '-sh']) == 0\n"
            "assert scram.cli.main(['tool', 'list']) == 0")
    # the toy environment sets SCRAM_ARCH, as a user's shell would
    assert loaded_by_scram(body, child_env(toy.env),
                           toy.workspace / "ORCA_7_1_3") == []


class TestLifecycle:
    def test_full_flow(self, toy, capsys):
        central = lifecycle(toy, capsys)

        assert run(toy, "list", "ORCA") == 0
        listing = capsys.readouterr().out
        assert f"ORCA 7_1_3 --> {central}" in listing
        assert listing.rstrip().endswith(
            "Projects available for platform >> Linux__2.4 <<")

        assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
        capsys.readouterr()
        dev = str(toy.workspace / "ORCA_7_1_3")

        assert run(toy, "tool", "list", cwd=dev) == 0
        tools = capsys.readouterr().out
        assert f"Tool list for location {central}" in tools
        assert " gcc                  2.95.2     (default=2.95.2)" in tools
        assert " htl                  1.4        (default=1.4)" in tools

        assert run(toy, "setup", "htl", "1.5", f"file:{toy.specs}/htl.tooldoc",
                   cwd=dev) == 0
        capsys.readouterr()
        assert run(toy, "tool", "list", cwd=dev) == 0
        assert " htl                  1.5        (default=1.4)" in capsys.readouterr().out

        assert run(toy, "runtime", "-sh", cwd=dev) == 0
        emission = capsys.readouterr().out
        assert "/opt/boost/lib" in emission
        final = evaluate_emission(emission, toy.env, "sh")
        assert final["LD_LIBRARY_PATH"].split(":")[0] == "/opt/boost/lib"

    def test_install_requires_build_unless_forced(self, toy, capsys):
        assert run(toy, "bootstrap", toy.bootstrap_url,
                   "--dest", str(toy.install_root)) == 0
        central = str(toy.central_root)
        assert run(toy, "install", cwd=central) == 1
        assert "not marked complete" in capsys.readouterr().err
        assert run(toy, "install", "--force", cwd=central) == 0

    def test_build_exit_status_propagates(self, toy, capsys):
        assert run(toy, "bootstrap", toy.bootstrap_url,
                   "--dest", str(toy.install_root)) == 0
        toy.site_path.write_text(
            toy.site_path.read_text().replace("build.command = true",
                                              "build.command = false"))
        assert run(toy, "build", cwd=str(toy.central_root)) == 1


class TestRuntimeCommand:
    def test_csh_dialect(self, toy, capsys):
        central = lifecycle(toy, capsys)
        assert run(toy, "runtime", "-csh", cwd=central) == 0
        emission = capsys.readouterr().out
        assert "setenv LD_LIBRARY_PATH " in emission
        final = evaluate_emission(emission, toy.env, "csh")
        assert "/opt/boost/lib" in final["LD_LIBRARY_PATH"]

    def test_emission_matches_computed_delta(self, toy, capsys):
        # oracle comparison: evaluating the CLI output equals applying the
        # computed delta directly
        central = lifecycle(toy, capsys)
        assert run(toy, "runtime", "-sh", cwd=central) == 0
        emission = capsys.readouterr().out

        from scram.configuration import detect_architecture
        from scram.project import area_context, compute_runtime_env
        from scram.runtime import apply_delta

        delta = compute_runtime_env(area_context(central),
                                    detect_architecture("Linux__2.4"))
        evaluated = evaluate_emission(emission, toy.env, "sh")
        computed = apply_delta(dict(toy.env), delta)
        for name in delta.names():
            assert evaluated[name] == computed[name]

    def test_empty_delta_exits_zero(self, tmp_path, capsys):
        from conftest import make_toy_project
        toy = make_toy_project(tmp_path, with_config=False)
        assert run(toy, "bootstrap", toy.bootstrap_url,
                   "--dest", str(toy.install_root)) == 0
        central = str(toy.central_root)
        assert run(toy, "runtime", "-sh", cwd=central) == 0

    def test_app_overlay(self, toy, capsys):
        central = lifecycle(toy, capsys)
        app_dir = Path(central) / "config" / "app-env"
        app_dir.mkdir(parents=True)
        (app_dir / "viewer").write_text(
            "<doc type=BuildSystem::AppEnvDoc version=1.0>\n"
            "<Environment name=DISPLAY_DEPTH value=8>\n"
            "<Environment name=LD_LIBRARY_PATH value=/app/lib type=Runtime_path>\n")
        assert run(toy, "runtime", "-sh", "--app", "viewer", cwd=central) == 0
        final = evaluate_emission(capsys.readouterr().out, toy.env, "sh")
        assert final["DISPLAY_DEPTH"] == "8"
        assert final["LD_LIBRARY_PATH"].split(":")[0] == "/app/lib"

    def test_missing_app_file(self, toy, capsys):
        central = lifecycle(toy, capsys)
        assert run(toy, "runtime", "-sh", "--app", "nosuch", cwd=central) == 1


class TestReadOnlyVerbs:
    def test_filesystem_untouched(self, toy, capsys):
        central = lifecycle(toy, capsys)
        assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
        dev = str(toy.workspace / "ORCA_7_1_3")
        capsys.readouterr()
        before = snapshot(toy.root)
        assert run(toy, "list") == 0
        assert run(toy, "list", "ORCA") == 0
        assert run(toy, "tool", "list", cwd=dev) == 0
        assert run(toy, "tool", "info", "boost", cwd=dev) == 0
        assert run(toy, "runtime", "-sh", cwd=dev) == 0
        assert run(toy, "runtime", "-csh", cwd=dev) == 0
        assert snapshot(toy.root) == before

    def test_leftover_temp_record_is_ignored(self, toy, capsys):
        central = lifecycle(toy, capsys)
        assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
        dev = str(toy.workspace / "ORCA_7_1_3")
        capsys.readouterr()

        def outputs():
            assert run(toy, "tool", "list", cwd=dev) == 0
            assert run(toy, "runtime", "-sh", cwd=dev) == 0
            return capsys.readouterr()

        before = outputs()
        tools = Path(central) / ".SCRAM" / "Linux__2.4" / "tools"
        (tools / ".boost.4242.tmp").write_text('{"name": "boo')
        assert outputs() == before
        assert before.err == ""
        assert run(toy, "tool", "info", ".boost.4242.tmp", cwd=dev) == 1
        assert "unknown tool" in capsys.readouterr().err
