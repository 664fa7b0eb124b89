import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import scram.urlaccess
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

    def test_install_refuses_a_project_name_the_registry_cannot_read_back(
            self, toy, capsys):
        boot = toy.specs / "spaced.boot"
        boot.write_text("<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
                        '<project name="my proj" version=1.0>\n')
        assert run(toy, "bootstrap", f"file:{boot}",
                   "--dest", str(toy.install_root)) == 0
        area = toy.install_root / "my proj_1.0"
        capsys.readouterr()
        for _ in range(2):
            assert run(toy, "install", "--force", cwd=str(area)) == 1
            assert capsys.readouterr().err == (
                f"scram: install: cannot register project 'my proj' version '1.0' "
                f"for 'Linux__2.4' at '{area}': a registry line holds a project, "
                "version and architecture with no whitespace, the first not "
                "starting with '#', then a location with no line break and no "
                "whitespace at either end\n")
        assert not Path(toy.env["SCRAM_LOOKUPDB"]).exists()

    def test_empty_dest_fails_before_it_fetches(self, toy, capsys):
        assert run(toy, "bootstrap", toy.bootstrap_url, "--dest", "") == 1
        assert capsys.readouterr().err == (
            "scram: bootstrap: --dest is empty; name the directory to install under\n")
        assert not Path(toy.env["SCRAM_CACHE"]).exists()
        assert sorted(os.listdir(toy.root)) == sorted(
            ["central", "site.cfg", "specs", "work"])

    def test_empty_require_url_names_the_configuration_and_the_entry(self, toy,
                                                                    capsys):
        conf = toy.specs / "toy.conf"
        conf.write_text(conf.read_text() + '<require name=b version=1 url="">\n')
        assert run(toy, "bootstrap", toy.bootstrap_url,
                   "--dest", str(toy.install_root)) == 1
        assert capsys.readouterr().err == (
            f"scram: bootstrap: file:{conf}: <require name=b version=1>: empty URL\n")

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


    @pytest.mark.parametrize("depth", [14, 20])
    def test_fragments_inlining_the_next_twice_fail_within_a_second(
            self, toy, tmp_path, capsys, depth):
        # a bootstrap document and ``depth`` fragments, each inlining the
        # next twice: 2 ** (depth + 1) - 1 tags from well under 1100 bytes
        for i in range(depth):
            inner = f'<inline url="f{i + 1}.doc">' * 2 if i + 1 < depth else ""
            (tmp_path / f"f{i}.doc").write_text(f"<x>{inner}\n")
        top = tmp_path / "top.boot"
        top.write_text("<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
                       "<project name=ORCA version=7_1_3>\n"
                       '<inline url="f0.doc"><inline url="f0.doc">\n')
        start = time.perf_counter()
        assert run(toy, "bootstrap", f"file:{top}", "--dest", str(toy.install_root)) == 1
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"scram: while activating file:{top}: ")
        assert "references splice more than 10000 events" in err
        assert os.listdir(toy.install_root) == []

    def test_a_failed_bootstrap_removes_only_a_dest_it_made(self, toy, tmp_path,
                                                            capsys):
        # the requirements include a tool document, which fails only after
        # the bootstrap document has named the area and --dest is made
        (toy.specs / "toy.reqs").write_text(
            "<doc type=BuildSystem::Requirements version=2.0>\n"
            f'<include url="file:{toy.specs}/gcc.tooldoc">\n<select name=gcc>\n')
        dest = tmp_path / "made" / "dest"
        assert run(toy, "bootstrap", toy.bootstrap_url, "--dest", str(dest)) == 1
        assert capsys.readouterr().err.count("\n") == 1
        # the parent it made goes too, and a parent that was there stays
        assert not (tmp_path / "made").exists()
        dest.parent.mkdir()
        assert run(toy, "bootstrap", toy.bootstrap_url, "--dest", str(dest)) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert os.listdir(tmp_path / "made") == []
        # a --dest that was there before is kept, empty as it was
        dest.mkdir()
        assert run(toy, "bootstrap", toy.bootstrap_url, "--dest", str(dest)) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert os.listdir(dest) == []
        # a --dest that holds the cache is not empty, so it stays
        env = {k: v for k, v in toy.env.items() if k != "SCRAM_CACHE"}
        fresh = tmp_path / "fresh"
        assert main(["bootstrap", toy.bootstrap_url, "--dest", str(fresh)],
                    env=env, cwd=str(toy.root)) == 1
        assert os.listdir(fresh) == [".scram-cache"]


class TestCorruptState:
    CORRUPTIONS = {
        "truncated tool record": ("tools/boost", '{"name": "boost", "vers'),
        "tool record that is a list": ("tools/boost", '["boost", "1.28.0"]\n'),
        "garbage configuration record": ("configuration", "\x00garbage\n"),
        "tool record nested too deeply": ("tools/boost", "[" * 100000),
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


class TestPathErrors:
    """An OSError from a path the user gave is one line, not a traceback."""

    @pytest.mark.parametrize("case", ["cache under a file", "dest under a file",
                                      "registry is a directory"])
    def test_one_line_and_exit_1(self, toy, child_env, case):
        plain = toy.root / "plain"
        plain.write_text("")
        env, dest = dict(toy.env), str(toy.install_root)
        if case == "cache under a file":
            env["SCRAM_CACHE"] = str(plain / "cache")
        elif case == "dest under a file":
            dest = str(plain / "dest")
        else:
            env["SCRAM_LOOKUPDB"] = str(toy.root)
        argv = (["list"] if case == "registry is a directory"
                else ["bootstrap", toy.bootstrap_url, "--dest", dest])
        proc = subprocess.run([sys.executable, "-m", "scram.cli", *argv],
                              cwd=toy.root, env=child_env(env),
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("scram: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        named = {"cache under a file": plain / "cache",
                 "dest under a file": plain,
                 "registry is a directory": toy.root}[case]
        assert f" {named}" in proc.stderr
        assert os.listdir(toy.install_root) == []

    @pytest.mark.parametrize("fault", ["file as a parent", "wrong kind in place"])
    @pytest.mark.parametrize("given", ["--dest", "SCRAM_CACHE", "SCRAM_LOOKUPDB",
                                       "SCRAM_SITE"])
    def test_fault_matrix_names_the_path_given(self, toy, capsys, given, fault):
        # "wrong kind": a regular file where --dest or SCRAM_CACHE names a
        # directory, a directory where SCRAM_LOOKUPDB or SCRAM_SITE names a file
        plain = toy.root / "plain"
        plain.write_text("")
        if fault == "file as a parent":
            path = plain / "below"
        else:
            path = plain if given in ("--dest", "SCRAM_CACHE") else toy.specs
        dest = str(path) if given == "--dest" else str(toy.install_root)
        if given.startswith("SCRAM_"):
            toy.env[given] = str(path)
        argv = (["list"] if given == "SCRAM_LOOKUPDB"
                else ["bootstrap", toy.bootstrap_url, "--dest", dest])
        assert run(toy, *argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("scram: ") and err.count("\n") == 1, err
        assert f"{path}: " in err  # the path itself, not a path below it
        assert os.listdir(toy.install_root) == []

    # each path that a dangling symlink stands in for; those a user names
    # go under a missing parent too
    GIVEN = {"registry": "SCRAM_LOOKUPDB", "cache": "SCRAM_CACHE",
             "site file": "SCRAM_SITE", "dest": "--dest"}
    IN_AREA = {"area": "central/.SCRAM/area", "state": "central/.SCRAM/state",
               "Link": "dev/.SCRAM/Link",
               "tools directory": "central/.SCRAM/Linux__2.4/tools"}
    # the verbs that must fail where the path's link dangles: those that
    # make a directory there, and those that list the tools directory
    FAILING = {"dest": [("root", "bootstrap")], "cache": [("root", "bootstrap")],
               "tools directory": [(area, verb) for area in ("central", "dev")
                                   for verb in ("setup", "tool list", "tool info boost",
                                                "runtime -sh", "build")]}

    @pytest.mark.parametrize("name, fault", [
        *((name, "dangling") for name in [*GIVEN, *IN_AREA]),
        *((name, "missing parent") for name in GIVEN)])
    def test_every_verb_exits_0_or_with_one_line(self, toy, capsys, name, fault):
        central = Path(lifecycle(toy, capsys))
        assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
        dev = toy.workspace / "ORCA_7_1_3"
        dest = toy.root / "dest"
        if name in self.GIVEN:
            path = toy.root / ("missing" if fault == "missing parent" else "") / "given"
            if self.GIVEN[name] == "--dest":
                dest = path
            else:
                toy.env[self.GIVEN[name]] = str(path)
        else:
            place, rel = self.IN_AREA[name].split("/", 1)
            path = {"central": central, "dev": dev}[place] / rel
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        if fault == "dangling":
            path.symlink_to(path.parent / "nowhere")
        again = toy.root / "again"
        again.mkdir()
        capsys.readouterr()

        places = {"root": toy.root, "again": again, "central": central, "dev": dev}
        verbs = [("root", ["list"]), ("again", ["project", "ORCA", "7_1_3"]),
                 ("root", ["bootstrap", toy.bootstrap_url, "--dest", str(dest)])]
        verbs += [(area, argv) for area in ("central", "dev")
                  for argv in (["setup"], ["tool", "list"], ["tool", "info", "boost"],
                               ["runtime", "-sh"], ["build"])]
        failed = {}
        for place, argv in [*verbs, ("central", ["install"])]:
            code = run(toy, *argv, cwd=str(places[place]))
            err = capsys.readouterr().err
            assert (code, err) == (0, "") or (
                code == 1 and err.startswith("scram: ") and err.count("\n") == 1), (
                argv, code, err)
            if code:
                verb = "bootstrap" if argv[0] == "bootstrap" else " ".join(argv)
                failed[place, verb] = err
        if fault == "dangling":
            assert set(self.FAILING.get(name, [])) <= failed.keys(), failed
            # the link in the way is named, not what the verb tried to do
            # there; a registry that is a dangling link reads as empty
            assert name == "registry" or all(
                f"{path} is a dangling symlink" in err for err in failed.values()), failed

    def test_a_dangling_cache_fails_the_verb_not_a_document(self, toy, capsys):
        cache = toy.root / "cache-link"
        cache.symlink_to(toy.root / "nowhere")
        toy.env["SCRAM_CACHE"] = str(cache)
        assert run(toy, "bootstrap", toy.bootstrap_url,
                   "--dest", str(toy.install_root)) == 1
        assert capsys.readouterr().err == (
            f"scram: bootstrap: cannot use cache {cache}: {cache} is a dangling symlink\n")
        assert os.listdir(toy.install_root) == []

    @pytest.mark.parametrize("variable", ["SCRAM_LOOKUPDB", "SCRAM_SITE"])
    def test_undecodable_file_is_one_line(self, toy, capsys, variable):
        path = toy.root / "undecodable"
        path.write_bytes(b"P 1 Linux__2.4 /x\n\xff\xfe\n")
        toy.env[variable] = str(path)
        argv = (["list"] if variable == "SCRAM_LOOKUPDB"
                else ["bootstrap", toy.bootstrap_url, "--dest", str(toy.install_root)])
        assert run(toy, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"scram: {argv[0]}: ") and err.count("\n") == 1
        assert str(path) in err

    def test_an_unlistable_cache_is_one_line(self, toy, capsys, monkeypatch):
        packs = os.path.join(toy.env["SCRAM_CACHE"], "packs")
        real_listdir = os.listdir

        def listdir(path):
            if os.fspath(path) == packs:
                raise PermissionError(13, "Permission denied", path)
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", listdir)
        assert run(toy, "bootstrap", toy.bootstrap_url,
                   "--dest", str(toy.install_root)) == 1
        # the first fetch lists the packs, while the bootstrap document
        # activates, but the fault is the cache's and names the verb
        assert capsys.readouterr() == (
            "", f"scram: bootstrap: unreadable document cache {packs}: "
                "Permission denied\n")
        assert os.listdir(toy.install_root) == []

    def test_an_unwritable_pack_names_the_verb(self, toy, capsys, monkeypatch):
        packs = os.path.join(toy.env["SCRAM_CACHE"], "packs")
        real_open = os.open

        def open_(path, flags, *args, **kwargs):
            if flags & os.O_CREAT and os.path.dirname(os.fspath(path)) == packs:
                raise PermissionError(13, "Permission denied", path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", open_)
        assert run(toy, "bootstrap", toy.bootstrap_url,
                   "--dest", str(toy.install_root)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"scram: bootstrap: cannot write {packs}{os.sep}")
        assert err.endswith(".pack: Permission denied\n")
        assert os.listdir(toy.install_root) == []

    def test_last_resort_names_verb_and_file(self, toy, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise PermissionError(13, "Permission denied", "/some/registry")

        monkeypatch.setattr("scram.cli.list_installs", fail)
        assert run(toy, "list") == 1
        assert capsys.readouterr().err == (
            "scram: list: Permission denied: /some/registry\n")


class TestReadFaults:
    """Every file of local state that a verb reads, broken on disk: exit 1,
    nothing on stdout, and one ``scram:`` line that names the path once."""

    ARCH_DIR = ".SCRAM/Linux__2.4"
    # input -> (where its file lives, path below that, verb, where it runs)
    INPUTS = {
        "link": ("dev", ".SCRAM/Link", ["tool", "list"], "dev"),
        "area": ("central", ".SCRAM/area", ["runtime", "-sh"], "central"),
        "state": ("central", ".SCRAM/state", ["install"], "central"),
        "configuration record": ("central", f"{ARCH_DIR}/configuration",
                                 ["tool", "list"], "central"),
        "tool record": ("central", f"{ARCH_DIR}/tools/boost",
                        ["tool", "list"], "central"),
        "tools directory": ("central", f"{ARCH_DIR}/tools", ["tool", "list"],
                            "central"),
        "app-env": ("central", "config/app-env/viewer",
                    ["runtime", "-sh", "--app", "viewer"], "central"),
        "requirements.url": ("central", "config/requirements.url",
                             ["project", "ORCA", "7_1_3"], "workspace"),
        "registry": ("root", "scramdb", ["list"], "root"),
        "site file": ("root", "site.cfg", ["build"], "central"),
        # the central area that a developer area's Link names
        "linked central": ("central", "", ["tool", "list"], "dev"),
    }
    FAULTS = {
        "directory": lambda path: path.mkdir(),
        "non-UTF-8": lambda path: path.write_bytes(b"\x80 not UTF-8 \xff\n"),
        "blank": lambda path: path.write_text("\n"),
        "relative": lambda path: path.write_text("central/ORCA_7_1_3\n"),
        "dangling": lambda path: path.symlink_to(path.parent / "nowhere"),
        "regular file": lambda path: path.write_text(""),
        "removed": lambda path: None,  # removed with what was there
    }
    CASES = ([(name, fault) for name in INPUTS
              if name not in ("tools directory", "linked central")
              for fault in ("directory", "non-UTF-8")]
             + [("link", "blank"), ("link", "relative"), ("link", "dangling"),
                ("tools directory", "regular file"), ("linked central", "removed"),
                ("app-env", "blank")])

    @pytest.mark.parametrize("name, fault", CASES)
    def test_one_line_naming_the_path_once(self, toy, capsys, name, fault):
        import shutil

        owner, rel, argv, cwd = self.INPUTS[name]
        central = Path(lifecycle(toy, capsys))
        with_dev = "dev" in (owner, cwd)
        if with_dev:
            assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
        places = {"dev": toy.workspace / "ORCA_7_1_3", "central": central,
                  "root": toy.root, "workspace": toy.workspace}
        path = places[owner] / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
        self.FAULTS[fault](path)
        capsys.readouterr()

        assert run(toy, *argv, cwd=str(places[cwd])) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"scram: {argv[0]}: ") and err.count("\n") == 1, err
        assert err.count(str(path)) == 1, err
        # a failed `project` leaves no developer area behind
        assert os.listdir(toy.workspace) == (["ORCA_7_1_3"] if with_dev else [])


class TestWrongDocumentType:
    """A document of a type its reader does not accept: exit 1, nothing on
    stdout, and one ``scram:`` line that names the document once."""

    # case -> the types its reader accepts
    CASES = {
        "requirements include": "BuildSystem::Configuration",
        "bootstrap URL": "BuildSystem::BootStrapDoc",
        "config URL": "BuildSystem::Requirements or BuildSystem::Configuration",
        "setup URL": "BuildSystem::ToolDoc",
        "app-env file": "BuildSystem::AppEnvDoc",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_line_naming_the_document_once(self, toy, capsys, case):
        specs = toy.specs
        named, found = f"file:{specs}/gcc.tooldoc", "BuildSystem::ToolDoc"
        argv = ["bootstrap", toy.bootstrap_url, "--dest", str(toy.install_root)]
        cwd = None
        if case == "requirements include":
            (specs / "toy.reqs").write_text(
                "<doc type=BuildSystem::Requirements version=2.0>\n"
                f'<include url="{named}">\n<select name=gcc>\n')
        elif case == "bootstrap URL":
            argv[1] = named
        elif case == "config URL":
            (specs / "toy.boot").write_text(
                "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
                f'<project name=ORCA version=7_1_3>\n<config url="{named}">\n')
        else:
            cwd = lifecycle(toy, capsys)
            if case == "setup URL":
                named, found = f"file:{specs}/toy.conf", "BuildSystem::Configuration"
                argv = ["setup", "x", "1", named]
            else:
                path = toy.central_root / "config" / "app-env" / "viewer"
                path.parent.mkdir(parents=True)
                path.write_text("\n<doc type=BuildSystem::ToolDoc version=1.0>\n")
                named, argv = f"{path}:2:1", ["runtime", "-sh", "--app", "viewer"]

        assert run(toy, *argv, cwd=cwd) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("scram: ") and err.count("\n") == 1, err
        assert err.count(named) == 1, err
        assert err.endswith(
            f"expected a {self.CASES[case]} document, found '{found}'\n"), err
        assert os.listdir(toy.install_root) == ([] if cwd is None else ["ORCA_7_1_3"])


class TestDocumentErrors:
    """A document or a setting that a verb cannot act on: exit 1, nothing on
    stdout, and one ``scram:`` line that ends with what is wrong."""

    NOT_FOUND = "[Errno 2] No such file or directory: "
    CASES = {
        "duplicate <Tool> version": "duplicate <Tool> block for version 2.95.2",
        "no <Tool> block": "tool document contains no <Tool> block",
        "<base> after <select>": "<base> must precede every <include> and <select>",
        "bootstrap without a project":
            "bootstrap document does not name a project and version",
        "build command not found":
            f"build command not found: {NOT_FOUND}'/nonexistent/make'",
        "unknown app-env type":
            "application environment entry 'X' has unknown type 'Weird'",
        "checkout command not found":
            "checkout command for cvs:?module=toy/boot not found: "
            f"{NOT_FOUND}'/nonexistent/checkout'",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_line_and_exit_1(self, toy, capsys, case):
        specs = toy.specs
        argv = ["bootstrap", toy.bootstrap_url, "--dest", str(toy.install_root)]
        cwd = None
        if case == "duplicate <Tool> version":
            (specs / "gcc.tooldoc").write_text(
                (specs / "gcc.tooldoc").read_text()
                + "<Tool name=gcc version=2.95.2>\n</Tool>\n")
        elif case == "no <Tool> block":
            (specs / "gcc.tooldoc").write_text(
                "<doc type=BuildSystem::ToolDoc version=1.0>\n")
        elif case == "<base> after <select>":
            (specs / "toy.reqs").write_text(
                (specs / "toy.reqs").read_text() + f'<base url="file:{specs}/">\n')
        elif case == "bootstrap without a project":
            (specs / "toy.boot").write_text(
                "<doc type=BuildSystem::BootStrapDoc version=1.0>\n")
        elif case == "checkout command not found":
            toy.site_path.write_text(
                toy.site_path.read_text()
                + "scheme.cvs.command = /nonexistent/checkout {module} {version} {out}\n")
            argv[1] = "cvs:?module=toy/boot"
        else:
            cwd = lifecycle(toy, capsys)
            if case == "build command not found":
                toy.site_path.write_text(toy.site_path.read_text().replace(
                    "build.command = true", "build.command = /nonexistent/make"))
                argv = ["build"]
            else:
                path = toy.central_root / "config" / "app-env" / "viewer"
                path.parent.mkdir(parents=True)
                path.write_text("<doc type=BuildSystem::AppEnvDoc version=1.0>\n"
                                "<Environment name=X value=1 type=Weird>\n")
                argv = ["runtime", "-sh", "--app", "viewer"]

        assert run(toy, *argv, cwd=cwd) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("scram: ") and err.count("\n") == 1, err
        assert err.endswith(f": {self.CASES[case]}\n"), err


class TestEachFailingDocumentIsNamedOnce:
    """A bootstrap that fails on a document it activates: exit 1 and one
    ``scram:`` line that names the document once, whether the fetch fails,
    the error is located in the document or it is neither. A fragment's
    error names the fragment and the document that splices it, each once."""

    HEADER = "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
    # case -> how the line ends
    CASES = {
        "missing file": "No such file or directory",
        "unknown scheme": "(registered: cvs, file, http, https, vcs)",
        "unconfigured cvs": "{module} {version} {out})",
        "missing checkout command": "'/nonexistent/checkout'",
        "syntax error": "unterminated tag <project",
        "missing attribute": "<project> is missing required attribute 'version'",
        "escaping download": "download destination escapes the area: '../../escaped'",
        "type mismatch": "found 'BuildSystem::ToolDoc'",
        "empty document": "document has no <doc> header",
        "no <Tool> block": "tool document contains no <Tool> block",
        "fragment handler error": "<project> is missing required attribute 'version'",
        "fragment not fetched": "No such file or directory",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_line_naming_each_document_once(self, toy, capsys, case):
        specs = toy.specs
        boot, frag = specs / "toy.boot", specs / "frag.doc"
        # each file: URL is named by its path, with or without the scheme
        url, named = toy.bootstrap_url, [str(boot)]
        if case == "missing file":
            url, named = f"file:{specs}/missing.boot", [f"{specs}/missing.boot"]
        elif case == "unknown scheme":
            url = f"gopher:{boot}"
        elif case in ("unconfigured cvs", "missing checkout command"):
            url = named[0] = "cvs:?module=toy/boot"
            if case == "missing checkout command":
                toy.site_path.write_text(
                    toy.site_path.read_text()
                    + "scheme.cvs.command = /nonexistent/checkout {module} {out}\n")
        elif case == "syntax error":
            boot.write_text(self.HEADER + "<project name=ORCA version=7_1_3\n")
        elif case == "missing attribute":
            boot.write_text(self.HEADER + "<project name=ORCA>\n")
        elif case == "escaping download":
            boot.write_text(boot.read_text().replace('to="src/README"',
                                                      'to="../../escaped"'))
        elif case == "type mismatch":
            url, named = f"file:{specs}/gcc.tooldoc", [f"{specs}/gcc.tooldoc"]
        elif case == "empty document":
            boot.write_text("")
        elif case == "no <Tool> block":
            named = [f"{specs}/gcc.tooldoc"]
            (specs / "gcc.tooldoc").write_text(
                "<doc type=BuildSystem::ToolDoc version=1.0>\n")
        else:
            named.append(str(frag))
            boot.write_text(self.HEADER + '<inline url="frag.doc">\n')
            if case == "fragment handler error":
                frag.write_text("\n<project name=ORCA>\n")

        assert run(toy, "bootstrap", url, "--dest", str(toy.install_root)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("scram: ") and err.count("\n") == 1, err
        assert err.endswith(f"{self.CASES[case]}\n"), err
        assert [err.count(name) for name in named] == [1] * len(named), err


class TestNamesStayInTheArea:
    """A name that a document or a command gives a tool record or an area
    directory is one file name: a path that climbs out, a dot-name, which
    listings skip as a temp file, or a NUL byte ends the verb with one
    ``scram:`` line, and no file but the document cache's is written."""

    RULE = "a name must be non-empty, hold no '/' or NUL and not start with '.'"
    CASES = {
        # the configuration pins and selects a tool of this name
        "tool climbs out": "../../../../../../escaped",
        "tool is a dot-name": ".gcc",
        "tool holds NUL": "gc\0c",
        # the bootstrap document names this project, or downloads to here
        "project climbs out": "../../outside",
        "download holds NUL": "src/READ\0ME",
    }

    def files(self, toy) -> dict:
        """Every file under the toy's root but the cache's and lock files."""
        return {path: digest for path, digest in snapshot(toy.root).items()
                if not path.startswith("cache/") and os.path.basename(path) != "lock"}

    @pytest.mark.parametrize("case", CASES)
    def test_bootstrap(self, toy, capsys, case):
        name, specs = self.CASES[case], toy.specs
        if case.startswith("tool"):
            with open(specs / "toy.conf", "a") as fh:
                fh.write(f'<require name="{name}" version=2.95.2 '
                         f'url="file:{specs}/gcc.tooldoc">\n')
            with open(specs / "toy.reqs", "a") as fh:
                fh.write(f'<select name="{name}">\n')
            line = f"bad tool name {name!r}: {self.RULE}"
        elif case == "project climbs out":
            boot = (specs / "toy.boot").read_text()
            (specs / "toy.boot").write_text(boot.replace("name=ORCA", f'name="{name}"'))
            line = f"bad area name {name + '_7_1_3'!r}: {self.RULE}"
        else:
            boot = (specs / "toy.boot").read_text()
            (specs / "toy.boot").write_text(boot.replace('to="src/README"', f'to="{name}"'))
            line = f"download destination holds a NUL byte: {name!r}"
        # six levels above the tools directory is still under the toy's root
        dest = toy.root / "deep" / "dest"
        dest.mkdir(parents=True)
        before = self.files(toy)
        assert run(toy, "bootstrap", toy.bootstrap_url, "--dest", str(dest)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("scram: ") and err.count("\n") == 1, err
        assert err.endswith(f": {line}\n"), err
        assert self.files(toy) == before
        assert os.listdir(dest) == []

    @pytest.mark.parametrize("name", ["../../state", ".gcc"])
    @pytest.mark.parametrize("kind", ["central", "developer"])
    def test_setup(self, toy, capsys, kind, name):
        area = lifecycle(toy, capsys)
        if kind == "developer":
            assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
            capsys.readouterr()
            area = str(toy.workspace / "ORCA_7_1_3")
        before = self.files(toy)
        assert run(toy, "setup", name, "2.95.2", f"file:{toy.specs}/gcc.tooldoc",
                   cwd=area) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"scram: setup: bad tool name {name!r}: {self.RULE}\n")
        assert self.files(toy) == before

    @pytest.mark.parametrize("how", ["absolute", "climbs out"])
    @pytest.mark.parametrize("kind", ["central", "developer"])
    def test_runtime_app(self, toy, capsys, kind, how):
        """``--app`` names a file of the area's ``config/app-env``: a path
        to a well-formed overlay outside it is not read."""
        area = lifecycle(toy, capsys)
        if kind == "developer":
            assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
            capsys.readouterr()
            area = str(toy.workspace / "ORCA_7_1_3")
        outside = toy.root / "outside-app"
        outside.write_text("<doc type=BuildSystem::AppEnvDoc version=1.0>\n"
                           "<Environment name=STOLEN value=yes>\n")
        name = (str(outside) if how == "absolute"
                else os.path.relpath(outside, os.path.join(area, "config", "app-env")))
        before = self.files(toy)
        assert run(toy, "runtime", "-sh", "--app", name, cwd=area) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", f"scram: runtime: bad application name {name!r}: {self.RULE}\n")
        assert self.files(toy) == before

    def test_project(self, toy, capsys):
        """A registry line can name any project; its developer area still
        goes under the working directory."""
        central = lifecycle(toy, capsys)
        with open(toy.registry_path, "a") as fh:
            fh.write(f"../../outside 1 Linux__2.4 {central}\n")
        before = self.files(toy)
        assert run(toy, "project", "../../outside", "1", cwd=str(toy.workspace)) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", f"scram: project: bad area name '../../outside_1': {self.RULE}\n")
        assert self.files(toy) == before
        assert not (toy.root.parent / "outside_1").exists()


# Stdlib modules that only fetching, hashing, building or host detection
# needs, dataclasses with the inspect it imports, which scram does not use,
# and argparse with its gettext, which only help, version and usage errors
# need; a read-only verb must not pay for importing any of them.
START_UP_DENY_LIST = ("dataclasses", "inspect", "subprocess", "hashlib",
                      "tempfile", "platform", "shlex", "urllib.request",
                      "http.client", "argparse", "gettext")

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


class TestBrokenPipe:
    """A command whose standard output is a closed pipe ends with one line
    and exit 1, whether its output fails while it runs or at its final
    flush."""

    @pytest.mark.parametrize("argv, line", [
        (["tool", "info", "boost"], "scram: tool: Broken pipe\n"),
        (["runtime", "-sh"], "scram: runtime: Broken pipe\n"),
        (["--version"], "scram: Broken pipe\n"),
    ])
    def test_one_line_and_exit_1(self, toy, capsys, child_env, argv, line):
        central = lifecycle(toy, capsys)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "scram.cli", *argv],
                                  cwd=central, env=child_env(toy.env),
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, line)


def test_default_paths_follow_the_installation(toy, capsys):
    """With no SCRAM_LOOKUPDB, SCRAM_SITE or SCRAM_CACHE, installation and
    distribution run on the defaults alone: every verb reads the site file
    and the cache under bootstrap's --dest and the registry under the HOME
    of its environment."""
    for name in ("SCRAM_LOOKUPDB", "SCRAM_SITE", "SCRAM_CACHE"):
        del toy.env[name]
    dest, central = toy.install_root, str(toy.central_root)
    toy.site_path.rename(dest / "site.cfg")
    dev = toy.workspace / "ORCA_7_1_3"
    for cwd, *argv in ((toy.root, "bootstrap", toy.bootstrap_url, "--dest", str(dest)),
                       (central, "build"),
                       (central, "install"),
                       (toy.root, "list"),
                       (toy.workspace, "project", "ORCA", "7_1_3"),
                       (dev, "setup", "htl", "1.5", f"file:{toy.specs}/htl.tooldoc")):
        assert run(toy, *argv, cwd=str(cwd)) == 0, (argv, capsys.readouterr().err)
    assert f"ORCA 7_1_3 --> {central}" in capsys.readouterr().out
    assert (Path(toy.env["HOME"]) / ".scramdb").is_file()
    assert not (dest / "scramdb").exists()
    assert [p.relative_to(toy.root) for p in toy.root.rglob("packs")] == [
        Path("central/.scram-cache/packs")]


def test_setup_with_a_url_in_the_version_place_needs_a_version(toy, capsys):
    """``setup NAME URL`` is a URL without a version, not a version."""
    central = lifecycle(toy, capsys)
    before = snapshot(toy.root)
    assert run(toy, "setup", "htl", f"file:{toy.specs}/htl.tooldoc", cwd=central) == 1
    assert capsys.readouterr() == (
        "", "scram: setup: setup with a URL needs both a name and a version\n")
    assert snapshot(toy.root) == before


def test_setup_of_another_version_needs_a_url(toy, capsys):
    """``setup NAME VERSION`` re-resolves the configured pin, so it takes
    only the configured version; another one needs a specification URL."""
    central = lifecycle(toy, capsys)
    before = snapshot(toy.root)
    assert run(toy, "setup", "boost", "9.9", cwd=central) == 1
    assert capsys.readouterr() == (
        "", "scram: setup: 'boost' is configured at version 1.28.0; pass a "
            "specification URL to set up version 9.9\n")
    assert snapshot(toy.root) == before
    assert run(toy, "setup", "boost", "1.28.0", cwd=central) == 0
    assert capsys.readouterr().out == "set up boost\n"


@pytest.mark.parametrize("kind", ["central", "developer"])
def test_a_failed_setup_writes_no_record(toy, capsys, kind):
    """A bare ``setup`` resolves every missing tool before it writes any
    record, so one that fails on its last tool leaves the records as they
    were: gcc resolves, then boost cannot."""
    area = lifecycle(toy, capsys)
    if kind == "developer":
        assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
        capsys.readouterr()
        area = str(toy.workspace / "ORCA_7_1_3")
    central_tools = toy.central_root / ".SCRAM" / "Linux__2.4" / "tools"
    for name in ("gcc", "boost"):
        (central_tools / name).unlink()
    toy.site_path.write_text(toy.site_path.read_text().replace(
        "tool.boost.LIBDIR = /opt/boost/lib\n", ""))
    records = (central_tools, Path(area) / ".SCRAM" / "Linux__2.4")
    before = [snapshot(path) for path in records]
    assert run(toy, "setup", cwd=area) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "scram: setup: cannot resolve client variable 'LIBDIR' of boost 1.28.0; ")
    assert [snapshot(path) for path in records] == before


def htl_row(toy, area, capsys) -> str:
    """htl's row of ``tool list`` in ``area``."""
    assert run(toy, "tool", "list", cwd=area) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith(" htl ")]
    return row


@pytest.mark.parametrize("kind", ["central", "developer"])
def test_a_bare_setup_keeps_a_local_override(toy, capsys, kind):
    """htl set up at 1.5 by URL stays at 1.5 through a bare ``setup``; its
    configured 1.4 comes back when it is set up by name."""
    area = lifecycle(toy, capsys)
    if kind == "developer":
        assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
        area = str(toy.workspace / "ORCA_7_1_3")
    assert run(toy, "setup", "htl", "1.5", f"file:{toy.specs}/htl.tooldoc", cwd=area) == 0
    capsys.readouterr()
    assert run(toy, "setup", cwd=area) == 0
    assert capsys.readouterr() == ("", "")
    assert htl_row(toy, area, capsys) == " htl                  1.5        (default=1.4)"
    assert run(toy, "setup", "htl", cwd=area) == 0
    assert capsys.readouterr().out == "set up htl\n"
    assert htl_row(toy, area, capsys) == " htl                  1.4        (default=1.4)"


def test_a_bare_setup_resolves_a_central_record_at_another_version(toy, capsys):
    """In a developer area a central record at another version than the
    configured one is resolved again, into a local record."""
    central = lifecycle(toy, capsys)
    assert run(toy, "setup", "htl", "1.5", f"file:{toy.specs}/htl.tooldoc",
               cwd=central) == 0
    assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
    dev = str(toy.workspace / "ORCA_7_1_3")
    capsys.readouterr()
    assert run(toy, "setup", cwd=dev) == 0
    assert capsys.readouterr().out == "set up htl\n"
    assert htl_row(toy, dev, capsys) == " htl                  1.4        (default=1.4)"
    assert htl_row(toy, central, capsys) == " htl                  1.5        (default=1.4)"


def test_refresh_fetches_a_twice_downloaded_url_once(toy, capsys, monkeypatch):
    """Under ``--refresh`` a HEAD document reaches its adapter once per
    command: a second download of it is served from the command's own
    pack, with the new bytes."""
    readme, boot = toy.specs / "README.src", toy.specs / "toy.boot"
    boot.write_text(boot.read_text() + f'<download url="file:{readme}" to="src/AGAIN">\n')
    argv = ["bootstrap", toy.bootstrap_url, "--dest", str(toy.install_root)]
    assert run(toy, *argv) == 0
    shutil.rmtree(toy.central_root)
    readme.write_text("new sources\n")
    reads = []

    def fetch_file(url, version, real=scram.urlaccess.fetch_file):
        reads.append(url.authority)
        return real(url, version)

    monkeypatch.setattr(scram.urlaccess, "fetch_file", fetch_file)
    assert run(toy, "--refresh", *argv) == 0
    for name in ("README", "AGAIN"):
        assert (toy.central_root / "src" / name).read_text() == "new sources\n"
    assert reads.count(str(readme)) == 1


class TtyInput(io.StringIO):
    """Standard input that is a terminal."""

    def isatty(self) -> bool:
        return True


class TestPrompt:
    """On a terminal, a client variable that the site file lacks is asked
    for on stderr."""

    HINT = "boost: The top of the Boost distribution.\n"
    QUESTION = "value for BOOST_BASE of boost (empty to give up): "

    @pytest.fixture(autouse=True)
    def no_site_value(self, toy):
        lines = toy.site_path.read_text().splitlines(keepends=True)
        toy.site_path.write_text("".join(
            line for line in lines if not line.startswith("tool.boost.BOOST_BASE ")))

    def bootstrap(self, toy, monkeypatch, answer: str) -> int:
        monkeypatch.setattr(sys, "stdin", TtyInput(answer))
        return run(toy, "bootstrap", toy.bootstrap_url, "--dest", str(toy.install_root))

    def test_the_answer_is_bound_from_the_prompt(self, toy, capsys, monkeypatch):
        assert self.bootstrap(toy, monkeypatch, "/sw/asked\n") == 0
        assert capsys.readouterr().err == self.HINT + self.QUESTION
        assert run(toy, "tool", "info", "boost", cwd=str(toy.central_root)) == 0
        assert "  BOOST_BASE=/sw/asked  [prompt]\n" in capsys.readouterr().out

    def test_an_empty_answer_gives_up(self, toy, capsys, monkeypatch):
        assert self.bootstrap(toy, monkeypatch, "\n") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(self.HINT + self.QUESTION + "scram: bootstrap: "
                              "cannot resolve client variable 'BOOST_BASE' of boost ")
        assert err.count("scram:") == 1 and err.count("\n") == 2, err
        assert os.listdir(toy.install_root) == []


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
        from scram.project import area_context, area_environment
        from scram.runtime import apply_delta

        delta = area_environment(area_context(central),
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

    def test_empty_app_fails_like_a_missing_one(self, toy, capsys):
        central = lifecycle(toy, capsys)
        (Path(central) / "config" / "app-env").mkdir(parents=True)
        assert run(toy, "runtime", "-sh", "--app", "", cwd=central) == 1
        assert capsys.readouterr() == (
            "", "scram: runtime: --app is empty; name an application "
                "environment file\n")


class TestArchitectures:
    """An area read under an architecture it was not set up for fails,
    naming the architecture asked for and the ones the area holds."""

    @pytest.mark.parametrize("argv", [["runtime", "-sh"], ["tool", "list"],
                                      ["tool", "info", "boost"], ["setup"]])
    @pytest.mark.parametrize("where", ["central", "developer"])
    def test_read_under_another_architecture_fails(self, toy, capsys, argv, where):
        central = lifecycle(toy, capsys)
        assert run(toy, "project", "ORCA", "7_1_3", cwd=str(toy.workspace)) == 0
        cwd = {"central": central, "developer": str(toy.workspace / "ORCA_7_1_3")}[where]
        capsys.readouterr()

        def state():  # but the lock file that setup creates
            return {rel: digest for rel, digest in snapshot(toy.root).items()
                    if not rel.endswith(".SCRAM/lock")}

        before = state()
        assert run(toy, "--arch", "SunOS__5.8", *argv, cwd=cwd) == 1
        assert capsys.readouterr() == (
            "", f"scram: {argv[0]}: {central} has no tools for architecture "
                "SunOS__5.8, only for Linux__2.4 (pass --arch or set SCRAM_ARCH)\n")
        assert state() == before

    def test_setup_with_a_url_needs_no_configured_architecture(self, toy, capsys):
        central = lifecycle(toy, capsys)
        assert run(toy, "--arch", "SunOS__5.8", "setup", "htl", "1.5",
                   f"file:{toy.specs}/htl.tooldoc", cwd=central) == 0
        assert run(toy, "--arch", "SunOS__5.8", "tool", "info", "htl",
                   cwd=central) == 0
        assert "Version: 1.5" in capsys.readouterr().out

    def test_area_set_up_for_no_architecture_reads_as_empty(self, tmp_path, capsys):
        from conftest import make_toy_project
        toy = make_toy_project(tmp_path, with_config=False)
        assert run(toy, "bootstrap", toy.bootstrap_url,
                   "--dest", str(toy.install_root)) == 0
        central = str(toy.central_root)
        capsys.readouterr()
        for arch in ("Linux__2.4", "SunOS__5.8"):
            assert run(toy, "--arch", arch, "tool", "list", cwd=central) == 0
            assert run(toy, "--arch", arch, "runtime", "-sh", cwd=central) == 0
            assert run(toy, "--arch", arch, "setup", cwd=central) == 0
        assert capsys.readouterr().err == ""


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
