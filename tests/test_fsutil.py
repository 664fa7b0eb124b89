import ast
import os
import re
import stat
from pathlib import Path

import pytest

import scram
from scram.errors import AreaError
from scram.fsutil import (
    PrivateFile,
    atomic_write,
    list_dir,
    locked,
    make_dirs,
    private_tree,
    read_json,
    read_text,
    write_new,
)

SOURCES = sorted(Path(scram.__file__).parent.glob("*.py"))
HELPER = "fsutil.py"


class TestReadJson:
    def test_reads_an_object(self, tmp_path):
        path = tmp_path / "state"
        path.write_text('{"a": [1]}')
        assert read_json(str(path), "state") == {"a": [1]}

    @pytest.mark.parametrize("content, reason", [
        (None, "unreadable thing {path}: "),
        ('{"a": ', "unreadable thing {path}: "),
        (b"\xff\xfe{}", "unreadable thing {path}: "),
        ("[1, 2]", "thing {path} is not a JSON object"),
        ("null", "thing {path} is not a JSON object"),
        pytest.param("[" * 100000,
                     "unreadable thing {path}: maximum recursion depth exceeded",
                     id="nested too deeply"),
    ])
    def test_failures_name_the_file(self, tmp_path, content, reason):
        path = tmp_path / "state"
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(AreaError) as exc:
            read_json(str(path), "thing")
        assert str(exc.value).startswith(reason.format(path=path))

    def test_a_missing_file_gives_the_default(self, tmp_path):
        assert read_json(str(tmp_path / "state"), "thing", missing=None) is None

    def test_null_is_no_missing_file(self, tmp_path):
        path = tmp_path / "state"
        path.write_text("null")
        with pytest.raises(AreaError, match="is not a JSON object"):
            read_json(str(path), "thing", missing=None)


class TestReadText:
    def test_utf8_with_universal_newlines(self, tmp_path):
        path = tmp_path / "state"
        path.write_bytes("caf\u00e9\r\nb\rc\n".encode())
        assert read_text(str(path), "thing") == "caf\u00e9\nb\nc\n"

    def test_a_missing_file_gives_the_default_if_one_is_passed(self, tmp_path):
        path = tmp_path / "state"
        assert read_text(str(path), "thing", missing=None) is None
        assert read_text(str(path), "thing", missing="") == ""
        with pytest.raises(AreaError) as exc:
            read_text(str(path), "thing")
        assert str(exc.value) == f"unreadable thing {path}: No such file or directory"

    @pytest.mark.parametrize("fault, reason", [
        ("directory", "Is a directory"),
        ("under a file", "Not a directory"),
        ("non-UTF-8", "'utf-8' codec can't decode byte 0xff in position 1: "
                      "invalid start byte"),
    ])
    def test_every_other_failure_is_one_error_naming_the_path_once(
            self, tmp_path, fault, reason):
        path = tmp_path / "state"
        if fault == "directory":
            path.mkdir()
        elif fault == "under a file":
            (tmp_path / "file").write_text("")
            path = tmp_path / "file" / "state"
        else:
            path.write_bytes(b"a\xff\n")
        with pytest.raises(AreaError) as exc:
            read_text(str(path), "thing", missing="")
        assert str(exc.value) == f"unreadable thing {path}: {reason}"

    @pytest.mark.parametrize("read", [read_text, read_json])
    def test_permission_denied(self, tmp_path, monkeypatch, read):
        # a stub: a process running as root may read any file
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr("scram.fsutil.open", denied, raising=False)
        path = str(tmp_path / "state")
        with pytest.raises(AreaError) as exc:
            read(path, "thing", missing=None)
        assert str(exc.value) == f"unreadable thing {path}: Permission denied"


class TestAtomicWrite:
    def test_creates_directory_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "a" / "b" / "record"
        atomic_write(str(target), "one\n")
        atomic_write(str(target), b"two\n")
        assert target.read_text() == "two\n"
        assert os.listdir(target.parent) == ["record"]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "state"
        target.write_text("old\n")
        target.chmod(0o604)
        atomic_write(str(target), "new\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o604

    def test_symlink_stays_and_target_is_replaced(self, tmp_path):
        real = tmp_path / "shared" / "scramdb"
        link = tmp_path / "scramdb"
        link.symlink_to(real)
        atomic_write(str(link), "P 1 arch /p\n")
        assert link.is_symlink()
        assert real.read_text() == "P 1 arch /p\n"

    def test_failed_write_removes_temp(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write(str(tmp_path / "record"), 42)
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("write", [atomic_write, write_new])
def test_write_under_a_regular_file_names_the_path(tmp_path, write):
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "sub" / "record"
    with pytest.raises(AreaError, match=f"^cannot write {target}: Not a directory$"):
        write(str(target), "x")


class TestPrivateTree:
    def test_published_by_one_rename(self, tmp_path):
        target = tmp_path / "P_1"
        with private_tree(str(target)) as tree:
            assert re.fullmatch(r"\.P_1\.[0-9a-f]{8}\.partial", Path(tree).name)
            assert Path(tree).parent == tmp_path
            write_new(os.path.join(tree, "a", "b"), "one\n")
            write_new(os.path.join(tree, "a", "b"), b"two\n")
            assert not target.exists()
        assert os.listdir(tmp_path) == ["P_1"]
        assert (target / "a" / "b").read_text() == "two\n"

    def test_failure_removes_the_tree(self, tmp_path):
        with pytest.raises(KeyError):
            with private_tree(str(tmp_path / "P_1")) as tree:
                write_new(os.path.join(tree, "a"), "x")
                raise KeyError("boom")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("occupant", ["empty directory", "dangling symlink"])
    def test_anything_at_the_target_fails_at_once(self, tmp_path, occupant):
        target = tmp_path / "P_1"
        if occupant == "empty directory":
            target.mkdir()
        else:
            target.symlink_to(tmp_path / "nowhere")
        with pytest.raises(AreaError, match=f"^target directory already exists: {target}$"):
            with private_tree(str(target)):
                pytest.fail("the body ran")
        assert os.listdir(tmp_path) == ["P_1"]

    def test_unusable_directory_names_the_target(self, tmp_path):
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "P_1"
        with pytest.raises(AreaError,
                           match=f"^cannot create directory {target}: Not a directory$"):
            with private_tree(str(target)):
                pytest.fail("the body ran")

    @pytest.mark.parametrize("winner", ["directory", "file"])
    def test_target_that_appeared_meanwhile(self, tmp_path, winner):
        target = tmp_path / "P_1"
        with pytest.raises(AreaError, match="target directory already exists"):
            with private_tree(str(target)) as tree:
                write_new(os.path.join(tree, "mine"), "x")
                if winner == "file":
                    target.write_text("theirs")
                else:
                    write_new(str(target / "theirs"), "x")
        assert os.listdir(tmp_path) == ["P_1"]


TEMP = r"\.{name}\.[0-9a-f]{{8}}\.tmp"


class TestPrivateFile:
    def test_appended_then_published_by_one_rename(self, tmp_path):
        target = tmp_path / "packs" / "one.pack"
        private = PrivateFile(str(target))
        (temp,) = os.listdir(tmp_path / "packs")
        assert re.fullmatch(TEMP.format(name=r"one\.pack"), temp)
        assert private.append(b"abc") == 0
        assert private.append(b"de") == 3
        assert os.pread(private.fd, 2, 3) == b"de"
        assert not target.exists()
        private.finish(b"f")
        assert os.listdir(tmp_path / "packs") == ["one.pack"]
        assert target.read_bytes() == b"abcdef"

    def test_two_writers_of_one_target_get_their_own_temp(self, tmp_path):
        first = PrivateFile(str(tmp_path / "record"))
        second = PrivateFile(str(tmp_path / "record"))
        assert first.path != second.path
        first.finish("one\n")
        second.finish("two\n")
        assert os.listdir(tmp_path) == ["record"]
        assert (tmp_path / "record").read_text() == "two\n"

    def test_discard_removes_it(self, tmp_path):
        private = PrivateFile(str(tmp_path / "one.pack"))
        private.append(b"x")
        private.discard()
        assert os.listdir(tmp_path) == []

    def test_failed_finish_removes_it(self, tmp_path):
        target = tmp_path / "record"
        (target / "occupied").mkdir(parents=True)
        private = PrivateFile(str(target))
        with pytest.raises(AreaError, match=f"^cannot publish {target}: "):
            private.finish(b"x")
        assert os.listdir(tmp_path) == ["record"]

    def test_unusable_directory_names_the_target(self, tmp_path):
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "one.pack"
        with pytest.raises(AreaError, match=f"^cannot write {target}: Not a directory$"):
            PrivateFile(str(target))


def test_list_dir_skips_the_dot_names_of_temp_files(tmp_path):
    PrivateFile(str(tmp_path / "record")).append("half")
    with pytest.raises(OSError):
        with private_tree(str(tmp_path / "tree")):
            raise OSError("the tree is never published")
    (tmp_path / "kept").write_text("")
    (tmp_path / ".partial-left-by-a-kill").mkdir()
    assert len(os.listdir(tmp_path)) == 3
    assert list_dir(str(tmp_path), "directory") == ["kept"]


def test_make_dirs_names_the_path(tmp_path):
    make_dirs(str(tmp_path / "a" / "b"))
    assert (tmp_path / "a" / "b").is_dir()
    with pytest.raises(AreaError, match=f"^cannot create directory {tmp_path / 'a'}: "):
        make_dirs(str(tmp_path / "a"))


@pytest.mark.parametrize("below", ["", "a/b"], ids=["the path", "a parent"])
@pytest.mark.parametrize("doing, make", [("create directory", make_dirs),
                                         ("write", PrivateFile)])
def test_a_dangling_symlink_in_the_way_is_the_reason(tmp_path, doing, make, below):
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "nowhere")
    path = link / below / "leaf"
    with pytest.raises(AreaError, match=(
            f"^cannot {doing} {path}: {link} is a dangling symlink$")):
        make(str(path))
    assert os.listdir(tmp_path) == ["link"]


class TestLocked:
    def test_second_holder_fails_without_wait(self, tmp_path):
        path = str(tmp_path / "locks" / "lock")
        with locked(path, wait=True) as held:
            assert held
            with locked(path, wait=False) as second:
                assert not second
        with locked(path, wait=False) as held:
            assert held
        assert os.path.exists(path)  # never unlinked

    def test_an_error_in_the_body_propagates(self, tmp_path):
        path = str(tmp_path / "lock")
        with pytest.raises(BlockingIOError):
            with locked(path, wait=False) as held:
                assert held
                raise BlockingIOError
        with locked(path, wait=False) as held:
            assert held  # released

    def test_unusable_lock_path_names_it(self, tmp_path):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "lock"
        with pytest.raises(AreaError, match=f"^cannot lock {path}: Not a directory$"):
            with locked(str(path), wait=True):
                pass


def _writes_mode(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False  # default "r"
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def _disk_calls(tree: ast.AST) -> list[str]:
    """Thread imports, write-mode opens, renames over a target, hard links
    and locks."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += ["import threading" for a in node.names if a.name == "threading"]
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            found.append("import threading")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                call = f"{func.value.id}.{func.attr}"
                if call in ("os.replace", "os.rename", "os.link", "fcntl.flock"):
                    found.append(call)
            elif isinstance(func, ast.Name) and func.id == "open" and _writes_mode(node):
                found.append("write-mode open")
    return sorted(found)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_state_reaches_disk_only_through_the_helper(source):
    """No threads; every write, rename, link and lock goes through fsutil,
    which has one lock call site, one rename, the publish of a private
    file or a private tree, and one link."""
    found = _disk_calls(ast.parse(source.read_text()))
    assert found == (["fcntl.flock", "os.link", "os.rename"] if source.name == HELPER
                     else [])


def _builtin_opens(tree: ast.AST) -> int:
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open" for node in ast.walk(tree))


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_state_is_read_only_through_the_helper(source):
    """Every file of local state is read through fsutil, under one error
    rule; urlaccess also opens files, to read fetched documents."""
    opens = _builtin_opens(ast.parse(source.read_text()))
    assert opens == 0 or source.name in (HELPER, "urlaccess.py"), opens


def _scram_imports(tree: ast.AST) -> set[str]:
    """The scram modules a source imports, at the top or inside a function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("scram."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "scram" and not module.startswith("scram."):
                    continue
                module = module[len("scram."):]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


def test_import_census_sees_every_form():
    tree = ast.parse("import scram.runtime\nfrom scram.project import x\n"
                     "from . import cli\nfrom .errors import e\nimport os\n"
                     "def f():\n    from .markup import m\n")
    assert _scram_imports(tree) == {"runtime", "project", "cli", "errors", "markup"}


@pytest.mark.parametrize("module", ["configuration", "tooldoc"])
def test_resolution_modules_import_no_area_or_environment_code(module):
    """Configurations and tool documents resolve to plain pins and records;
    building environments from them and storing them is left to runtime
    and project, so neither is imported here."""
    source = Path(scram.__file__).parent / f"{module}.py"
    imported = _scram_imports(ast.parse(source.read_text()))
    assert imported & {"runtime", "project"} == set()
