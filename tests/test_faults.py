"""Fault sweep: a cold bootstrap of the toy project's four tools, into a
``--dest`` that it makes, failed at each of its mutating file operations in
turn. An audit hook (PEP 578), on the forwarder that ``conftest`` installs,
raises ``OSError`` with one errno at the k-th mutating operation on a path
under the test's directory: an ``open`` for writing or with ``O_CREAT``,
``os.mkdir``, ``os.rename``, ``os.remove`` (which ``os.unlink`` raises too),
``os.link`` and ``os.rmdir``. ``os.write`` and ``os.fsync`` raise no audit
events, so a fault while a file's bytes are written is not swept, nor is
one on a path given relative to a directory's fd, as ``shutil.rmtree``
gives them. After each point:

- the command exits 0, or prints exactly one ``scram:`` line and exits 1;
- nothing is new outside the document cache, but the area of a run that
  exited 0;
- a rerun exits 0, once the area of a run that exited 0 is removed.

The points swept and, for each check, the points that break it are pinned
per errno, as the budgets of ``test_budgets`` are: lowering a count is a
result, and raising one needs a reason.
"""

import errno
import os
import shutil
from collections import Counter

import pytest

from conftest import audit_events, make_toy_project
from scram.cli import main

MUTATING = {"os.mkdir", "os.rename", "os.remove", "os.link", "os.rmdir"}
WRITING = os.O_WRONLY | os.O_RDWR | os.O_CREAT

# the bootstrap's mutating operations: the cache's two directories and its
# pack; the two directories of --dest; the private tree's ten directories
# and eleven opens, two of them made again once their directory is; the
# record store's directory and five links, one made again; the renames of
# the pack and the area
POINTS = 34
# errno -> the points swept and, for each check, the points that break it
BUDGETS = {name: {"points": POINTS, "exit": 0, "debris": 0, "rerun": 0}
           for name in ("ENOSPC", "EACCES", "EIO")}


def paths(root: str, skip: str) -> set[str]:
    """Every path below ``root`` but ``skip`` and what it holds."""
    found = set()
    for directory, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if os.path.join(directory, d) != skip]
        found.update(os.path.join(directory, name) for name in dirs + files)
    return found


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_a_cold_bootstrap_ends_well_after_each_fault(tmp_path, capsys, name):
    code = getattr(errno, name)
    toy = make_toy_project(tmp_path)
    root, cache = str(tmp_path), toy.env["SCRAM_CACHE"]
    dest = os.path.join(str(toy.install_root), "made", "dest")
    area = os.path.join(dest, "ORCA_7_1_3")
    argv = ["bootstrap", toy.bootstrap_url, "--dest", dest]
    before = paths(root, cache)
    prefix = root + os.sep

    def bootstrap(fault_at: int = 0) -> tuple[int, str, list[str]]:
        """The exit status and stderr of a bootstrap whose ``fault_at``-th
        mutating operation fails, and every such operation it made."""
        made = []

        def inject(event, args):
            if (event in MUTATING or event == "open" and args[2] & WRITING) \
                    and isinstance(args[0], (str, bytes, os.PathLike)) \
                    and os.fsdecode(args[0]).startswith(prefix):
                made.append(f"{event} {os.fsdecode(args[0])[len(prefix):]}")
                if len(made) == fault_at:
                    raise OSError(code, os.strerror(code), args[0])

        with audit_events(inject):
            status = main(argv, env=toy.env, cwd=root)
        return status, capsys.readouterr().err, made

    def reset() -> None:
        for path in sorted(paths(root, "") - before):
            shutil.rmtree(path, ignore_errors=True)

    status, err, operations = bootstrap()
    assert status == 0, err
    reset()
    broken, where = Counter(exit=0, debris=0, rerun=0), []
    for k, operation in enumerate(operations, 1):
        status, err, made = bootstrap(k)
        assert len(made) >= k  # the fault was made
        failed = []
        if not (status == 0 or status == 1 and err.count("\n") == 1
                and err.startswith("scram: ")):
            failed.append("exit")
        new = paths(root, cache) - before
        if status == 0:
            # the area, what it holds and the directories above it
            new = {path for path in new
                   if os.path.commonpath([path, area]) not in (path, area)}
            shutil.rmtree(area)
        if new:
            failed.append("debris")
        if bootstrap()[0] != 0:
            failed.append("rerun")
        broken.update(failed)
        where.extend(f"{check} at {k}: {operation}" for check in failed)
        reset()
    assert {"points": len(operations), **broken} == BUDGETS[name], "\n".join(where)
