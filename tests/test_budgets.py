"""Operation budgets: how many files each tool-record verb opens, lists,
creates directories for, renames and removes, counted with an audit hook on the
paths under the test's own directory, so imports and the interpreter do not
count. Counts do not drift from run to run as timings do, so a change that
adds an open per tool, or reads a record that a verb does not need, fails
here. The fixture is the benchmark's seed-1 corpus (``perfbench/corpus.py``,
loaded by path) with 4 and 40 tools, in its central area and in a developer
area linked to it. A count that grows with the number of tools n is
asserted as a formula in n; every other count is asserted at both sizes."""

import os
from collections import Counter

import pytest

from conftest import audit_events
from scram.cli import main
from test_payload_equivalence import load_corpus

# audit event -> the operation it counts
OPERATIONS = {"open": "open", "os.listdir": "list", "os.scandir": "list",
              "os.mkdir": "mkdir", "os.rename": "rename", "os.remove": "remove"}


def counted(root: str, verb):
    """The operations on paths under ``root`` while ``verb()`` runs."""
    prefix = root + os.sep
    counts = Counter()

    def record(event, args):
        operation = OPERATIONS.get(event)
        if operation is not None and isinstance(args[0], (str, bytes, os.PathLike)):
            if os.fsdecode(args[0]).startswith(prefix):
                counts[operation] += 1

    with audit_events(record):
        verb()
    return dict(counts)


def bootstrap_budget(n: int) -> dict[str, int]:
    # half the corpus's tools have their library directory probed
    return {"open": 2 * n + 17, "list": n // 2 + 5, "mkdir": 12, "rename": 2}


def budgets(n: int, area: str, deps: int) -> dict[str, dict[str, int]]:
    """Each verb's operations in an area of ``n`` tools, when the tool set
    up by URL has ``deps`` externals."""
    # a developer area lists its own records and area directories too; its
    # first local record makes its tools directory: the first open of the
    # temp file fails, both directories are made, and the open is retried
    local = {"central": 0, "developer": 1}[area]
    budget = {
        # the records that the tool's externals name, and no other
        "setup NAME VER URL": {"open": 5 + deps + local, "list": 3,
                               "mkdir": 2 * local, "rename": 1},
        "runtime -sh": {"open": n + 3, "list": 4 + 2 * local},
        "tool list": {"open": n + 2, "list": 2},
        "tool info": {"open": 2, "list": 2},
        # the records are listed twice: to compare versions, then to resolve
        "setup": {"open": n + 4, "list": 4},
    }
    return {verb: {op: count for op, count in ops.items() if count}
            for verb, ops in budget.items()}


@pytest.mark.parametrize("n", [4, 40])
def test_record_verbs_stay_within_their_budgets(tmp_path, capsys, n):
    corpus = load_corpus()
    generated = corpus.generate(1, n)
    root = str(tmp_path)
    croot = os.path.join(root, "corpus")
    generated.write(croot)
    for sub in ("central", "work"):
        os.mkdir(os.path.join(root, sub))
    env = {"PATH": "/usr/bin:/bin", "HOME": root, "SCRAM_ARCH": corpus.ARCH,
           "SCRAM_SITE": os.path.join(croot, "site.cfg"),
           "SCRAM_CACHE": os.path.join(root, "cache"),
           "SCRAM_LOOKUPDB": os.path.join(root, "scramdb")}

    def scram(cwd, *argv):
        def verb():
            assert main(list(argv), env=env, cwd=cwd) == 0, capsys.readouterr().err
        return verb

    central = os.path.join(root, "central", corpus.AREA_NAME)
    developer = os.path.join(root, "work", corpus.AREA_NAME)
    assert counted(root, scram(root, "bootstrap", generated.bootstrap_url(croot),
                               "--dest", os.path.join(root, "central"))
                   ) == bootstrap_budget(n)
    scram(central, "install", "--force")()
    scram(os.path.join(root, "work"), "project", corpus.PROJECT,
          corpus.PROJECT_VERSION)()
    # set up a tool at its pinned version, so that a bare setup has
    # nothing to do; in the developer area it becomes a local record. Its
    # library directory comes from the site file, so no probe lists one.
    tool = next(generated.tools[i] for i in generated.select_order
                if not generated.tools[i].probed)
    for area, cwd in (("central", central), ("developer", developer)):
        measured = {}
        for verb, argv in (
                ("setup NAME VER URL",
                 ("setup", tool.name, tool.pinned, generated.tool_url(croot, tool))),
                ("runtime -sh", ("runtime", "-sh")),
                ("tool list", ("tool", "list")),
                ("tool info", ("tool", "info", tool.name)),
                ("setup", ("setup",))):
            measured[verb] = counted(root, scram(cwd, *argv))
        assert capsys.readouterr().out.count("set up ") == 1
        assert (area, measured) == (area, budgets(n, area, len(tool.deps)))
