"""Operation budgets: how many files each verb opens, of them how many
with ``O_CREAT``, lists, creates directories for, renames, removes and
hard-links, counted with an audit hook on the
paths under the test's own directory, so imports and the interpreter do not
count. Counts do not drift from run to run as timings do, so a change that
adds an open per tool, reads a record that a verb does not need, or writes
a record before every tool has resolved, fails here. The fixture is the
benchmark's seed-1 corpus (``perfbench/corpus.py``, loaded by path) with 4
and 40 tools, in its central area and in a developer area linked to it. A
count that grows with the number of tools n is asserted as a formula in n;
every other count is asserted at both sizes. The document caches that
``bootstrap`` and ``setup`` open are pinned too, each by its hits and
misses, and so is the work each verb does on markup: the documents it
tokenizes and the events they give, counted by a spy on
``tokenize_markup`` where ``activedoc`` and ``runtime`` bound it. The bytes
each verb decodes as JSON are pinned too, counted by a spy on
``json.load`` and ``json.loads`` where ``fsutil``, ``urlaccess`` and
``activedoc`` bind them; the test's directory gets a name of fixed length,
so that the paths in records, documents and pack keys do not move them.
The pack index entries each verb checks are pinned too, counted by a spy on
``urlaccess._well_formed``, and so are the SHA-256s each verb computes,
counted by a spy on ``sha256_of`` where ``urlaccess`` and ``activedoc``
bind it."""

import json
import os
import re
import shutil
from collections import Counter

import pytest

from conftest import audit_events
from scram import activedoc, fsutil, runtime, urlaccess
from scram.cli import main
from scram.urlaccess import UrlCache
from test_payload_equivalence import load_corpus

# audit event -> the operation it counts; an open that may create its
# file (its flags hold O_CREAT) counts as a create too
OPERATIONS = {"open": "open", "os.listdir": "list", "os.scandir": "list",
              "os.mkdir": "mkdir", "os.rename": "rename", "os.remove": "remove",
              "os.link": "link"}


def counted(roots: tuple[str, ...], verb):
    """The operations on paths under any of ``roots`` while ``verb()`` runs."""
    prefixes = tuple(root + os.sep for root in roots)
    counts = Counter()

    def record(event, args):
        operation = OPERATIONS.get(event)
        if operation is not None and isinstance(args[0], (str, bytes, os.PathLike)):
            if os.fsdecode(args[0]).startswith(prefixes):
                counts[operation] += 1
                if operation == "open" and args[2] & os.O_CREAT:
                    counts["create"] += 1

    with audit_events(record):
        verb()
    return dict(counts)


def table(measured: dict, budget: dict) -> str:
    """Every verb's measured and budgeted count of each operation, one line
    apiece, a line off its budget marked, so that one run shows them all."""
    lines = [f"{'verb':<44}{'operation':<10}{'measured':>9}{'budget':>8}"]
    for verb in dict.fromkeys([*budget, *measured]):
        got, want = measured.get(verb, {}), budget.get(verb, {})
        for op in sorted(got.keys() | want.keys()):
            mark = "" if got.get(op) == want.get(op) else "  <-- off budget"
            lines.append(f"{verb:<44}{op:<10}{got.get(op, 0):>9}{want.get(op, 0):>8}{mark}")
    return "\n".join(lines)


def bootstrap_budget(n: int) -> dict[str, int]:
    # half the corpus's tools have their library directory probed. Each
    # tool record's entry in the record store is opened first, and is not
    # there; the record is created, then linked into the store, whose
    # directory is made at the first link, which is made again. The
    # creates are the area and state files, the two downloads, the
    # identity, the pack and the records, of which the configuration's and
    # the first tool's are opened again once their directory is made.
    return {"open": 3 * n + 15, "create": n + 9, "link": n + 1,
            "list": n // 2 + 3, "mkdir": 13, "rename": 2}


def warm_bootstrap_budget(n: int) -> dict[str, int]:
    # every document comes from the one pack the cold bootstrap published,
    # so no document file is opened and no pack is written; the site file,
    # the pack, the area and state files, the two downloads, the identity,
    # the configuration record, opened again once its directory is made,
    # and each tool record's entry in the record store, which holds it and
    # is linked in its place: no tool record is created, and the first
    # link is made again once the tools directory is made
    return {"open": n + 9, "create": 7, "link": n + 1,
            "list": n // 2 + 2, "mkdir": 11, "rename": 1}


def lifecycle_budget(n: int) -> dict[str, dict[str, int]]:
    return {
        # the area's lock, Link, state and area files; the state and the
        # registry, under its lock, are each rewritten by a rename; the
        # two locks and two temp files are creates
        "install --force": {"open": 8, "create": 4, "rename": 2},
        # the registry and the central configuration identity are read; a
        # private tree of seven directories is made, its four files
        # created and the tree renamed into place
        "project": {"open": 6, "create": 4, "mkdir": 8, "rename": 1},
        "list": {"open": 1},
        # the area's Link, lock and area files, the site file, the
        # configuration and every record; the state's rewrite; the tools,
        # bin and lib directories; the lock and the temp file are creates
        "build": {"open": n + 6, "create": 2, "list": 3, "rename": 1},
    }


# the events of the documents each verb tokenizes, by corpus size: they
# follow each tool's versions and externals, not n alone
EVENTS = {
    4: {"bootstrap": 265, "bootstrap, warm cache": 16, "runtime -sh --app": 10},
    40: {"bootstrap": 2842, "bootstrap, warm cache": 62, "runtime -sh --app": 12},
}


def work_budget(n: int) -> dict[str, dict[str, int]]:
    """The documents that each verb tokenizes, and their events; every verb
    left out tokenizes none. A cold bootstrap tokenizes itself, the
    requirements, the configuration, the n tool documents and the fragment
    that some of them inline; it keeps the payloads of the configuration
    and the tool documents in its pack. From then on those payloads are
    served, so a warm bootstrap tokenizes only itself and the requirements,
    and setting up tools tokenizes nothing. Overlaying an application
    environment tokenizes its file."""
    budget = {"bootstrap": {"documents": n + 4, "events": EVENTS[n]["bootstrap"]},
              "bootstrap, warm cache": {"documents": 2,
                                        "events": EVENTS[n]["bootstrap, warm cache"]}}
    for area in ("central", "developer"):
        budget[f"{area}: runtime -sh --app"] = {
            "documents": 1, "events": EVENTS[n]["runtime -sh --app"]}
    return budget


# the bytes that each verb decodes as JSON, by corpus size; every verb left
# out decodes none. Records, pack indexes and kept payloads all count.
JSON_BYTES = {
    4: {
        "bootstrap, warm cache": 11836,
        "build": 5757,
        "central: setup NAME VER URL": 8157,
        "central: runtime -sh": 5757,
        "central: runtime -sh --app": 5757,
        "central: tool list": 5757,
        "central: tool info": 739,
        "central: setup": 1344,
        "central: setup, one record missing": 10342,
        "developer: setup NAME VER URL": 8157,
        "developer: runtime -sh": 5757,
        "developer: runtime -sh --app": 5757,
        "developer: tool list": 5757,
        "developer: tool info": 739,
        "developer: setup": 5018,
        "developer: setup, one record missing": 12472,
        "developer: setup, last missing tool fails": 9029,
        "central: setup, last missing tool fails": 9029,
    },
    40: {
        "bootstrap, warm cache": 104024,
        "build": 59908,
        "central: setup NAME VER URL": 41819,
        "central: runtime -sh": 59908,
        "central: runtime -sh --app": 59908,
        "central: tool list": 59908,
        "central: tool info": 787,
        "central: setup": 13349,
        "central: setup, one record missing": 55432,
        "developer: setup NAME VER URL": 41819,
        "developer: runtime -sh": 59908,
        "developer: runtime -sh --app": 59908,
        "developer: tool list": 59908,
        "developer: tool info": 787,
        "developer: setup": 59121,
        "developer: setup, one record missing": 99669,
        "developer: setup, last missing tool fails": 96793,
        "central: setup, last missing tool fails": 54549,
    },
}
# the pack index entries that each verb checks, by corpus size; every verb
# left out checks none. A lookup checks only its key's entries, one in each
# pack that holds the key: a warm bootstrap looks up each of the 2n + 7 keys
# of the one pack, and setting up tools only the keys of their documents
# and payloads, however many other keys the pack holds.
ENTRIES_CHECKED = {
    4: {
        "bootstrap, warm cache": 15,
        "central: setup NAME VER URL": 3,
        "central: setup, one record missing": 2,
        "central: setup, last missing tool fails": 4,
        "developer: setup NAME VER URL": 3,
        "developer: setup, one record missing": 2,
        "developer: setup, last missing tool fails": 4,
    },
    40: {
        "bootstrap, warm cache": 87,
        "central: setup NAME VER URL": 2,
        "central: setup, one record missing": 2,
        "central: setup, last missing tool fails": 4,
        "developer: setup NAME VER URL": 2,
        "developer: setup, one record missing": 2,
        "developer: setup, last missing tool fails": 4,
    },
}
# the SHA-256s that each verb computes, by corpus size; every verb left out
# computes none. A fetch hashes what it serves or keeps, a recall what it
# serves, a kept payload its bytes and a tool record that a bootstrap
# writes its bytes, for its name in the record store, and nothing else
# hashes: a bootstrap, cold or warm, hashes 3n + 7 times, each tool
# document once for its content and once for its payload, and each tool
# record once.
SHA256 = {
    4: {
        "bootstrap": 19,
        "bootstrap, warm cache": 19,
        "central: setup NAME VER URL": 3,
        "central: setup, one record missing": 2,
        "central: setup, last missing tool fails": 4,
        "developer: setup NAME VER URL": 3,
        "developer: setup, one record missing": 2,
        "developer: setup, last missing tool fails": 4,
    },
    40: {
        "bootstrap": 127,
        "bootstrap, warm cache": 127,
        "central: setup NAME VER URL": 2,
        "central: setup, one record missing": 2,
        "central: setup, last missing tool fails": 4,
        "developer: setup NAME VER URL": 2,
        "developer: setup, one record missing": 2,
        "developer: setup, last missing tool fails": 4,
    },
}
# the length of the test's directory, padded to it
ROOT_LENGTH = 240
# a pack index entry's last field, the time of its fetch, whose printed
# width varies from run to run; it counts as one byte
_FETCHED_AT = re.compile(rb", \d+(\.\d+)?(e[-+]?\d+)?\]")


class CountingJson:
    """The ``json`` module as a module that binds it sees it, but adding
    the bytes that ``load`` and ``loads`` decode to ``counter["bytes"]``."""

    def __init__(self, counter: Counter):
        self._counter = counter

    def __getattr__(self, name):
        return getattr(json, name)

    def loads(self, data, *args, **kwargs):
        raw = data.encode() if isinstance(data, str) else bytes(data)
        self._counter["bytes"] += len(_FETCHED_AT.sub(b", 0]", raw))
        return json.loads(data, *args, **kwargs)

    def load(self, fh, *args, **kwargs):
        return self.loads(fh.read(), *args, **kwargs)


def budgets(n: int, area: str, deps: int, work_deps: int,
            fail_deps: int) -> dict[str, dict[str, int]]:
    """Each verb's operations in an area of ``n`` tools, when the tool set
    up by URL has ``deps`` externals, the tool whose record a bare setup
    restores has ``work_deps``, and the two tools of a failing bare setup
    name ``fail_deps`` records besides their own."""
    # a developer area lists the central tools directory and its own, and
    # its own area directories too; its first local record makes its tools
    # directory: the first open of the temp file fails, both directories
    # are made, and the open is retried. The area lock, opened with
    # O_CREAT by every setup, counts as a create.
    local = {"central": 0, "developer": 1}[area]

    def compared(skipped: int) -> int:
        """The records that a bare setup opens to compare versions: the
        central ones of a developer area, less the ``skipped`` that are
        local or missing there; a central area's records are all local."""
        return (n - skipped) * local

    budget = {
        # the records that the tool's externals name, and no other; the
        # spec fetch lists the cache. The lock and the record's temp file
        # are created, and no record is linked: setup has no record store
        "setup NAME VER URL": {"open": 5 + deps + local, "create": 2 + local,
                               "list": 2 + local, "mkdir": 2 * local, "rename": 1},
        # each area's tools, bin and lib directories
        "runtime -sh": {"open": n + 3, "list": 3 * (1 + local)},
        # the same and the area's app-env file
        "runtime -sh --app": {"open": n + 4, "list": 3 * (1 + local)},
        "tool list": {"open": n + 2, "list": 1 + local},
        "tool info": {"open": 2, "list": 1 + local},
        # the records are listed once: to compare versions and to resolve;
        # the tool set up by URL has a local record, which is not compared
        "setup": {"open": 4 + compared(1), "create": 1, "list": 1 + local},
        # counted in the areas alone, so the site file, the spec fetch and
        # any library probe do not count: a bare setup with nothing to do
        # has the same listings and, less the site file, 3 opens besides
        # the records it compares; here the missing record is written, and
        # the records that the tool's externals name are read
        "setup, one record missing": {"open": 4 + compared(2) + work_deps,
                                      "create": 2, "list": 1 + local, "rename": 1},
        # two records are missing and the one resolved last fails: the
        # other's record is not written, so nothing is renamed; the record
        # restored before is local to a developer area by now
        "setup, last missing tool fails": {"open": 3 + compared(4) + fail_deps,
                                           "create": 1, "list": 1 + local},
    }
    return {f"{area}: {verb}": {op: count for op, count in ops.items() if count}
            for verb, ops in budget.items()}


@pytest.mark.parametrize("n", [4, 40])
def test_record_verbs_stay_within_their_budgets(tmp_path, capsys, monkeypatch, n):
    caches = []  # every document cache the verbs open
    real_init = UrlCache.__init__

    def init(self, *args, **kwargs):
        caches.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(UrlCache, "__init__", init)
    tokenized = Counter()  # the documents and events of the last verb

    def spy(real):
        def tokenize_markup(text, *args, **kwargs):
            events = real(text, *args, **kwargs)
            tokenized["documents"] += 1
            tokenized["events"] += len(events)
            return events
        return tokenize_markup

    for module in (activedoc, runtime):
        monkeypatch.setattr(module, "tokenize_markup", spy(module.tokenize_markup))
    decoded = Counter()  # the JSON bytes of the last verb
    for module in (fsutil, urlaccess, activedoc):
        if hasattr(module, "json"):
            monkeypatch.setattr(module, "json", CountingJson(decoded))
    checked = Counter()  # the pack index entries the last verb checked
    real_well_formed = urlaccess._well_formed

    def well_formed(*args):
        checked["entries"] += 1
        return real_well_formed(*args)

    monkeypatch.setattr(urlaccess, "_well_formed", well_formed)
    hashed = Counter()  # the SHA-256s the last verb computed
    for module in (urlaccess, activedoc):
        if hasattr(module, "sha256_of"):
            def sha256_of(data, real=module.sha256_of):
                hashed["sha256"] += 1
                return real(data)
            monkeypatch.setattr(module, "sha256_of", sha256_of)

    def fetches() -> list[tuple[int, int]]:
        """The hits and misses of each cache that the last verb opened."""
        return [(cache.stats.hits, cache.stats.misses) for cache in caches]

    corpus = load_corpus()
    generated = corpus.generate(1, n)
    padding = ROOT_LENGTH - len(str(tmp_path)) - 1
    assert padding > 0, f"{tmp_path} is too long to pad to {ROOT_LENGTH}"
    root = os.path.join(str(tmp_path), "r" * padding)
    os.mkdir(root)
    croot = os.path.join(root, "corpus")
    generated.write(croot)
    for sub in ("central", "work"):
        os.mkdir(os.path.join(root, sub))
    env = {"PATH": "/usr/bin:/bin", "HOME": root, "SCRAM_ARCH": corpus.ARCH,
           "SCRAM_SITE": os.path.join(croot, "site.cfg"),
           "SCRAM_CACHE": os.path.join(root, "cache"),
           "SCRAM_LOOKUPDB": os.path.join(root, "scramdb")}

    def scram(cwd, *argv, status=0):
        def verb():
            caches.clear()
            tokenized.clear()
            decoded.clear()
            checked.clear()
            hashed.clear()
            assert main(list(argv), env=env, cwd=cwd) == status, capsys.readouterr().err
        return verb

    central = os.path.join(root, "central", corpus.AREA_NAME)
    developer = os.path.join(root, "work", corpus.AREA_NAME)
    # each verb's operations, its markup work, its JSON bytes, the index
    # entries it checked and the SHA-256s it computed
    measured, worked, json_bytes, entries, hashes = {}, {}, {}, {}, {}

    def measure(key: str, roots: tuple[str, ...], verb) -> None:
        measured[key] = counted(roots, verb)
        if tokenized:
            worked[key] = dict(tokenized)
        if decoded:
            json_bytes[key] = decoded["bytes"]
        if checked:
            entries[key] = checked["entries"]
        if hashed:
            hashes[key] = hashed["sha256"]

    fetched = {}
    for verb, dest in (("bootstrap", "central"), ("bootstrap, warm cache", "warm")):
        measure(verb, (root,), scram(
            root, "bootstrap", generated.bootstrap_url(croot),
            "--dest", os.path.join(root, dest)))
        fetched[verb] = fetches()
    for verb, cwd, argv in (
            ("install --force", central, ("install", "--force")),
            ("project", os.path.join(root, "work"),
             ("project", corpus.PROJECT, corpus.PROJECT_VERSION)),
            ("list", root, ("list",)),
            ("build", central, ("build",))):
        measure(verb, (root,), scram(cwd, *argv))
    budget = {"bootstrap": bootstrap_budget(n),
              "bootstrap, warm cache": warm_bootstrap_budget(n), **lifecycle_budget(n)}
    # set up a tool at its pinned version, so that a bare setup has
    # nothing to do; in the developer area it becomes a local record. Its
    # library directory comes from the site file, so no probe lists one.
    tool = next(generated.tools[i] for i in generated.select_order
                if not generated.tools[i].probed)
    # then remove the central record of another tool, one with externals,
    # and a bare setup has that one to restore
    work = next(generated.tools[i] for i in generated.select_order
                if generated.tools[i].deps and generated.tools[i] is not tool)
    work_record = os.path.join(central, ".SCRAM", corpus.ARCH, "tools", work.key)
    # last, a bare setup has two more tools to restore, and the one
    # resolved second cannot resolve
    first, second = [i for i in generated.select_order
                     if generated.tools[i] not in (tool, work)][:2]
    if second in generated.tools[first].deps:
        first, second = second, first
    failing = generated.tools[second]
    fail_deps = {*generated.tools[first].deps, *failing.deps} - {first, second}
    for area, cwd in (("central", central), ("developer", developer)):
        app_dir = os.path.join(cwd, "config", "app-env")
        os.makedirs(app_dir)
        shutil.copy(os.path.join(croot, "app-env", area),
                    os.path.join(app_dir, corpus.APP_NAME))
        for verb, argv in (
                ("setup NAME VER URL",
                 ("setup", tool.name, tool.pinned, generated.tool_url(croot, tool))),
                ("runtime -sh", ("runtime", "-sh")),
                ("runtime -sh --app", ("runtime", "-sh", "--app", corpus.APP_NAME)),
                ("tool list", ("tool", "list")),
                ("tool info", ("tool", "info", tool.name)),
                ("setup", ("setup",))):
            measure(f"{area}: {verb}", (root,), scram(cwd, *argv))
            if verb.startswith("setup"):
                fetched[f"{area}: {verb}"] = fetches()
        os.remove(work_record)
        measure(f"{area}: setup, one record missing", (central, developer),
                scram(cwd, "setup"))
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("set up ")] == [f"set up {tool.key}",
                                                   f"set up {work.key}"]
        budget.update(budgets(n, area, len(tool.deps), len(work.deps), len(fail_deps)))
    # restore the central record, then remove those of the two tools and
    # the site value of the failing one
    scram(central, "setup")()
    for i in (first, second):
        os.remove(os.path.join(central, ".SCRAM", corpus.ARCH, "tools",
                               generated.tools[i].key))
    site = env["SCRAM_SITE"]
    with open(site) as fh:
        lines = fh.readlines()
    with open(site, "w") as fh:
        fh.writelines(line for line in lines
                      if not line.startswith(f"tool.{failing.key}.{failing.var}_BASE "))
    capsys.readouterr()
    # the developer area first: a record it wrote would stand in for the
    # central one
    for area, cwd in (("developer", developer), ("central", central)):
        measure(f"{area}: setup, last missing tool fails", (central, developer),
                scram(cwd, "setup", status=1))
        assert (f"cannot resolve client variable '{failing.var}_BASE' of {failing.key} "
                in capsys.readouterr().err)
    assert measured == budget, "\n" + table(measured, budget)
    work_budget_n = work_budget(n)
    assert worked == work_budget_n, "\n" + table(worked, work_budget_n)
    assert json_bytes == JSON_BYTES[n], "\n" + table(
        {verb: {"json": count} for verb, count in json_bytes.items()},
        {verb: {"json": count} for verb, count in JSON_BYTES[n].items()})
    assert entries == ENTRIES_CHECKED[n], "\n" + table(
        {verb: {"entries": count} for verb, count in entries.items()},
        {verb: {"entries": count} for verb, count in ENTRIES_CHECKED[n].items()})
    assert hashes == SHA256[n], "\n" + table(
        {verb: {"sha256": count} for verb, count in hashes.items()},
        {verb: {"sha256": count} for verb, count in SHA256[n].items()})
    # a cold bootstrap misses each document once: itself, its two
    # downloads, the requirements, the configuration they include, the n
    # tool documents and the fragment that some of them inline. A warm
    # bootstrap hits the same keys: the fragment is fetched to check the
    # hash that the payloads of the tools inlining it recorded. Setting up
    # by URL is served the tool's documents from that cache, and a bare
    # setup with nothing to do opens no cache at all.
    tool_docs = 1 + tool.inline
    assert fetched == {"bootstrap": [(0, n + 6)],
                       "bootstrap, warm cache": [(n + 6, 0)],
                       "central: setup NAME VER URL": [(tool_docs, 0)],
                       "central: setup": [],
                       "developer: setup NAME VER URL": [(tool_docs, 0)],
                       "developer: setup": []}
