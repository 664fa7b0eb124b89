"""Transcripts: every verb run in process through ``cli.main`` on the toy
project and on the benchmark's seed-1 corpus of four tools, checked line by
line against ``tests/transcripts/*.t``.

A transcript is prose and commands. Each ``  $ `` line is a command, run in
order in one fresh project under a fixed environment: ``scram ARGS...``
through ``cli.main``, ``cd DIR``, or a file command, each path relative to
``$TESTTMP``, the project's root. The file commands are ``cp SOURCE DEST``
(a directory is copied whole), ``write FILE TEXT [TIMES]`` (``TEXT`` read
with Python's backslash escapes, written ``TIMES`` times over), ``mkdir
DIR``, ``remove PATH...`` (each file, link or whole tree that is there),
``symlink LINK TARGET`` and ``export NAME=VALUE``, which sets a variable of the
environment of the later commands. ``corpus.t`` runs on the corpus that
``perfbench/corpus.py`` generates, in ``$TESTTMP/corpus``; every other
transcript runs on the toy project, in ``$TESTTMP/specs``. Below each scram
command its result is recorded, indented two spaces
(a blank line of output is two spaces): its stdout lines, its stderr lines
after ``! ``, a nonzero exit status as ``[N]``, and then every file and
directory it created (``+``), changed (``~``) or removed (``-``), sorted, a
file with a digest of its content.
``$TESTTMP`` stands for the root in output and content alike; a pack name
reads as ``<pack>`` and its content is not digested, as it holds the time
of its fetches, a file named by the SHA-256 of its content (a tool record
in the cache's record store) reads as ``<sha256:DIGEST>``, with the digest
shown beside it, and the random part of a temp-file name reads as
``<tmp>``.

``TRANSCRIPTS_UPDATE=1`` rewrites the files from what the commands give.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import shutil
from pathlib import Path

import pytest

from conftest import make_toy_project
from scram.cli import main
from test_payload_equivalence import load_corpus

TRANSCRIPTS = Path(__file__).parent / "transcripts"
PACK_RE = re.compile(r"\d+\.\d+\.[0-9a-f]{8}\.pack$")
TEMP_RE = re.compile(r"\.[0-9a-f]{8}\.(tmp|partial)(?=$|/)")


def _tree(root: str, inputs: str) -> dict[str, str]:
    """Every path under ``root`` but the ``inputs`` directory -> a digest of
    its content ("" for a directory, "*" for a pack)."""
    tree = {}
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        if rel_dir == ".":
            dirnames.remove(inputs)
        for name in dirnames:
            rel = os.path.normpath(os.path.join(rel_dir, name))
            tree[rel + "/"] = _link(root, rel) or ""
        for name in filenames:
            rel = os.path.normpath(os.path.join(rel_dir, name))
            if os.path.islink(os.path.join(root, rel)):
                tree[rel] = _link(root, rel)
                continue
            if PACK_RE.search(name):
                tree[rel] = "*"
                continue
            with open(os.path.join(dirpath, name), "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw.replace(root.encode(), b"$TESTTMP")).hexdigest()[:12]
            if name == hashlib.sha256(raw).hexdigest():
                # named by its own bytes, which may hold the root
                rel = os.path.normpath(os.path.join(rel_dir, f"<sha256:{digest}>"))
            tree[rel] = digest
    return tree


def _link(root: str, rel: str) -> str | None:
    """``-> TARGET`` if ``rel`` is a symlink, with ``$TESTTMP`` for ``root``."""
    path = os.path.join(root, rel)
    if not os.path.islink(path):
        return None
    return "-> " + os.readlink(path).replace(root, "$TESTTMP")


def _file_command(argv: list[str], root: str, env: dict) -> None:
    """Run the file command ``argv``, its paths relative to ``root``."""
    command, args = argv[0], argv[1:]
    if command == "export":
        name, _, value = args[0].partition("=")
        env[name] = value
        return
    path = os.path.join(root, args[0])
    if command == "cp":
        dest = os.path.join(root, args[1])
        if os.path.isdir(path):
            shutil.copytree(path, dest, symlinks=True)
        else:
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            shutil.copy(path, dest)
    elif command == "write":
        data = args[1].encode().decode("unicode_escape").encode("latin-1")
        with open(path, "wb") as fh:
            fh.write(data * int(args[2] if len(args) > 2 else 1))
    elif command == "mkdir":
        os.makedirs(path)
    elif command == "remove":
        for path in (os.path.join(root, arg) for arg in args):
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            elif os.path.lexists(path):
                os.unlink(path)
    elif command == "symlink":
        os.symlink(args[1], path)
    else:
        raise AssertionError(f"unknown command {command!r}")


def _changes(before: dict[str, str], after: dict[str, str]) -> list[str]:
    lines = []
    for path in sorted(before.keys() | after.keys()):
        if path not in after:
            mark = "-"
        elif path not in before:
            mark = "+"
        elif before[path] != after[path]:
            mark = "~"
        else:
            continue
        shown = TEMP_RE.sub(r".<tmp>.\1", PACK_RE.sub("<pack>", path))
        lines.append(f"  {mark} {shown} {after.get(path, '')}".rstrip())
    return lines


def run_transcript(transcript: str, root: str, inputs: str, env: dict,
                   capsys) -> str:
    """``transcript`` with the result of each of its commands recorded anew."""
    out, cwd, env = [], root, dict(env)
    for line in transcript.splitlines():
        if line.startswith("  ") and not line.startswith("  $ "):
            continue  # a recorded result: recorded anew below its command
        out.append(line)
        if not line.startswith("  $ "):
            continue
        argv = shlex.split(line[4:].replace("$TESTTMP", root))
        if argv[0] == "cd":
            cwd = os.path.join(root, argv[1])
            continue
        if argv[0] != "scram":
            _file_command(argv, root, env)
            continue
        before = _tree(root, inputs)
        code = main(argv[1:], env=env, cwd=cwd)
        stdout, stderr = capsys.readouterr()
        out += [f"  {text}" for text in stdout.replace(root, "$TESTTMP").splitlines()]
        out += [f"  ! {text}" for text in stderr.replace(root, "$TESTTMP").splitlines()]
        if code:
            out.append(f"  [{code}]")
        out += _changes(before, _tree(root, inputs))
    return "\n".join(out) + "\n"


def corpus_project(root: str) -> dict:
    """The seed-1 corpus of four tools written to ``root/corpus``, with the
    directories a transcript installs into; the environment to run in."""
    corpus = load_corpus()
    corpus.generate(1, 4).write(os.path.join(root, "corpus"))
    for sub in ("central", "work"):
        os.mkdir(os.path.join(root, sub))
    return {"PATH": "/usr/bin:/bin", "HOME": root, "SCRAM_ARCH": corpus.ARCH,
            "SCRAM_SITE": os.path.join(root, "corpus", "site.cfg"),
            "SCRAM_CACHE": os.path.join(root, "cache"),
            "SCRAM_LOOKUPDB": os.path.join(root, "scramdb")}


@pytest.mark.parametrize("path", sorted(TRANSCRIPTS.glob("*.t")), ids=lambda p: p.stem)
def test_transcript(path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    root = os.path.realpath(tmp_path)
    if path.stem == "corpus":
        inputs, env = "corpus", corpus_project(root)
    else:
        inputs, env = "specs", make_toy_project(Path(root)).env
    expected = path.read_text()
    got = run_transcript(expected, root, inputs, env, capsys)
    if os.environ.get("TRANSCRIPTS_UPDATE") == "1":
        path.write_text(got)
    else:
        assert got == expected
