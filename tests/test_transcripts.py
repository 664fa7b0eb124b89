"""Transcripts: every verb run in process through ``cli.main`` on the toy
project, checked line by line against ``tests/transcripts/*.t``.

A transcript is prose and commands. Each ``  $ `` line is a command, run in
order in one fresh toy project under a fixed environment: ``scram ARGS...``
through ``cli.main``, or ``cd DIR``, relative to ``$TESTTMP``, the project's
root. Below each scram command its result is recorded, indented two spaces
(a blank line of output is two spaces): its stdout lines, its stderr lines
after ``! ``, a nonzero exit status as ``[N]``, and then every file and
directory it created (``+``), changed (``~``) or removed (``-``), sorted, a
file with a digest of its content.
``$TESTTMP`` stands for the root in output and content alike; a pack name
reads as ``<pack>`` and its content is not digested, as it holds the time
of its fetches, and the random part of a temp-file name reads as ``<tmp>``.

``TRANSCRIPTS_UPDATE=1`` rewrites the files from what the commands give.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
from pathlib import Path

import pytest

from conftest import make_toy_project
from scram.cli import main

TRANSCRIPTS = Path(__file__).parent / "transcripts"
PACK_RE = re.compile(r"\d+\.\d+\.[0-9a-f]{8}\.pack$")
TEMP_RE = re.compile(r"\.[0-9a-f]{8}\.(tmp|partial)(?=$|/)")


def _tree(root: str) -> dict[str, str]:
    """Every path under ``root`` but the toy's inputs -> a digest of its
    content ("" for a directory, "*" for a pack)."""
    tree = {}
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        if rel_dir == ".":
            dirnames.remove("specs")
        for name in dirnames:
            tree[os.path.normpath(os.path.join(rel_dir, name)) + "/"] = ""
        for name in filenames:
            rel = os.path.normpath(os.path.join(rel_dir, name))
            if PACK_RE.search(name):
                tree[rel] = "*"
                continue
            with open(os.path.join(dirpath, name), "rb") as fh:
                content = fh.read().replace(root.encode(), b"$TESTTMP")
            tree[rel] = hashlib.sha256(content).hexdigest()[:12]
    return tree


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


def run_transcript(transcript: str, root: str, env: dict, capsys) -> str:
    """``transcript`` with the result of each of its commands recorded anew."""
    out, cwd = [], root
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
        assert argv[0] == "scram", line
        before = _tree(root)
        code = main(argv[1:], env=env, cwd=cwd)
        stdout, stderr = capsys.readouterr()
        out += [f"  {text}" for text in stdout.replace(root, "$TESTTMP").splitlines()]
        out += [f"  ! {text}" for text in stderr.replace(root, "$TESTTMP").splitlines()]
        if code:
            out.append(f"  [{code}]")
        out += _changes(before, _tree(root))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("path", sorted(TRANSCRIPTS.glob("*.t")), ids=lambda p: p.stem)
def test_transcript(path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    root = os.path.realpath(tmp_path)
    toy = make_toy_project(Path(root))
    expected = path.read_text()
    got = run_transcript(expected, root, toy.env, capsys)
    if os.environ.get("TRANSCRIPTS_UPDATE") == "1":
        path.write_text(got)
    else:
        assert got == expected
