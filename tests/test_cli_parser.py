"""The command line's two parsers: ``cli.parse_canonical`` reads the
canonical argv of every verb without argparse, and anything else goes to
``cli.argparse_parser``, the reference grammar. The fast path must give
argparse's namespace wherever it accepts an argv, and help, version and
usage errors must stay argparse's, byte for byte."""

import contextlib
import io
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scram import cli

CANONICAL = [
    ["runtime", "-sh"],
    ["runtime", "-csh", "--app", "viewer"],
    ["tool", "list"],
    ["tool", "info", "boost"],
    ["tool", "info", ""],
    ["setup"],
    ["setup", "htl"],
    ["setup", "htl", "1.5"],
    ["setup", "htl", "1.5", "file:/specs/htl.tooldoc"],
    ["project", "ORCA", "7_1_3"],
    ["install"],
    ["install", "--force"],
    ["list"],
    ["list", "ORCA"],
    ["bootstrap", "file:/specs/toy.boot"],
    ["bootstrap", "file:/specs/toy.boot", "--dest", ""],
    ["build"],
    ["build", "all", "check"],
    ["--arch", "Linux__2.4", "--refresh", "runtime", "-sh"],
]


def reference(argv):
    """argparse's namespace for ``argv``; None for a usage error."""
    with contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.argparse_parser().parse_args(argv)
        except SystemExit:
            return None


@pytest.mark.parametrize("argv", CANONICAL, ids=" ".join)
def test_canonical_argv_skips_argparse(argv):
    args = cli.build_parser().parse_args(argv)
    assert type(args) is SimpleNamespace
    assert vars(args) == vars(reference(argv))


VERBS = ["list", "project", "setup", "tool", "runtime", "build", "install",
         "bootstrap"]
WORDS = ["info", "list", "", "a", "b c"]
FLAGS = ["-sh", "-csh", "--app", "--app=x", "--ap", "--dest", "--force", "--arch",
         "--refresh", "-h", "--help", "--version", "--", "-x", "-", "-1"]
# half words, half flags, so that many argvs have a canonical shape
TOKEN = st.sampled_from(WORDS) | st.sampled_from(FLAGS + VERBS)
GLOBAL = st.sampled_from([["--refresh"], ["--arch", "x"], ["--arch", ""],
                          ["--arch"], ["x"]])


@st.composite
def argvs(draw):
    """A global prefix, a verb and tokens; or a canonical argv with a token
    or two inserted, replaced or deleted."""
    if draw(st.booleans()):
        head = sum(draw(st.lists(GLOBAL, max_size=2)), [])
        return [*head, draw(st.sampled_from(VERBS + [""])),
                *draw(st.lists(TOKEN, max_size=4))]
    argv = list(draw(st.sampled_from(CANONICAL)))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(TOKEN))
        elif edit == "replace":
            argv[i] = draw(TOKEN)
        else:
            del argv[i]
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=argvs())
def test_fast_path_agrees_with_argparse(argv):
    fast = cli.parse_canonical(argv)
    if fast is not None:
        slow = reference(argv)
        assert slow is not None, argv
        assert vars(fast) == vars(slow), argv


TOP_USAGE = ("usage: scram [-h] [--version] [--arch OS__RELEASE] [--refresh] "
             "VERB ...\n")
RUNTIME_USAGE = "usage: scram runtime [-h] (-csh | -sh) [--app APP]\n"

# argv -> (exit status, stdout, stderr), as the argparse grammar prints
# them; help is formatted for 80 columns
TRANSCRIPTS = {
    ("--help",): (0, TOP_USAGE + """\

Configuration management and developer workspaces.

positional arguments:
  VERB
    list              list registered central installations
    project           create a linked developer area
    setup             resolve tools into the current area
    tool              query the area's tools
    runtime           emit the area's runtime environment
    build             run the configured build command
    install           register this central installation
    bootstrap         install a project from its bootstrap document

options:
  -h, --help          show this help message and exit
  --version           show program's version number and exit
  --arch OS__RELEASE  override the detected architecture
  --refresh           refetch unversioned (HEAD) documents
""", ""),
    ("runtime", "--help"): (0, RUNTIME_USAGE + """\

options:
  -h, --help  show this help message and exit
  -csh        emit csh syntax
  -sh         emit Bourne shell syntax
  --app APP   overlay an application environment file
""", ""),
    ("tool", "--help"): (0, """\
usage: scram tool [-h] list|info ...

positional arguments:
  list|info
    list      tools with active and default versions
    info      details of one tool

options:
  -h, --help  show this help message and exit
""", ""),
    ("--version",): (0, "scram 0.1.0\n", ""),
    ("frobnicate",): (2, "", TOP_USAGE + (
        "scram: error: argument VERB: invalid choice: 'frobnicate' (choose from "
        "'list', 'project', 'setup', 'tool', 'runtime', 'build', 'install', "
        "'bootstrap')\n")),
    (): (2, "", TOP_USAGE
         + "scram: error: the following arguments are required: VERB\n"),
    ("list", "--sideways"): (2, "", TOP_USAGE
                             + "scram: error: unrecognized arguments: --sideways\n"),
    ("setup", "a", "b", "c", "d"): (2, "", TOP_USAGE
                                    + "scram: error: unrecognized arguments: d\n"),
    ("runtime",): (2, "", RUNTIME_USAGE
                   + "scram runtime: error: one of the arguments -csh -sh is required\n"),
    ("runtime", "-csh", "-sh"): (2, "", RUNTIME_USAGE + (
        "scram runtime: error: argument -sh: not allowed with argument -csh\n")),
    ("tool", "info"): (2, "", """\
usage: scram tool info [-h] name
scram tool info: error: the following arguments are required: name
"""),
}


@pytest.mark.parametrize("argv", TRANSCRIPTS, ids=" ".join)
def test_help_version_and_usage_errors_are_argparse_s(argv, tmp_path, child_env):
    env = child_env({"PATH": "/usr/bin:/bin", "COLUMNS": "80",
                     "SCRAM_ARCH": "Linux__2.4"})
    proc = subprocess.run([sys.executable, "-m", "scram.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == TRANSCRIPTS[argv]
