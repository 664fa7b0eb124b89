"""Drift guards between the code and the references in docs/."""

import re
from pathlib import Path

from scram.activedoc import MAX_NESTING, SPLICE_FACTOR, SPLICE_FLOOR
from scram.urlaccess import FETCH_TIMEOUT

REPO = Path(__file__).parent.parent


def test_every_environment_variable_is_in_the_cli_reference():
    read = {name for path in (REPO / "src" / "scram").glob("*.py")
            for name in re.findall(r"""["'](SCRAM_[A-Z0-9_]+)["']""", path.read_text())}
    text = (REPO / "docs" / "cli.md").read_text()
    table = text.split("\n## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(SCRAM_[A-Z0-9_]+)` \|", table, re.M))
    assert read, "no SCRAM_ variable found in src/scram"
    assert read <= documented, f"undocumented in docs/cli.md: {sorted(read - documented)}"


def test_the_nesting_limit_in_the_dialect_reference_is_the_code_s():
    text = (REPO / "docs" / "dialect.md").read_text()
    composition = text.split("\n## Composition\n", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"At most (\d+) documents nest", composition)
    assert stated == [str(MAX_NESTING)]
    assert f"nested more than {MAX_NESTING} deep" in composition


def test_the_expansion_bound_in_the_dialect_reference_is_the_code_s():
    text = (REPO / "docs" / "dialect.md").read_text()
    composition = text.split("\n## Composition\n", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"References splice at most (\d+) events into one activated "
                        r"document, or,\s+if larger, (\d+) times", composition)
    assert stated == [(str(SPLICE_FLOOR), str(SPLICE_FACTOR))]
    assert (f"references splice more than {SPLICE_FLOOR} events, the larger of "
            f"{SPLICE_FLOOR} and {SPLICE_FACTOR}\n  times") in composition


def test_the_fetch_timeout_in_the_cli_reference_is_the_code_s():
    # every time in seconds that the reference states is the fetch timeout
    text = (REPO / "docs" / "cli.md").read_text()
    stated = re.findall(r"(\d+)\s+s(?:econds)?\b", text)
    assert len(stated) >= 4 and set(stated) == {str(FETCH_TIMEOUT)}
    assert f"timed out after {FETCH_TIMEOUT} s" in text
