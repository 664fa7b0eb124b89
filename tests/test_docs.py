"""Drift guards between the code and the reference in docs/cli.md."""

import re
from pathlib import Path

REPO = Path(__file__).parent.parent


def test_every_environment_variable_is_in_the_cli_reference():
    read = {name for path in (REPO / "src" / "scram").glob("*.py")
            for name in re.findall(r"""["'](SCRAM_[A-Z0-9_]+)["']""", path.read_text())}
    text = (REPO / "docs" / "cli.md").read_text()
    table = text.split("\n## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(SCRAM_[A-Z0-9_]+)` \|", table, re.M))
    assert read, "no SCRAM_ variable found in src/scram"
    assert read <= documented, f"undocumented in docs/cli.md: {sorted(read - documented)}"
