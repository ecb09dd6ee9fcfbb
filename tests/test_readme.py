"""The README's scenario config reference lists exactly the grammar's keywords."""

import re
from pathlib import Path

from odshuttle import fileio

README = Path(__file__).resolve().parent.parent / "README.md"


def _config_block() -> str:
    """The code block under the README's scenario config heading."""
    text = README.read_text().split("## Scenario config format", 1)[1]
    return re.search(r"^```\n(.*?)^```", text, re.S | re.M).group(1)


def test_readme_config_reference_matches_grammar():
    documented: dict[str, set[str]] = {}
    section = None
    for raw in _config_block().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
            documented[section] = set()
        elif line:
            documented[section].add(line.split()[0])
    assert sorted(documented) == sorted(fileio._SCENARIO)
    for name, keywords in fileio._SCENARIO.items():
        assert documented[name] == set(keywords), f"[{name}]"
