"""The README's scenario config reference lists exactly the grammar's keywords,
and every command of its command-line block runs."""

import re
from pathlib import Path

from odshuttle import cli, fileio

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"


def _code_block(heading: str) -> str:
    """The first code block under a README heading."""
    text = README.read_text().split(f"## {heading}", 1)[1]
    return re.search(r"^```\n(.*?)^```", text, re.S | re.M).group(1)


def test_readme_config_reference_matches_grammar():
    documented: dict[str, set[str]] = {}
    section = None
    for raw in _code_block("Scenario config format").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
            documented[section] = set()
        elif line:
            documented[section].add(line.split()[0])
    assert sorted(documented) == sorted(fileio._SCENARIO)
    for name, keywords in fileio._SCENARIO.items():
        assert documented[name] == set(keywords), f"[{name}]"


def test_readme_commands_run_in_order(tmp_path, monkeypatch):
    # Each line runs in one shared directory, so a line may read what an
    # earlier one wrote; the bundled scenarios are read from the repository.
    block = _code_block("Command line").replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("odshuttle ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("#")
        args = [str(REPO / arg) if arg.startswith("scenarios/") else arg
                for arg in command.split()[1:]]
        assert cli.main(args) == 0, line
        # The files a line names: the value of --out or --dump-plans, and
        # each one its comment names, in its --out-dir ("a.csv/.txt" is two).
        named = [Path(args[i + 1]) for i, arg in enumerate(args)
                 if arg in ("--out", "--dump-plans")]
        out_dir = Path(args[args.index("--out-dir") + 1] if "--out-dir" in args else ".")
        named += [out_dir / f"{stem}.{ext}"
                  for stem, exts in re.findall(r"(\w+)\.([\w/.]+)", comment)
                  for ext in exts.split("/.")]
        for path in named:
            assert path.is_file(), f"{line}: no {path}"
