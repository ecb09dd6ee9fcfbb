"""Seeded mutation fuzzing of the inputs the CLI reads.

Each case changes one line of a bundled input: it replaces a token,
deletes one, appends one, duplicates the line or deletes it.  A second
family repeats one keyword line, just before or after itself, with one
argument replaced, so the repeat either overrides the original or is
overridden by it.  The replacement tokens come from the same file plus a
few edge values.
Whatever a mutated input does, a failure must be an ``OdshuttleError``,
and the CLI must report it as one ``odshuttle:`` line on stderr with exit
status 1.  Inputs that load are run too, with the horizon capped at
30 min, so a bad value that slips past the load-time checks shows up as
a raw exception mid-run.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from odshuttle import fileio
from odshuttle.cli import main
from odshuttle.errors import OdshuttleError
from odshuttle.simulator import run_baseline, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EDGE_TOKENS = ["-1", "0", "1", "2", "1.5", "-0.5", "x", "nan", "inf", "1e9", "A", "#", ","]
CAPPED_HORIZON = 1800


def mutate(rng: random.Random, text: str, sep: str | None = None) -> str:
    """``text`` with one line changed at random; ``sep`` splits a line into tokens."""
    lines = text.splitlines()
    pool = sorted({tok for line in lines for tok in line.split(sep) if tok}) + EDGE_TOKENS
    i = rng.randrange(len(lines))
    tokens = lines[i].split(sep)
    op = rng.randrange(5)
    if op == 0 and tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(pool)
    elif op == 1 and tokens:
        del tokens[rng.randrange(len(tokens))]
    elif op == 2:
        tokens.append(rng.choice(pool))
    elif op == 3:
        lines.insert(i, lines[i])
    else:
        del lines[i]
        return "\n".join(lines) + "\n"
    lines[i] = (" " if sep is None else sep).join(tokens)
    return "\n".join(lines) + "\n"


def repeat(rng: random.Random, text: str) -> str:
    """``text`` with one keyword line repeated next to itself, one argument replaced."""
    lines = text.splitlines()
    pool = sorted({tok for line in lines for tok in line.split()}) + EDGE_TOKENS
    keyword_lines = [i for i, line in enumerate(lines)
                     if len(line.split("#", 1)[0].split()) > 1 and not line.startswith("[")]
    i = rng.choice(keyword_lines)
    tokens = lines[i].split("#", 1)[0].split()
    tokens[rng.randrange(1, len(tokens))] = rng.choice(pool)
    lines.insert(i + rng.randrange(2), " ".join(tokens))
    return "\n".join(lines) + "\n"


def assert_package_error(err: BaseException, text: str):
    assert isinstance(err, OdshuttleError), f"{type(err).__name__}: {err}\n--- input ---\n{text}"


def run_cli(argv, capsys, text: str) -> tuple[int, str]:
    """Exit status and stderr of ``main(argv)``, which nothing may escape."""
    capsys.readouterr()
    try:
        code = main(argv)
    except Exception as err:  # anything escaping main is a traceback for the user
        raise AssertionError(f"{type(err).__name__} escaped the CLI: {err}\n{text}") from err
    return code, capsys.readouterr().err


def assert_reported(code: int, err: str, text: str):
    """A failed command: exit 1 and exactly one ``odshuttle:`` stderr line."""
    assert code == 1, text
    assert len(err.splitlines()) == 1 and err.startswith("odshuttle: "), err


def run_capped(config, text: str):
    """Simulate and run the baseline of a loaded config, horizon capped."""
    try:
        capped = replace(config, horizon=min(config.horizon, CAPPED_HORIZON))
        requests = capped.resolve_requests()
        run_scenario(capped, requests)
        run_baseline(capped, requests)
    except Exception as err:
        assert_package_error(err, text)


def test_fuzz_scenario_configs(tmp_path, capsys):
    rng = random.Random(20261018)
    sources = [(SCENARIOS / name).read_text() for name in ("lowridership.cfg", "peakdemand.cfg")]
    failed = 0
    for case in range(300):
        text = mutate(rng, sources[case % 2])
        path = tmp_path / "fuzz.cfg"
        path.write_text(text)
        try:
            config = fileio.load_scenario(path)
        except Exception as err:
            assert_package_error(err, text)
            assert_reported(*run_cli(["simulate", str(path), "--out-dir", str(tmp_path)],
                                     capsys, text), text)
            failed += 1
            continue
        run_capped(config, text)
    assert 30 < failed < 300  # the mutations reach both sides of the load-time checks


def test_fuzz_solve_instances(tmp_path, capsys):
    rng = random.Random(20261019)
    source = (SCENARIOS / "instance_small.txt").read_text()
    failed = 0
    for _ in range(300):
        text = mutate(rng, source)
        path = tmp_path / "fuzz.txt"
        path.write_text(text)
        try:
            fileio.parse_instance_text(text, str(path))
        except Exception as err:
            assert_package_error(err, text)
            assert_reported(*run_cli(["solve", str(path)], capsys, text), text)
            failed += 1
            continue
        code, err = run_cli(["solve", str(path), "--out", str(tmp_path / "solution.txt")],
                            capsys, text)
        if code:
            assert_reported(code, err, text)
    assert 30 < failed < 300


def test_fuzz_demand_csv(tmp_path, capsys):
    rng = random.Random(20261020)
    base = (SCENARIOS / "lowridership.cfg").read_text()
    config = fileio.parse_scenario_text(base, "lowridership.cfg")
    requests = config.resolve_requests()
    source = fileio.write_demand_csv(requests, {r.id: config.trip_type_of(r) for r in requests})
    # The bundled config with its demand profile swapped for the file.
    lines, in_demand = [], False
    for line in base.splitlines():
        if line.startswith("["):
            in_demand = line.strip() == "[demand]"
            lines.append(line)
            if in_demand:
                lines.append("file demand.csv")
        elif not in_demand:
            lines.append(line)
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    failed = 0
    for _ in range(300):
        text = mutate(rng, source, sep=",")
        (tmp_path / "demand.csv").write_text(text)
        try:
            loaded = fileio.load_scenario(cfg)
        except Exception as err:
            assert_package_error(err, text)
            assert_reported(*run_cli(["simulate", str(cfg), "--out-dir", str(tmp_path)],
                                     capsys, text), text)
            failed += 1
            continue
        run_capped(loaded, text)
    assert 30 < failed < 300


def test_fuzz_route_files(tmp_path, capsys):
    rng = random.Random(20261021)
    source = (SCENARIOS / "routes_retired.txt").read_text()
    failed = 0
    for _ in range(300):
        text = mutate(rng, source)
        path = tmp_path / "routes.txt"
        path.write_text(text)
        try:
            fileio.parse_routes_text(text, str(path))
        except Exception as err:
            assert_package_error(err, text)
            assert_reported(*run_cli(["fleetcalc", str(path)], capsys, text), text)
            failed += 1
            continue
        code, err = run_cli(["fleetcalc", str(path), "--shuttles", "5"], capsys, text)
        if code:
            assert_reported(code, err, text)
    assert 30 < failed < 300


def test_fuzz_repeated_lines(tmp_path, capsys):
    rng = random.Random(20261022)
    names = ("lowridership.cfg", "peakdemand.cfg", "instance_small.txt")
    sources = {name: (SCENARIOS / name).read_text() for name in names}
    failed = 0
    for case in range(300):
        name = names[case % 3]
        text = repeat(rng, sources[name])
        path = tmp_path / name
        path.write_text(text)
        instance = name.endswith(".txt")
        argv = ["solve", str(path)] if instance else ["simulate", str(path), "--out-dir",
                                                       str(tmp_path)]
        try:
            loaded = fileio.parse_instance_text(text, str(path)) if instance \
                else fileio.load_scenario(path)
        except Exception as err:
            assert_package_error(err, text)
            assert_reported(*run_cli(argv, capsys, text), text)
            failed += 1
            continue
        if instance:
            code, err = run_cli(argv + ["--out", str(tmp_path / "solution.txt")], capsys, text)
            if code:
                assert_reported(code, err, text)
        else:
            run_capped(loaded, text)
    assert 30 < failed < 270  # repeats reach both sides of the load-time checks
