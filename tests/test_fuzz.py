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
a raw exception mid-run.  Configs built in code get the same treatment
without a file: each either fails to construct or runs to its horizon.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from odshuttle import fileio
from odshuttle.cli import main
from odshuttle.demand import DemandProfile
from odshuttle.errors import ConfigError, OdshuttleError
from odshuttle.network import Region, TravelNetwork
from odshuttle.simulator import TRIP_TYPES, FixedRoute, ScenarioConfig, run_baseline, run_scenario
from odshuttle.types import Stop, TripRequest

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


def random_config(rng: random.Random, seed: int) -> ScenarioConfig:
    """A small config whose parts may not join: a graph network with links
    dropped (or a metric one), and region, route, start and demand stops
    drawn partly from outside it; now and then a request repeats an id or
    is declared a trip type that does not exist."""
    ids = [f"n{i}" for i in range(rng.randint(2, 6))]
    stops = [Stop(s, rng.uniform(0, 2000), rng.uniform(0, 2000)) for s in ids]
    if rng.random() < 0.7:
        kept = rng.choice([0.6, 0.9, 1.0])
        links = [(a, b, rng.randint(1, 300)) for a in ids for b in ids
                 if a != b and rng.random() < kept]
        network = TravelNetwork.graph(stops, links)
    else:
        network = TravelNetwork.euclidean(stops, 10.0)

    def some(most: int, least: int = 0) -> list[str]:
        """``least`` to ``most`` distinct stops, now and then one outside the network."""
        pool = ids + ["x"] * (rng.random() < 0.1)
        return rng.sample(pool, min(rng.randint(least, most), len(pool)))

    region = None
    if rng.random() < 0.8:
        members = some(4)
        region = Region(members, [s for s in some(2) if s not in members])
    profile = requests = None
    types = {}
    if rng.random() < 0.5:
        profile = DemandProfile(rates=((0, 1800, rng.choice([20.0, 60.0])),),
                                mix=rng.choice([(1.0, 0.0, 0.0), (0.5, 0.3, 0.2), (0.0, 0.0, 1.0)]),
                                member_weights={s: rng.choice([0.0, 1.0]) for s in some(2)},
                                gateway_weights={s: 1.0 for s in some(1)})
    else:
        n = rng.randint(0, 6)
        requests = tuple(TripRequest(f"r{rng.randrange(n) if rng.random() < 0.1 else i}",
                                     *some(2, least=2), rng.randint(0, 1700)) for i in range(n))
        types = {r.id: rng.choice(["intra", "outbound", "inbound", "bogus"])
                 for r in requests if rng.random() < 0.3}
    routes = tuple(FixedRoute(f"b{i}", 20, 10, "two_way", tuple(some(3)))
                   for i in range(rng.randint(0, 2)))
    return ScenarioConfig(horizon=1800, fleet_size=rng.randint(1, 3), network=network,
                          region=region, demand_profile=profile, demand_requests=requests,
                          demand_types=types,
                          fleet_start=tuple(some(2)), routes=routes, seed=seed, max_defer=600)


def test_fuzz_library_configs():
    rng = random.Random(20261023)
    built, rules = 0, set()
    for case in range(300):
        try:
            config = random_config(rng, case)
        except ConfigError as err:
            rules |= {key[0] if isinstance(key, tuple) else key for key in err.fields}
            continue
        # A config that constructs repeats no request id and declares only known types.
        ids = [r.id for r in config.demand_requests or ()]
        assert len(set(ids)) == len(ids) and set(config.demand_types.values()) <= set(TRIP_TYPES)
        run_scenario(config)
        run_baseline(config)
        built += 1
    assert 30 < built < 270
    # Every rule that joins two parts was reached.
    assert {"routes", "region", "fleet_start", "demand_requests", "demand_types", "network",
            "mix", "member_weights", "gateway_weights"} <= rules, rules
