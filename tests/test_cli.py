import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odshuttle
from odshuttle.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SMALL_CFG = """\
[scenario]
horizon 1800
dispatch_interval 30
fleet_size 2
shuttle_capacity 4
max_requests_per_plan 2
miss_penalty 3600
max_defer 900
seed 11

[network]
mode euclidean
speed 10.0
stop A 0 0
stop B 500 0
stop C 1000 0
stop D 1500 0

[region]
member A B C D

[demand]
rate 0 1200 60.0
mix 1.0 0.0 0.0

[baseline]
walk_speed 1.3
route r1 25 15 two_way A B C D
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def test_simulate_writes_outputs(small_cfg, tmp_path, capsys):
    out = tmp_path / "run1"
    assert main(["simulate", str(small_cfg), "--out-dir", str(out)]) == 0
    trips = (out / "trips.csv").read_text()
    assert trips.startswith("id,request_time,pickup_time")
    assert (out / "summary.csv").read_text().startswith("section,key,value")
    assert "mean waiting" in capsys.readouterr().out


def test_simulate_deterministic_bytes(small_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", str(small_cfg), "--out-dir", str(out1)])
    main(["simulate", str(small_cfg), "--out-dir", str(out2)])
    assert (out1 / "trips.csv").read_bytes() == (out2 / "trips.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


@pytest.mark.parametrize("scenario", ["peakdemand.cfg", "lowridership.cfg"])
def test_simulate_bytes_independent_of_hash_seed(scenario, tmp_path):
    # Set iteration order follows PYTHONHASHSEED, which one process cannot
    # vary; the written files must not depend on it (the baseline, too,
    # builds its nearest-stop tables from a set of stops).
    src = Path(odshuttle.__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        for command in ("simulate", "baseline"):
            done = subprocess.run([sys.executable, "-m", "odshuttle.cli", command,
                                   str(SCENARIOS / scenario), "--out-dir", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in
                        ("trips.csv", "summary.csv", "baseline_trips.csv", "baseline_summary.csv")])
    assert outputs[0] == outputs[1]


def test_baseline_and_comparison(small_cfg, tmp_path):
    sim_out = tmp_path / "sim"
    main(["simulate", str(small_cfg), "--out-dir", str(sim_out)])
    base_out = tmp_path / "base"
    code = main(["baseline", str(small_cfg), "--out-dir", str(base_out),
                 "--compare-with", str(sim_out / "trips.csv")])
    assert code == 0
    assert (base_out / "baseline_trips.csv").exists()
    comparison = (base_out / "comparison.csv").read_text()
    assert comparison.splitlines()[0] == "section,key,base,ondemand,delta"
    assert (base_out / "comparison.txt").read_text().startswith("Trip time comparison")


TIMES_RULE = "trip times must run 0 <= request <= pickup <= drop-off"


@pytest.mark.parametrize("edits, message", [
    pytest.param({2: ""}, "a completed trip needs both times", id="completed-without-pickup"),
    pytest.param({6: "bogus"}, "unknown trip status 'bogus'", id="unknown-status"),
    pytest.param({7: "bogus"}, "unknown trip type 'bogus'", id="unknown-trip-type"),
    pytest.param({0: "{above}"}, "duplicate trip id '{above}'", id="repeated-id"),
    pytest.param({1: "100", 2: "50", 3: "40"}, TIMES_RULE, id="times-run-backwards"),
    pytest.param({1: "-5"}, TIMES_RULE, id="negative-request-time"),
    pytest.param({4: "", 5: "", 6: "abandoned"}, "an abandoned trip has no times",
                 id="abandoned-with-times"),
    pytest.param({2: "", 4: "", 6: "pending"}, "a drop-off needs a pickup",
                 id="dropoff-without-pickup"),
    pytest.param({4: "1"}, "waiting must be pickup - request, or empty without that time",
                 id="waiting-not-derived"),
    pytest.param({5: "2"}, "trip_time must be drop-off - request, or empty without that time",
                 id="trip-time-not-derived"),
    pytest.param({3: "", 6: "pending"},
                 "trip_time must be drop-off - request, or empty without that time",
                 id="trip-time-without-dropoff"),
])
def test_bad_comparison_trips_reported_in_one_line(small_cfg, tmp_path, capsys, edits, message):
    # Each edit goes into the first completed row after the first row;
    # "{above}" stands for the id of the row above it.
    sim_out = tmp_path / "sim"
    main(["simulate", str(small_cfg), "--out-dir", str(sim_out)])
    lines = (sim_out / "trips.csv").read_text().splitlines()
    line_no = next(i for i, line in enumerate(lines) if i > 1 and ",completed," in line)
    above = lines[line_no - 1].split(",")[0]
    row = lines[line_no].split(",")
    for field, value in edits.items():
        row[field] = value.format(above=above)
    lines[line_no] = ",".join(row)
    message = message.format(above=above)
    trips = tmp_path / "trips.csv"
    trips.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["baseline", str(small_cfg), "--out-dir", str(tmp_path / "base"),
                 "--compare-with", str(trips)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"odshuttle: {trips}:{line_no + 1}: {message}"]


def test_sweep_outputs_per_size(small_cfg, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", str(small_cfg), "--sizes", "1", "2", "--out-dir", str(out)]) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].startswith("fleet_size,")
    assert len(lines) == 3
    assert lines[1].startswith("1,") and lines[2].startswith("2,")


def test_solve_bundled_instance(tmp_path, capsys):
    out = tmp_path / "solution.txt"
    plans = tmp_path / "plans.txt"
    code = main(["solve", str(SCENARIOS / "instance_small.txt"),
                 "--out", str(out), "--dump-plans", str(plans)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "objective 310"
    assert "vehicle s001 cost 145 requests r001,r002 sequence B,E,C,F" in text
    assert "vehicle s002 cost 165 requests r003,r004 sequence D,C,F,A,B,E" in text
    plan_lines = plans.read_text().splitlines()
    assert plan_lines[0] == "index vehicle cost requests sequence"
    # two vehicles x (empty + 4 singles + C(4,2) pairs), all feasible here
    assert len(plan_lines) == 1 + 2 * (1 + 4 + 6)
    # Both files in full: any change to them is a change of solve's output.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "bba3df49537443aac26437667eda93b7affdf272e83cb800c81e80d62b199967"
    assert hashlib.sha256(plans.read_bytes()).hexdigest() == \
        "eeb56402422d405caf83dda32bae88bc8400a3ccfb9f8cfb35e927070194f2d8"


def test_solve_stdout_is_pinned(capsys):
    # Plans carry no route; solve routes the plans it prints, and its
    # stdout stays the bytes it was before plans dropped theirs.
    assert main(["solve", str(SCENARIOS / "instance_small.txt")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "bba3df49537443aac26437667eda93b7affdf272e83cb800c81e80d62b199967"


def test_gen_demand_round_trip(small_cfg, tmp_path):
    out = tmp_path / "demand.csv"
    assert main(["gen-demand", str(small_cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,request_time,pickup,dropoff,passengers,trip_type"
    assert len(lines) > 1
    # Feeding the generated file back reproduces the same simulation.
    pinned = SMALL_CFG.replace("rate 0 1200 60.0\nmix 1.0 0.0 0.0",
                               f"file {out.name}")
    fixed_cfg = tmp_path / "fixed.cfg"
    fixed_cfg.write_text(pinned)
    a, b = tmp_path / "gen", tmp_path / "fixed"
    main(["simulate", str(small_cfg), "--out-dir", str(a)])
    main(["simulate", str(fixed_cfg), "--out-dir", str(b)])
    assert (a / "trips.csv").read_text() == (b / "trips.csv").read_text()


def test_fleetcalc_retired_routes(capsys):
    code = main(["fleetcalc", str(SCENARIOS / "routes_retired.txt"), "--shuttles", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "minimum fixed-route fleet: 8" in out
    assert "37.5% cost reduction" in out


def test_fleetcalc_negative_shuttles_reported_in_one_line(capsys):
    code = main(["fleetcalc", str(SCENARIOS / "routes_retired.txt"), "--shuttles", "-3"])
    assert code == 1
    captured = capsys.readouterr()
    assert "cost reduction" not in captured.out
    assert captured.err.splitlines() == ["odshuttle: shuttles must be >= 0"]


TWINS_INSTANCE = """\
[params]
max_requests_per_plan 2

[network]
mode euclidean
speed 10
stop A 0 0
stop B 500 0
stop C 1000 0

[fleet]
shuttle s1 A 0 4
shuttle s2 A 0 4

[requests]
request r1 0 A B 1
request r2 0 B C 1
penalty r2 0
"""


def test_solve_twins_serve_from_highest_id_and_report_missed(tmp_path, capsys):
    # Identical shuttles form one class: the higher id serves r1, the other
    # keeps its first (empty) plan; r2 costs nothing to miss.
    path = tmp_path / "twins.txt"
    path.write_text(TWINS_INSTANCE)
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "objective 0",
        "vehicle s1 cost 0 requests - sequence -",
        "vehicle s2 cost 0 requests r1 sequence A,B",
        "missed r2 0",
    ]


def test_bad_config_reported_in_one_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG.replace("member A B C D", "member A B C Z"))
    line_no = SMALL_CFG.splitlines().index("member A B C D") + 1
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"odshuttle: {path}:{line_no}: unknown stop 'Z'"]
    assert "Traceback" not in err


@pytest.mark.parametrize("edits, at", [
    pytest.param({"route rbus1 30 35 two_way m10 m11 m12 m13 g01":
                  "route rbus1 30 1e307 two_way m10 m11 m12 m13 g01"},
                 "route rbus1 30 1e307 two_way m10 m11 m12 m13 g01", id="route-headway"),
    pytest.param({"speed 9.0": "speed 1e-320"}, "speed 1e-320", id="speed"),
    pytest.param({"stop m00 0 0": "stop m00 1e308 0", "stop m33 1800 1800": "stop m33 -1e308 0"},
                 "stop m33 -1e308 0", id="stop"),
    pytest.param({"walk_speed 1.3": "walk_speed 1e-320"}, "walk_speed 1e-320", id="walk-speed"),
    pytest.param({"walk_speed 1.3": "walk_speed 1e-300"}, "walk_speed 1e-300",
                 id="walk-speed-past-exact-seconds"),
    pytest.param({"mix 0.7 0.2 0.1": "mix 0.7 0.2 0.1\nmember_weight m00 -100"},
                 "member_weight m00 -100", id="negative-weight"),
    pytest.param({"mix 0.7 0.2 0.1": "mix 0.7 0.2 0.1\ngateway_weight g01 0\ngateway_weight g02 0"},
                 "mix 0.7 0.2 0.1", id="zero-gateway-weights"),
    pytest.param({"mix 0.7 0.2 0.1": "mix 0.7 0.2 0.1\nseed 3"}, "seed 3", id="demand-seed"),
])
def test_bundled_config_edit_fails_at_load(tmp_path, capsys, edits, at):
    lines = (SCENARIOS / "lowridership.cfg").read_text().splitlines()
    text = "\n".join(edits.get(line, line) for line in lines) + "\n"
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["baseline", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"odshuttle: {path}:{text.splitlines().index(at) + 1}: ")


def test_fleetcalc_overflowing_route_reported_in_one_line(tmp_path, capsys):
    # 1e307 min is 6e308 s, past the largest float.
    path = tmp_path / "routes.txt"
    path.write_text("route r1 1e307 30 two_way a b\n")
    assert main(["fleetcalc", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"odshuttle: {path}:1: route r1: one-way time must be positive "
        "and time its rides within 2**53 s"]


def test_missing_config_reported_in_one_line(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("odshuttle: ") and str(path) in err
    assert "Traceback" not in err


def test_instance_stop_out_of_reach_reported_in_one_line(tmp_path, capsys):
    text = ("[network]\nmode graph\nstop A 0 0\nstop B 0 0\nstop C 0 0\n"
            "link A B 10\nlink B C 10\n[fleet]\nshuttle s1 A 0 4\n"
            "[requests]\nrequest r1 0 B A 1\n")
    path = tmp_path / "one_way.txt"
    path.write_text(text)
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"odshuttle: {path}:3: stop A cannot be reached from stop B"]
    assert captured.out == ""


def test_out_of_range_instance_value_reported_in_one_line(tmp_path, capsys):
    text = (SCENARIOS / "instance_small.txt").read_text()
    path = tmp_path / "bad.txt"
    path.write_text(text.replace("miss_penalty 3600", "miss_penalty -1"))
    line_no = text.splitlines().index("miss_penalty 3600") + 1
    assert main(["solve", str(path), "--out", str(tmp_path / "solution.txt")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"odshuttle: {path}:{line_no}: miss_penalty must be >= 0"]
