import hashlib
from pathlib import Path

import pytest

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
seed 0

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


def test_gen_demand_round_trip(small_cfg, tmp_path):
    out = tmp_path / "demand.csv"
    assert main(["gen-demand", str(small_cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,request_time,pickup,dropoff,passengers,trip_type"
    assert len(lines) > 1
    # Feeding the generated file back reproduces the same simulation.
    pinned = SMALL_CFG.replace("rate 0 1200 60.0\nmix 1.0 0.0 0.0\nseed 0",
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


def test_missing_config_reported_in_one_line(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("odshuttle: ") and str(path) in err
    assert "Traceback" not in err
