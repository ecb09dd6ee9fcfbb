from pathlib import Path

import pytest

from odshuttle import fileio
from odshuttle.errors import ParseError
from odshuttle.network import Region
from odshuttle.simulator import ScenarioConfig, TripRecord
from odshuttle.types import TripRequest

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GRAPH_INSTANCE_TEXT = """\
[network]
# toy network
mode graph
stop A 0 0
stop B 100 0
stop C 200 0
link A B 10
link B A 10
link B C 20
link C B 20
"""

SCENARIO_TEXT = """\
[scenario]
horizon 1800
dispatch_interval 30
fleet_size 2
shuttle_capacity 4
max_requests_per_plan 2
miss_penalty 1000
max_defer 600
seed 5
fleet_start A

[network]
mode euclidean
speed 10.0
stop A 0 0
stop B 500 0
stop C 1000 0
stop G1 1500 0

[region]
member A B C
gateway G1

[demand]
rate 0 900 40.0
mix 0.8 0.2 0.0

[baseline]
walk_speed 1.3
route r1 20 10 two_way A B C
"""

INSTANCE_TEXT = """\
[params]
max_requests_per_plan 2
miss_penalty 900

[network]
mode euclidean
speed 10
stop A 0 0
stop B 400 0
stop C 800 0

[fleet]
shuttle s001 A 0 4
shuttle s002 B 15 2
committed_pickup s002 r905

[requests]
request r001 0 A B 1
request r002 9 B C 2
request r905 0 C A 1
penalty r002 50
"""

def _parse_with_line(parse, text, line):
    """Parse ``text`` plus ``line`` appended; return the ParseError and the line's number."""
    full = text + line + "\n"
    with pytest.raises(ParseError) as err:
        parse(full, path="bad.txt")
    return str(err.value), full.count("\n")


def test_graph_network_link_times():
    _, _, net, _ = fileio.parse_instance_text(GRAPH_INSTANCE_TEXT)
    assert net.stop_ids() == ["A", "B", "C"]
    for a, b, seconds in [("A", "B", 10), ("B", "A", 10), ("B", "C", 20), ("C", "B", 20)]:
        assert net.travel_time(a, b) == seconds
    assert net.travel_time("A", "C") == 30


def test_network_requires_mode():
    with pytest.raises(ParseError):
        fileio.parse_instance_text("[network]\nstop A 0 0\n")


@pytest.mark.parametrize("token, value", [("yes", True), ("no", False)])
def test_scenario_flag_takes_yes_and_no(token, value):
    text = SCENARIO_TEXT.replace("seed 5", f"seed 5\nwaiting_per_passenger {token}")
    assert fileio.parse_scenario_text(text).waiting_per_passenger is value


@pytest.mark.parametrize("parse, text", [
    pytest.param(fileio.parse_instance_text, "[network]\nmode euclidean\nspeed 10\n",
                 id="instance"),
    pytest.param(fileio.parse_scenario_text,
                 "[scenario]\nhorizon 600\nfleet_size 1\n[network]\nmode graph\n", id="scenario"),
])
def test_network_without_stops_fails_at_last_line(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text, path="bad.txt")
    last = len(text.splitlines())
    assert str(err.value) == f"bad.txt:{last}: network has no stops"


def test_network_bad_number_names_line():
    with pytest.raises(ParseError) as err:
        fileio.parse_instance_text("[network]\nmode euclidean\nspeed ten\nstop A 0 0\n")
    assert ":3:" in str(err.value)


def test_region_round_trip():
    region = Region(member_stops={"A", "B"}, gateway_stations={"G1", "G2"})
    lines = ["[scenario]", "horizon 600", "fleet_size 1",
             "[network]", "mode euclidean", "speed 10",
             "stop A 0 0", "stop B 100 0", "stop G1 200 0", "stop G2 300 0",
             "[region]", "member " + " ".join(sorted(region.member_stops))]
    lines += [f"gateway {g}" for g in sorted(region.gateway_stations)]
    config = fileio.parse_scenario_text("\n".join(lines) + "\n")
    assert config.region == region


def test_demand_round_trip():
    requests = [
        TripRequest(id="r001", pickup="A", dropoff="B", request_time=12, passengers=2),
        TripRequest(id="r002", pickup="B", dropoff="G1", request_time=40),
    ]
    types = {"r001": "intra", "r002": "outbound"}
    text = fileio.write_demand_csv(requests, types)
    parsed, parsed_types, lines = fileio.parse_demand_csv(text)
    assert parsed == requests
    assert parsed_types == types
    assert lines == [2, 3]


def test_demand_rejects_bad_rows(tmp_path):
    # A bad number fails in the reader.  A stop missing from the network, a
    # repeated id and an undeclared trip type are stream rules: the reader
    # passes them on, and the config names the demand file's row.
    (tmp_path / "scenario.cfg").write_text(
        SCENARIO_TEXT.replace("rate 0 900 40.0\nmix 0.8 0.2 0.0", "file demand.csv"))
    for row, message in [("r1,x,A,B,1,", "bad demand row"), ("r1,5,A,Z,1,", "unknown stop 'Z'"),
                         ("r0,5,B,A,1,", "duplicate request id in demand: r0"),
                         ("r1,5,A,B,1,banana", "unknown trip type 'banana'")]:
        bad = f"id,request_time,pickup,dropoff,passengers,trip_type\nr0,0,A,B,1,\n{row}\n"
        if message != "bad demand row":
            assert len(fileio.parse_demand_csv(bad)[0]) == 2
        (tmp_path / "demand.csv").write_text(bad)
        with pytest.raises(ParseError) as err:
            fileio.load_scenario(tmp_path / "scenario.cfg")
        assert str(err.value).startswith(f"{tmp_path / 'demand.csv'}:3: {message}")


def test_scenario_parse_full():
    config = fileio.parse_scenario_text(SCENARIO_TEXT)
    assert config.horizon == 1800
    assert config.fleet_size == 2
    assert config.miss_penalty == 1000
    assert config.network.travel_time("A", "B") == 50
    assert config.region == Region(member_stops={"A", "B", "C"}, gateway_stations={"G1"})
    assert config.demand_profile.rates == ((0, 900, 40.0),)
    assert config.demand_profile.mix == (0.8, 0.2, 0.0)
    assert config.routes[0].name == "r1"
    assert config.routes[0].served_stops == ("A", "B", "C")
    assert config.fleet_start == ("A",)
    # Without a walk_speed line the config keeps its own default.
    no_walk_speed = fileio.parse_scenario_text(SCENARIO_TEXT.replace("walk_speed 1.3\n", ""))
    assert no_walk_speed.walk_speed == ScenarioConfig.walk_speed
    requests = config.resolve_requests()
    assert requests and all(r.request_time < 900 for r in requests)
    # A later weight line overrides an earlier one, and only the weight that
    # takes effect is checked: a negative one, or one that makes the sum
    # overflow before a later line lowers it.
    for weights, expected in [("member_weight A -1\nmember_weight A 2", {"A": 2.0}),
                              ("member_weight A 1e308\nmember_weight B 1e308\nmember_weight B 0",
                               {"A": 1e308, "B": 0.0})]:
        text = SCENARIO_TEXT.replace("mix 0.8 0.2 0.0", f"mix 0.8 0.2 0.0\n{weights}")
        assert fileio.parse_scenario_text(text).demand_profile.member_weights == expected


def test_scenario_demand_file_relative(tmp_path):
    demand = fileio.write_demand_csv(
        [TripRequest(id="r1", pickup="A", dropoff="B", request_time=3)], {"r1": "intra"}
    )
    (tmp_path / "demand.csv").write_text(demand)
    text = SCENARIO_TEXT.replace(
        "rate 0 900 40.0\nmix 0.8 0.2 0.0", "file demand.csv"
    )
    (tmp_path / "scenario.cfg").write_text(text)
    config = fileio.load_scenario(tmp_path / "scenario.cfg")
    assert [r.id for r in config.resolve_requests()] == ["r1"]
    assert config.demand_types == {"r1": "intra"}


def test_scenario_demand_file_unknown_stop_names_row(tmp_path):
    (tmp_path / "demand.csv").write_text(
        "id,request_time,pickup,dropoff,passengers,trip_type\n"
        "r1,3,A,B,1,intra\nr2,4,A,m99,1,intra\n"
    )
    text = SCENARIO_TEXT.replace(
        "rate 0 900 40.0\nmix 0.8 0.2 0.0", "file demand.csv"
    )
    (tmp_path / "scenario.cfg").write_text(text)
    with pytest.raises(ParseError) as err:
        fileio.load_scenario(tmp_path / "scenario.cfg")
    assert f"{tmp_path / 'demand.csv'}:3: unknown stop 'm99'" in str(err.value)


def test_demand_file_with_overflowing_weights_is_a_conflict():
    # The weight sum is checked only for a profile, so a file beside weight
    # lines fails as the conflict it is, at the first weight line.
    text = SCENARIO_TEXT.replace("rate 0 900 40.0\nmix 0.8 0.2 0.0",
                                 "file demand.csv\nmember_weight A 1e308\nmember_weight B 1e308")
    with pytest.raises(ParseError) as err:
        fileio.parse_scenario_text(text, path="bad.txt")
    line_no = text.splitlines().index("member_weight A 1e308") + 1
    assert f"bad.txt:{line_no}: [demand] takes a file or a profile, not both" in str(err.value)


def test_scenario_unknown_keyword_rejected():
    with pytest.raises(ParseError):
        fileio.parse_scenario_text(SCENARIO_TEXT + "\n[scenario]\nbogus 1\n")


def test_scenario_requires_horizon_and_fleet():
    with pytest.raises(ParseError):
        fileio.parse_scenario_text("[scenario]\nseed 1\n[network]\nmode euclidean\nspeed 1\nstop A 0 0\n")


def test_instance_literal_parse():
    requests, shuttles, network, params = fileio.parse_instance_text(INSTANCE_TEXT)
    assert requests == [
        TripRequest(id="r001", pickup="A", dropoff="B", request_time=0),
        TripRequest(id="r002", pickup="B", dropoff="C", request_time=9, passengers=2),
    ]
    by_id = {v.id: v for v in shuttles}
    assert sorted(by_id) == ["s001", "s002"]
    committed = TripRequest(id="r905", pickup="C", dropoff="A", request_time=0)
    assert by_id["s002"].pending_pickups == {committed}
    assert by_id["s002"].capacity == 2
    assert by_id["s002"].arrival_time == 15
    assert network.stop_ids() == ["A", "B", "C"]
    assert params["max_requests_per_plan"] == 2
    assert params["miss_penalty"] == 900
    assert params["penalties"] == {"r002": 50}


def test_instance_committed_must_be_defined():
    text = """\
[network]
mode euclidean
speed 10
stop A 0 0
stop B 10 0
[fleet]
shuttle s1 A 0 4
committed_pickup s1 r9
[requests]
request r1 0 A B 1
"""
    with pytest.raises(ParseError):
        fileio.parse_instance_text(text)


@pytest.mark.parametrize("line, message", [
    pytest.param("[requests]\nrequest r001 5 B A 1", "duplicate request id r001",
                 id="duplicate-request"),
    pytest.param("[requests]\nrequest r009 5 A Z 1", "unknown stop 'Z'",
                 id="request-unknown-stop"),
    pytest.param("[fleet]\nshuttle s003 Z 0 4", "unknown stop 'Z'", id="shuttle-unknown-stop"),
    pytest.param("[fleet]\nshuttle s001 B 0 4", "duplicate shuttle id s001",
                 id="duplicate-shuttle"),
    pytest.param("[fleet]\ncommitted_pickup s9 r002", "undefined shuttle s9",
                 id="pickup-undefined-shuttle"),
    pytest.param("[fleet]\ncommitted_dropoff s9 r002", "undefined shuttle s9",
                 id="dropoff-undefined-shuttle"),
    pytest.param("[fleet]\ncommitted_dropoff s001 r905", "committed twice",
                 id="committed-twice"),
    pytest.param("[requests]\npenalty r404 10", "undefined request r404",
                 id="penalty-undefined-request"),
    pytest.param("[fleet]\nshuttle s003 A 0 0", "shuttle s003: capacity must be >= 1",
                 id="shuttle-capacity-0"),
])
def test_instance_rejects_bad_reference(line, message):
    text, line_no = _parse_with_line(fileio.parse_instance_text, INSTANCE_TEXT, line)
    assert f"bad.txt:{line_no}: " in text
    assert message in text


@pytest.mark.parametrize("edits, message", [
    pytest.param({19: "shuttle s001 Y 0 8", 27: "request r004 15 F Z 1"},
                 "x:19: unknown stop 'Y'", id="shuttle-row-first"),
    pytest.param({27: "request r004 15 Z Y 1"}, "x:27: unknown stop 'Z'",
                 id="pickup-before-dropoff"),
])
def test_instance_names_first_unknown_stop_in_file_order(edits, message):
    lines = (SCENARIOS / "instance_small.txt").read_text().splitlines()
    for line_no, line in edits.items():
        lines[line_no - 1] = line
    with pytest.raises(ParseError) as err:
        fileio.parse_instance_text("\n".join(lines) + "\n", path="x")
    assert str(err.value) == message


@pytest.mark.parametrize("old, new, message", [
    pytest.param("max_requests_per_plan 2", "max_requests_per_plan 0",
                 "max_requests_per_plan must be >= 1", id="max-requests-per-plan"),
    pytest.param("miss_penalty 900", "miss_penalty -1", "miss_penalty must be >= 0",
                 id="miss-penalty"),
    pytest.param("penalty r002 50", "penalty r002 -5", "penalty for r002 must be >= 0",
                 id="request-penalty"),
    pytest.param("shuttle s001 A 0 4", "shuttle s001 A -50 4",
                 "shuttle s001: arrival_time must be >= 0", id="shuttle-arrival-time"),
])
def test_instance_value_out_of_range_names_its_line(old, new, message):
    lines = INSTANCE_TEXT.splitlines()
    line_no = lines.index(old) + 1
    lines[line_no - 1] = new
    with pytest.raises(ParseError) as err:
        fileio.parse_instance_text("\n".join(lines) + "\n", path="bad.txt")
    assert str(err.value) == f"bad.txt:{line_no}: {message}"
    if old.startswith("shuttle"):  # a shuttle line is never overridden: it cannot repeat
        return
    # A later line overrides the bad one, which is then never checked.
    lines[line_no - 1] = f"{new}\n{old}"
    overridden = fileio.parse_instance_text("\n".join(lines) + "\n")
    assert overridden[3] == fileio.parse_instance_text(INSTANCE_TEXT)[3]


@pytest.mark.parametrize("parse, text, old, new", [
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "stop C 1000 0", "stop A 1000 0",
                 id="duplicate-stop"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "stop C 1000 0",
                 "stop A 1000 0\nstop A 1200 0", id="stop-given-three-times"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "mode euclidean", "mode hexagonal",
                 id="unknown-mode"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "speed 10.0", "speed 0",
                 id="speed-not-positive"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "speed 10.0", "speed 1e-320",
                 id="speed-so-small-a-leg-overflows"),
    pytest.param(fileio.parse_instance_text, INSTANCE_TEXT, "speed 10", "speed 1e-320",
                 id="instance-speed-so-small-a-leg-overflows"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT.replace("stop A 0 0", "stop A -1e308 0"),
                 "stop B 500 0", "stop B 1e308 0", id="distance-overflows-at-later-stop"),
    pytest.param(fileio.parse_instance_text, INSTANCE_TEXT.replace("stop A 0 0", "stop A -1e308 0"),
                 "stop B 400 0", "stop B 1e308 0", id="instance-distance-overflows-at-later-stop"),
    pytest.param(fileio.parse_instance_text, GRAPH_INSTANCE_TEXT, "link B C 20", "link B Z 20",
                 id="link-unknown-stop"),
    pytest.param(fileio.parse_instance_text, GRAPH_INSTANCE_TEXT, "link B C 20", "link B C -20",
                 id="link-negative"),
    pytest.param(fileio.parse_instance_text, GRAPH_INSTANCE_TEXT, "link B A 10", "link A B -10",
                 id="link-negative-after-good-link"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "gateway G1", "gateway C",
                 id="gateway-is-member"),
    pytest.param(fileio.parse_scenario_text,
                 SCENARIO_TEXT.replace("member A B C", "gateway A\nmember B C"),
                 "member B C", "member A B C", id="member-repeats-earlier-gateway"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "mix 0.8 0.2 0.0",
                 "member_weight A -1\nmember_weight B 2\nmix 0.8 0.2 0.0",
                 id="negative-weight-before-another"),
    pytest.param(fileio.parse_scenario_text,
                 SCENARIO_TEXT.replace("[demand]\n", "[demand]\nmember_weight A 1e308\n"
                                       "member_weight B 1e308\n"),
                 "mix 0.8 0.2 0.0", "member_weight C 1\nmix 0.8 0.2 0.0",
                 id="weight-overflow-at-last-weight"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "rate 0 900 40.0",
                 "member_weight A -5", id="profile-without-rate"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "rate 0 900 40.0", "mix 0.5 0.6 0",
                 id="mix-without-rate"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "rate 0 900 40.0", "rate 900 0 40.0",
                 id="rate-empty-interval"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "mix 0.8 0.2 0.0", "rate 600 1200 10",
                 id="rate-overlap"),
    pytest.param(fileio.parse_scenario_text,
                 SCENARIO_TEXT.replace("rate 0 900 40.0\n", "rate 0 900 40.0\nrate 900 1800 10\n"),
                 "mix 0.8 0.2 0.0", "rate 300 600 10\nmix 0.8 0.2 0.0",
                 id="third-rate-overlaps-first"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "mix 0.8 0.2 0.0", "mix 0.8 0.3 0.0",
                 id="mix-sum"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "horizon 1800", "horizon 0",
                 id="horizon"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "max_defer 600", "max_defer 30",
                 id="max-defer"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "fleet_start A", "fleet_start A Z",
                 id="fleet-start-unknown-stop"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "fleet_start A",
                 "fleet_start A Z\nfleet_start B", id="fleet-start-unknown-stop-first-of-two"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "walk_speed 1.3", "walk_speed 0",
                 id="walk-speed"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "dispatch_interval 30",
                 "bin_seconds 30", id="bin-seconds"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "dispatch_interval 30",
                 "max_outstanding 0", id="max-outstanding"),
    pytest.param(fileio.parse_scenario_text,
                 SCENARIO_TEXT.replace("[demand]\n", "[demand]\nfile demand.csv\n"),
                 "rate 0 900 40.0", "rate 0 600 20.0", id="demand-file-and-profile"),
    pytest.param(fileio.parse_instance_text, GRAPH_INSTANCE_TEXT, "# toy network", "speed 9.0",
                 id="graph-speed"),
    pytest.param(fileio.parse_instance_text, INSTANCE_TEXT, "stop B 400 0",
                 "link A B 10\nstop B 400 0", id="metric-mode-link"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT.replace("mix 0.8 0.2 0.0\n", ""),
                 "rate 0 900 40.0", "file .", id="demand-file-unreadable"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "shuttle_capacity 4",
                 "shuttle_capacity 0", id="shuttle-capacity"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "max_requests_per_plan 2",
                 "max_requests_per_plan 0", id="max-requests-per-plan"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "miss_penalty 1000",
                 "miss_penalty -1", id="miss-penalty"),
    pytest.param(fileio.parse_scenario_text, SCENARIO_TEXT, "dispatch_interval 30",
                 "max_requests_per_tick 0", id="max-requests-per-tick"),
])
def test_section_error_names_offending_line(parse, text, old, new):
    lines = text.splitlines()
    line_no = lines.index(old) + 1
    lines[line_no - 1] = new
    assert line_no < len(lines)  # not the last line, which errors used to name
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines) + "\n", path="bad.txt")
    assert str(err.value).startswith(f"bad.txt:{line_no}: ")


@pytest.mark.parametrize("edits, at", [
    pytest.param({"[region]": "", "member A B C": "", "gateway G1": ""}, "rate 0 900 40.0",
                 id="rate-without-region"),
    pytest.param({"member A B C": "member A", "mix 0.8 0.2 0.0": "mix 0.5 0.5 0"},
                 "mix 0.5 0.5 0", id="intra-one-member"),
    pytest.param({"gateway G1": ""}, "mix 0.8 0.2 0.0", id="connector-no-gateway"),
    pytest.param({"mix 0.8 0.2 0.0": "mix 0.8 0.2 0.0\nmember_weight A 0\nmember_weight B 0"},
                 "mix 0.8 0.2 0.0", id="intra-one-positive-member"),
    pytest.param({"mix 0.8 0.2 0.0": "mix 0.8 0.2 0.0\ngateway_weight G1 0"},
                 "mix 0.8 0.2 0.0", id="connector-no-positive-gateway"),
])
def test_undrawable_demand_profile_fails_at_load(edits, at):
    text = "\n".join(edits.get(line, line) for line in SCENARIO_TEXT.splitlines()) + "\n"
    lines = text.splitlines()
    with pytest.raises(ParseError) as err:
        fileio.parse_scenario_text(text, path="bad.txt")
    assert str(err.value).startswith(f"bad.txt:{lines.index(at) + 1}: ")


GRAPH_SCENARIO_TEXT = """\
[scenario]
horizon 600
fleet_size 1
fleet_start a
[network]
mode graph
stop a 0 0
stop b 100 0
stop c 200 0
stop z 900 0
link a b 10
link b c 10
link c b 10
[baseline]
route r1 20 10 two_way a z
"""


@pytest.mark.parametrize("demand", [
    pytest.param("[region]\nmember a b c\n[demand]\nrate 0 600 60\n", id="region"),
    pytest.param("[demand]\nfile demand.csv\n", id="demand-file"),
])
def test_graph_stop_a_shuttle_cannot_reach_fails_at_load(tmp_path, demand):
    # b and c have no path back to the start stop a; z is a baseline-only
    # stop with no links at all.
    (tmp_path / "demand.csv").write_text(
        "id,request_time,pickup,dropoff,passengers,trip_type\nr1,5,b,c,1,\n")
    path = tmp_path / "scenario.cfg"
    path.write_text(GRAPH_SCENARIO_TEXT + demand)
    with pytest.raises(ParseError) as err:
        fileio.load_scenario(path)
    line_no = GRAPH_SCENARIO_TEXT.splitlines().index("stop a 0 0") + 1
    assert str(err.value) == f"{path}:{line_no}: stop a cannot be reached from stop b"
    path.write_text(GRAPH_SCENARIO_TEXT.replace("link c b 10", "link c b 10\nlink c a 10")
                    + demand)
    assert fileio.load_scenario(path).network.travel_time("b", "a") == 20


ONE_WAY_INSTANCE_TEXT = """\
[network]
mode graph
stop A 0 0
stop B 0 0
stop C 0 0
link A B 10
link B C 10
[fleet]
shuttle s1 A 0 4
[requests]
request r1 0 B A 1
"""


def test_instance_stop_a_shuttle_cannot_reach_fails_at_load():
    # The shuttle heads to A, and r1 rides from B back to A; no link leaves B
    # for A.  The load fails at the line of the stop not reached.
    with pytest.raises(ParseError) as err:
        fileio.parse_instance_text(ONE_WAY_INSTANCE_TEXT, path="bad.txt")
    line_no = ONE_WAY_INSTANCE_TEXT.splitlines().index("stop A 0 0") + 1
    assert str(err.value) == f"bad.txt:{line_no}: stop A cannot be reached from stop B"
    linked = ONE_WAY_INSTANCE_TEXT.replace("link B C 10", "link B C 10\nlink C A 10")
    assert fileio.parse_instance_text(linked)[2].travel_time("B", "A") == 20


def test_trips_csv_shape():
    records = [
        TripRecord(id="r1", request_time=5, trip_type="intra", pickup_time=30,
                   dropoff_time=90, status="completed"),
        TripRecord(id="r2", request_time=8, trip_type="outbound", status="pending"),
        # Picked up, not yet dropped off at the horizon.
        TripRecord(id="r3", request_time=9, trip_type="inbound", pickup_time=40,
                   status="pending"),
        TripRecord(id="r4", request_time=9, status="abandoned"),
    ]
    text = fileio.write_trips_csv(records)
    lines = text.splitlines()
    assert lines[0] == "id,request_time,pickup_time,dropoff_time,waiting,trip_time,status,trip_type"
    assert lines[1] == "r1,5,30,90,25,85,completed,intra"
    assert lines[2] == "r2,8,,,,,pending,outbound"
    assert lines[3] == "r3,9,40,,31,,pending,inbound"
    assert fileio.parse_trips_csv(text) == records
    with pytest.raises(ParseError) as err:
        fileio.parse_trips_csv(text + "r5,soon,,,,,pending,intra\n", path="trips.csv")
    assert "trips.csv:6:" in str(err.value)


def test_routes_file():
    routes = fileio.parse_routes_text(
        "route a 30 35 two_way\nroute b 35 30 circular X Y\n"
    )
    assert [r.name for r in routes] == ["a", "b"]
    assert routes[1].served_stops == ("X", "Y")
    with pytest.raises(ParseError):
        fileio.parse_routes_text("route a 30 35 sideways\n")
    with pytest.raises(ParseError):
        fileio.parse_routes_text("# nothing\n")
    # 0.004 min rounds to a 0 s headway, which no timetable can keep.
    message, line_no = _parse_with_line(fileio.parse_routes_text, "route a 30 35 two_way\n",
                                        "route b 30 0.004 two_way")
    assert f"bad.txt:{line_no}: route b: headway must be at least 1 s" in message
    # 1e307 min is 6e308 s, past the largest float; 1e300 min is 6e301 s, past
    # 2**53 s, where a float stops holding every whole second.
    for one_way in ("1e307", "1e300"):
        message, line_no = _parse_with_line(fileio.parse_routes_text, "route a 30 35 two_way\n",
                                            f"route c {one_way} 30 two_way")
        assert (f"bad.txt:{line_no}: route c: one-way time must be positive "
                "and time its rides within 2**53 s") in message
    message, line_no = _parse_with_line(fileio.parse_routes_text, "route a 30 35 two_way\n",
                                        "route d 30 1e15 two_way")
    assert f"bad.txt:{line_no}: route d: headway must be at least 1 s and at most 2**53 s" in message


# -- malformed lines, generated from the grammar tables --------------------------

FORMATS = {
    "scenario": (fileio.parse_scenario_text, fileio._SCENARIO),
    "instance": (fileio.parse_instance_text, fileio._INSTANCE),
    "routes": (fileio.parse_routes_text, fileio._ROUTES),
}

# A well-formed token for each argument type of the grammar.
SAMPLE = {str: "A", int: "1", fileio._real: "1.5", fileio._flag: "yes",
          fileio._int_or_none: "none"}


def _arity_cases():
    for fmt, (_, grammar) in FORMATS.items():
        for section, keywords in grammar.items():
            for key, spec in keywords.items():
                name = f"{fmt}-{section or 'top'}-{key}"
                yield pytest.param(fmt, section, key, spec.least - 1, id=f"{name}-short")
                if not spec.repeat:
                    yield pytest.param(fmt, section, key, len(spec.types) + 1, id=f"{name}-extra")


@pytest.mark.parametrize("fmt, section, key, count", list(_arity_cases()))
def test_wrong_arity_is_a_parse_error(fmt, section, key, count):
    parse, grammar = FORMATS[fmt]
    spec = grammar[section][key]
    types = spec.types + spec.types[-1:] * count
    line = " ".join([key] + [SAMPLE[kind] for kind in types[:count]])
    header = f"[{section}]\n" if section else ""
    message, line_no = _parse_with_line(parse, "# one malformed line\n" + header, line)
    assert f"bad.txt:{line_no}: {key} takes" in message


@pytest.mark.parametrize("line", [
    "[scenario]\nwaiting_per_passenger maybe",
    "[scenario]\nhorizon soon",
    "[scenario]\nmax_outstanding many",
    "[network]\nstop m99 1 2 3",
    "[network]\nspeed inf",
    "[region]\ngateway g01 540",
    "[demand]\nrate 0 10.5 3",
    "[bogus]",
    "[baseline]\nroute r2 20 10 sideways A B",
    "[baseline]\nroute r2 20 10 two_way A Z",
    "[baseline]\nroute r2 30 0.004 two_way A B",
    "[baseline]\nroute r2 20 10 two_way A B A",
    "[region]\nmember D",
    "[demand]\nmember_weight G1 2.0",
    "[demand]\ngateway_weight A 2.0",
    "[demand]\nmember_weight A -100",
    "[demand]\nmember_weight A 1e308\nmember_weight B 1e308",
    "[demand]\nseed 3",
    "[baseline]\nroute r2 30 1e307 two_way A B",
    "[network]\nspeed 1e-320",
    "[network]\nstop X 1e308 0\nstop Y -1e308 0",
    "[baseline]\nwalk_speed 1e-320",
], ids=lambda line: line.replace("\n", " "))
def test_scenario_malformed_line_names_file_and_line(line):
    message, line_no = _parse_with_line(fileio.parse_scenario_text, SCENARIO_TEXT, line)
    assert f"bad.txt:{line_no}: " in message
