import itertools
import math
import random
from pathlib import Path

import pytest

from odshuttle import fileio
from odshuttle.errors import ConfigError
from odshuttle.network import Region, TravelNetwork, TripType, classify_trip
from odshuttle.types import Stop, TripRequest

from oracles import shortest_path_by_enumeration

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_travel_time_identity(line_network):
    assert line_network.travel_time("A", "A") == 0


def test_travel_time_euclidean_distance_over_speed():
    net = TravelNetwork.euclidean([Stop("A", 0, 0), Stop("B", 180, 240)], speed=10)
    assert net.travel_time("A", "B") == 30  # 300 m at 10 m/s


def test_travel_time_rounds_up():
    net = TravelNetwork.euclidean([Stop("A", 0, 0), Stop("B", 301, 0)], speed=10)
    assert net.travel_time("A", "B") == 31


def test_travel_time_manhattan():
    net = TravelNetwork.manhattan([Stop("A", 0, 0), Stop("B", 300, 400)], speed=10)
    assert net.travel_time("A", "B") == 70


def test_travel_time_unknown_stop(line_network):
    # check_known's fault, keyed by the stop, the first stop first.
    for a, b, named in [("A", "Z", "Z"), ("Z", "A", "Z"), ("Y", "Z", "Y")]:
        with pytest.raises(ConfigError) as err:
            line_network.travel_time(a, b)
        assert str(err.value) == f"unknown stop {named!r}"
        assert err.value.fields == (named,)


def test_graph_three_node_line():
    stops = [Stop("A", 0, 0), Stop("B", 1, 0), Stop("C", 2, 0)]
    links = [("A", "B", 10), ("B", "C", 20), ("C", "B", 20), ("B", "A", 10)]
    net = TravelNetwork.graph(stops, links)
    # Exhaustive path enumeration agrees on the tiny graph.
    assert net.travel_time("A", "C") == 30
    assert shortest_path_by_enumeration(["A", "B", "C"], links, "A", "C") == 30


def test_graph_unreachable_pair():
    stops = [Stop("A", 0, 0), Stop("B", 1, 0)]
    net = TravelNetwork.graph(stops, [("A", "B", 5)])
    assert net.travel_time("A", "B") == 5
    # check_reachable's fault, with its key.
    with pytest.raises(ConfigError) as err:
        net.travel_time("B", "A")
    assert str(err.value) == "stop A cannot be reached from stop B"
    assert err.value.fields == (("network", "A"),)


@pytest.mark.parametrize("links", [
    pytest.param([("B", "A", 5)], id="missing-leg-sorts-first"),
    pytest.param([("A", "B", 5), ("B", "A", 5)], id="strongly-connected"),
])
def test_check_reachable_resolves_every_stop_first(links):
    # A->B is missing in the first graph and sorts before Z, yet the unknown
    # stop raises: every stop is resolved before any row is read.
    net = TravelNetwork.graph([Stop("A", 0, 0), Stop("B", 1, 0)], links)
    with pytest.raises(KeyError) as err:
        net.check_reachable(["A", "B", "Z"])
    assert err.value.args == ("Z",)


def _random_strongly_connected_graph(rng, n):
    stops = [Stop(f"g{i}", i, 0) for i in range(n)]
    ids = [s.id for s in stops]
    links = []
    for i in range(n):  # ring guarantees strong connectivity
        links.append((ids[i], ids[(i + 1) % n], rng.randint(1, 50)))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(ids, 2)
        links.append((a, b, rng.randint(1, 50)))
    return stops, ids, links


def _all_pairs(net, ids):
    return {(a, b): net.travel_time(a, b) for a in ids for b in ids}


def test_all_pairs_matches_per_pair_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        stops, ids, links = _random_strongly_connected_graph(rng, 4)
        net = TravelNetwork.graph(stops, links)
        times = _all_pairs(net, ids)
        for a in ids:
            assert times[a, a] == 0
            for b in ids:
                assert times[a, b] == shortest_path_by_enumeration(ids, links, a, b)


def test_all_pairs_triangle_inequality():
    rng = random.Random(11)
    for _ in range(20):
        stops, ids, links = _random_strongly_connected_graph(rng, 5)
        net = TravelNetwork.graph(stops, links)
        m = _all_pairs(net, ids)
        for a in ids:
            for b in ids:
                for c in ids:
                    assert m[a, c] <= m[a, b] + m[b, c]


def test_all_pairs_symmetric_in_metric_mode(line_network):
    ids = line_network.stop_ids()
    m = _all_pairs(line_network, ids)
    for a in ids:
        for b in ids:
            assert m[a, b] == m[b, a]


def test_all_pairs_disconnected_graph_raises():
    stops = [Stop("A", 0, 0), Stop("B", 1, 0)]
    net = TravelNetwork.graph(stops, [("A", "B", 5)])
    with pytest.raises(ConfigError, match="^stop A cannot be reached from stop B$"):
        _all_pairs(net, net.stop_ids())


# -- strong connectivity ------------------------------------------------------------


@pytest.mark.parametrize("links, connected", [
    pytest.param([("A", "B", 5), ("B", "C", 5), ("C", "A", 5)], True, id="one-way-ring"),
    pytest.param([("A", "B", 5), ("B", "C", 5), ("C", "B", 5), ("B", "A", 5)], True,
                 id="two-way-line"),
    pytest.param([("A", "B", 5), ("B", "C", 5), ("C", "B", 5)], False, id="one-way-link"),
    pytest.param([("B", "A", 5), ("B", "C", 5), ("C", "B", 5)], False, id="one-way-into-A"),
    pytest.param([("A", "B", 5), ("B", "A", 5)], False, id="unlinked-stop"),
    pytest.param([], False, id="no-links"),
])
def test_graph_strongly_connected_flag(links, connected):
    stops = [Stop("A", 0, 0), Stop("B", 1, 0), Stop("C", 2, 0)]
    assert TravelNetwork.graph(stops, links).strongly_connected is connected


@pytest.mark.parametrize("make", [TravelNetwork.euclidean, TravelNetwork.manhattan])
def test_metric_networks_are_strongly_connected(make):
    rng = random.Random(5)
    for n in (1, 2, 7):
        stops = [Stop(f"s{i}", rng.uniform(0, 500), rng.uniform(0, 500)) for i in range(n)]
        assert make(stops, speed=3.0).strongly_connected is True


def test_strongly_connected_flag_matches_every_row():
    # The flag holds exactly when no row marks a stop unreachable.
    rng = random.Random(39)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 6)
        stops = [Stop(f"g{i}", i, 0) for i in range(n)]
        links = [(*rng.sample([s.id for s in stops], 2), rng.randint(0, 50))
                 for _ in range(rng.randint(0, 3 * n) if n > 1 else 0)]
        net = TravelNetwork.graph(stops, links)
        every_pair = all(None not in net.row(i) for i in range(n))
        assert net.strongly_connected is every_pair
        seen.add(every_pair)
    assert seen == {True, False}


# A ceil'd metric leg can be one second longer than a detour through a
# third stop.  Metric networks are closed under shortest paths, so the
# travel time takes the detour and the triangle inequality holds exactly;
# the sequencing search's lower bound relies on that.


def _raw_leg(mode, p, q, speed):
    """A metric leg rounded up to whole seconds, before any detour."""
    (px, py), (qx, qy) = p, q
    distance = math.hypot(px - qx, py - qy) if mode == "euclidean" else abs(px - qx) + abs(py - qy)
    return math.ceil(distance / speed)


@pytest.mark.parametrize("make, a, b, c", [
    pytest.param(TravelNetwork.euclidean, (336.8, 140.7), (110.4, 310.5), (56.4, 351.0),
                 id="euclidean"),
    pytest.param(TravelNetwork.manhattan, (163.5, 1241.4), (1641.7, 399.9), (1752.0, 34.8),
                 id="manhattan"),
])
def test_ceiled_metric_detour_can_save_one_second(make, a, b, c):
    net = make([Stop("a", *a), Stop("b", *b), Stop("c", *c)], speed=0.1)
    tt = net.travel_time
    assert tt("a", "c") == tt("a", "b") + tt("b", "c")
    assert tt("a", "c") == _raw_leg(make.__name__, a, c, 0.1) - 1


@pytest.mark.parametrize("make", [TravelNetwork.euclidean, TravelNetwork.manhattan])
def test_ceiled_metric_detour_saves_at_most_one_second(make):
    rng = random.Random(5)
    savings = set()
    for _ in range(40):
        points = [(round(rng.uniform(0, 400), 1), round(rng.uniform(0, 400), 1))
                  for _ in range(6)]
        # Points on segments between others, and on one vertical line, make
        # the near-ties that round badly.
        for _ in range(3):
            (ax, ay), (bx, by) = rng.sample(points, 2)
            f = rng.random()
            points.append((round(ax + f * (bx - ax), 1), round(ay + f * (by - ay), 1)))
        points += [(points[0][0], round(rng.uniform(0, 400), 1)) for _ in range(3)]
        net = make([Stop(f"s{i}", x, y) for i, (x, y) in enumerate(points)], speed=0.1)
        m = _all_pairs(net, net.stop_ids())
        for a, b, c in itertools.product(net.stop_ids(), repeat=3):
            assert m[a, c] <= m[a, b] + m[b, c]
        for (a, p), (c, q) in itertools.product(enumerate(points), repeat=2):
            savings.add(_raw_leg(make.__name__, p, q, 0.1) - m[f"s{a}", f"s{c}"])
    assert savings == {0, 1}  # the closure lowers some legs, and by one second only


@pytest.mark.parametrize("name, speed", [("lowridership.cfg", 9.0), ("peakdemand.cfg", 7.0)])
def test_bundled_networks_have_no_shorter_detour(name, speed):
    # The bundled outputs and the benchmark fingerprints were recorded with
    # raw ceil'd legs; they hold while no bundled leg has a faster detour.
    text = (SCENARIOS / name).read_text()
    assert "mode euclidean" in text.splitlines() and f"speed {speed}" in text.splitlines()
    net = fileio.parse_scenario_text(text, name).network
    points = {stop.id: (stop.x, stop.y) for stop in net.stops.values()}
    for a, b in itertools.product(net.stop_ids(), repeat=2):
        assert net.travel_time(a, b) == _raw_leg("euclidean", points[a], points[b], speed), (a, b)


@pytest.mark.parametrize("make", [TravelNetwork.euclidean, TravelNetwork.manhattan])
@pytest.mark.parametrize("speed", [0, -2.5])
def test_metric_network_rejects_non_positive_speed(make, speed):
    with pytest.raises(ConfigError, match="positive speed") as err:
        make([Stop("A", 0, 0), Stop("B", 3, 4)], speed=speed)
    assert err.value.fields == ("speed",)


@pytest.mark.parametrize("make", [TravelNetwork.euclidean, TravelNetwork.manhattan])
@pytest.mark.parametrize("stops, speed, at_fault", [
    pytest.param([Stop("A", 0, 0), Stop("B", 3, 4)], 1e-320, "speed", id="speed"),
    pytest.param([Stop("A", 1e308, 0), Stop("B", -1e308, 0)], 9.0, ("stops", 1), id="distance"),
    pytest.param([Stop("A", 1e308, 0), Stop("B", -1e308, 0), Stop("C", 0, 0)], 9.0,
                 ("stops", 1), id="distance-not-last-stop"),
])
def test_metric_network_rejects_a_leg_that_overflows(make, stops, speed, at_fault):
    # An overflowing distance names the later of its two stops' positions.
    with pytest.raises(ConfigError, match="not a finite number of seconds") as err:
        make(stops, speed=speed)
    assert err.value.fields == (at_fault,)


# -- region / classification -------------------------------------------------

REGION = Region(member_stops={"A", "B", "C"}, gateway_stations={"G1", "G2"})


def _req(pickup, dropoff):
    return TripRequest(id="r1", pickup=pickup, dropoff=dropoff, request_time=0)


def test_classify_intra_region():
    assert classify_trip(_req("A", "B"), REGION) is TripType.INTRA_REGION


def test_classify_outbound_connector():
    assert classify_trip(_req("A", "G1"), REGION) is TripType.OUTBOUND_CONNECTOR


def test_classify_inbound_connector():
    assert classify_trip(_req("G2", "C"), REGION) is TripType.INBOUND_CONNECTOR


def test_classify_gateway_to_gateway_rejected():
    with pytest.raises(ValueError):
        classify_trip(_req("G1", "G2"), REGION)


def test_classify_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        classify_trip(_req("A", "Z"), REGION)


def test_classify_total_and_deterministic():
    rng = random.Random(3)
    stops = sorted(REGION.member_stops | REGION.gateway_stations)
    for _ in range(200):
        a, b = rng.sample(stops, 2)
        req = _req(a, b)
        serviceable = a in REGION.member_stops or b in REGION.member_stops
        if serviceable:
            first = classify_trip(req, REGION)
            assert classify_trip(req, REGION) is first
        else:
            with pytest.raises(ValueError):
                classify_trip(req, REGION)


def test_region_rejects_overlap():
    with pytest.raises(ValueError) as err:
        Region(member_stops={"A", "B", "C"}, gateway_stations={"C", "A"})
    assert err.value.fields == ("A", "C")


@pytest.mark.parametrize("make", [
    pytest.param(lambda: TravelNetwork.euclidean([], 10), id="euclidean"),
    pytest.param(lambda: TravelNetwork.manhattan([], 10), id="manhattan"),
    pytest.param(lambda: TravelNetwork.graph([], []), id="graph"),
])
def test_network_rejects_no_stops(make):
    with pytest.raises(ConfigError, match="^network has no stops$") as err:
        make()
    assert err.value.fields == ("stops",)


def test_network_rejects_duplicate_stop_ids():
    # The error names the first repeat's position among the stops.
    stops = [Stop("A", 0, 0), Stop("B", 1, 1), Stop("A", 5, 5), Stop("A", 9, 9)]
    with pytest.raises(ValueError) as err:
        TravelNetwork.euclidean(stops, speed=10)
    assert err.value.fields == (("stops", 2),)


def test_graph_rejects_negative_link():
    stops = [Stop("A", 0, 0), Stop("B", 1, 0)]
    with pytest.raises(ValueError) as err:
        TravelNetwork.graph(stops, [("A", "B", 3), ("A", "B", -3)])
    assert err.value.fields == (("links", 1),)


@pytest.mark.parametrize("seconds", [math.inf, math.nan])
def test_graph_rejects_a_link_time_that_is_not_finite(seconds):
    stops = [Stop("a", 0, 0), Stop("b", 1, 0)]
    with pytest.raises(ConfigError, match="link a->b: .* not a finite number") as err:
        TravelNetwork.graph(stops, [("a", "b", seconds)])
    assert err.value.fields == (("links", 0),)


def test_graph_rejects_dangling_link():
    stops = [Stop("A", 0, 0)]
    with pytest.raises(ConfigError, match="link names unknown stop 'Z'") as err:
        TravelNetwork.graph(stops, [("A", "A", 0), ("A", "Z", 3)])
    assert err.value.fields == (("links", 1),)
