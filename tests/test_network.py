import random

import pytest

from odshuttle.errors import UnknownStopError, UnreachableStopError
from odshuttle.network import Region, TravelNetwork, TripType, classify_trip
from odshuttle.types import Stop, TripRequest

from oracles import shortest_path_by_enumeration


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
    with pytest.raises(UnknownStopError):
        line_network.travel_time("A", "Z")


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
    with pytest.raises(UnreachableStopError):
        net.travel_time("B", "A")


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
    with pytest.raises(UnreachableStopError):
        _all_pairs(net, net.stop_ids())


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
    with pytest.raises(ValueError):
        Region(member_stops={"A"}, gateway_stations={"A"})


def test_network_rejects_duplicate_stop_ids():
    with pytest.raises(ValueError):
        TravelNetwork.euclidean([Stop("A", 0, 0), Stop("A", 5, 5)], speed=10)


def test_graph_rejects_negative_link():
    stops = [Stop("A", 0, 0), Stop("B", 1, 0)]
    with pytest.raises(ValueError):
        TravelNetwork.graph(stops, [("A", "B", -3)])


def test_graph_rejects_dangling_link():
    stops = [Stop("A", 0, 0)]
    with pytest.raises(KeyError):
        TravelNetwork.graph(stops, [("A", "Z", 3)])
