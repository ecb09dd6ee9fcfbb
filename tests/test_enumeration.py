import random

import pytest

from odshuttle.costing import optimal_sequence
from odshuttle.enumeration import enumerate_plans, plan_count_bound
from odshuttle.errors import InstanceTooLargeError
from odshuttle.types import ShuttleState, TripRequest

from conftest import make_grid_network
from oracles import exhaustive_best_sequence


def shuttles_at(net, n, capacity=8):
    first = net.stop_ids()[0]
    return [ShuttleState(id=f"v{i:02d}", heading_stop=first, arrival_time=0, capacity=capacity)
            for i in range(n)]


def requests_on(net, n):
    ids = net.stop_ids()
    return [TripRequest(id=f"r{i:02d}", pickup=ids[i % len(ids)],
                        dropoff=ids[(i + 1) % len(ids)], request_time=0)
            for i in range(n)]


@pytest.mark.parametrize("n_vehicles,n_requests,cap,expected", [
    (2, 3, 2, 14),
    (3, 5, 3, 78),
    (1, 6, 2, 22),
])
def test_fully_feasible_cardinality(n_vehicles, n_requests, cap, expected):
    rng = random.Random(5)
    net = make_grid_network(rng, 8)
    plans = enumerate_plans(shuttles_at(net, n_vehicles), requests_on(net, n_requests), cap, net)
    assert len(plans.plans) == expected
    assert plan_count_bound(n_vehicles, n_requests, cap) == expected


def test_no_requests_yields_only_empty_plans(line_network):
    plans = enumerate_plans(shuttles_at(line_network, 3), [], 2, line_network)
    assert len(plans.plans) == 3
    assert all(not p.requests and p.cost == 0 for p in plans.plans)


def test_every_vehicle_has_empty_plan(line_network):
    plans = enumerate_plans(shuttles_at(line_network, 2), requests_on(line_network, 2), 2, line_network)
    for candidates in plans.per_vehicle.values():
        empties = [p for p in candidates if not p.requests]
        assert len(empties) == 1
        assert empties[0].cost == 0


def test_capacity_infeasible_plan_absent(line_network):
    # Two single-passenger requests boarding together at B cannot fit a
    # one-seat shuttle; the exhaustive sequencer confirms no ordering works.
    v = ShuttleState(id="v00", heading_stop="A", arrival_time=0, capacity=1)
    r1 = TripRequest(id="r00", pickup="B", dropoff="C", request_time=0)
    r2 = TripRequest(id="r01", pickup="B", dropoff="D", request_time=0)
    assert exhaustive_best_sequence(v, {r1, r2}, line_network) is None
    plans = enumerate_plans([v], [r1, r2], 2, line_network)
    subsets = [p.request_ids for p in plans.plans]
    assert ("r00", "r01") not in subsets
    assert len(plans.plans) == 3  # empty + two singletons


def test_indices_partition_exactly(line_network):
    # A plan's index in ``plans`` is its vehicle's offset plus its rank.
    shuttles = shuttles_at(line_network, 3)
    plans = enumerate_plans(shuttles[::-1], requests_on(line_network, 3), 2, line_network)
    assert list(plans.per_vehicle) == [v.id for v in shuttles]
    offset = 0
    for candidates in plans.per_vehicle.values():
        assert plans.plans[offset:offset + len(candidates)] == candidates
        offset += len(candidates)
    assert offset == len(plans.plans)


def test_costs_match_fresh_costing_calls():
    rng = random.Random(17)
    net = make_grid_network(rng, 6)
    shuttles = shuttles_at(net, 2)
    requests = requests_on(net, 4)
    plans = enumerate_plans(shuttles, requests, 2, net)
    by_id = {v.id: v for v in shuttles}
    for vid, candidates in plans.per_vehicle.items():
        v = by_id[vid]
        for p in candidates:
            with_new = optimal_sequence(v, p.requests, net)
            base = optimal_sequence(v, frozenset(), net)
            assert (p.cost, p.sequence) == (with_new[0] - base[0], with_new[1])


def test_canonical_plan_ordering(line_network):
    plans = enumerate_plans(shuttles_at(line_network, 2), requests_on(line_network, 3), 2, line_network)
    keys = [(vid, len(p.requests), p.request_ids)
            for vid, candidates in plans.per_vehicle.items() for p in candidates]
    assert keys == sorted(keys)


def test_guard_rejects_oversized_instances(line_network):
    # 2 x (1 + 70 + C(70, 2) + C(70, 3)) = 114,452 plans at most, over the
    # 100,000 guard; the bound is checked before any sequencing.
    with pytest.raises(InstanceTooLargeError) as err:
        enumerate_plans(shuttles_at(line_network, 2), requests_on(line_network, 70), 3,
                        line_network)
    assert "2 vehicles x 70 requests with cap 3 yields up to 114452 plans (guard 100000)" \
        in str(err.value)


def test_max_outstanding_skips_overloaded_vehicles(line_network):
    committed = {TripRequest(id=f"c{i}", pickup="B", dropoff="C", request_time=0) for i in range(3)}
    loaded = ShuttleState(id="v00", heading_stop="A", arrival_time=0, capacity=8,
                          pending_pickups=committed)
    fresh = ShuttleState(id="v01", heading_stop="A", arrival_time=0, capacity=8)
    requests = requests_on(line_network, 2)
    plans = enumerate_plans([loaded, fresh], requests, 2, line_network, max_outstanding=4)
    # Loaded shuttle (3 committed) may take at most one more request.
    loaded_sizes = {len(p.requests) for p in plans.per_vehicle["v00"]}
    fresh_sizes = {len(p.requests) for p in plans.per_vehicle["v01"]}
    assert loaded_sizes == {0, 1}
    assert fresh_sizes == {0, 1, 2}


def test_sequences_serve_every_request_pickup_first():
    rng = random.Random(23)
    net = make_grid_network(rng, 7)
    shuttles = shuttles_at(net, 2, capacity=2)
    requests = requests_on(net, 4)
    plans = enumerate_plans(shuttles, requests, 3, net)
    for p in plans.plans:
        picked, dropped = set(), set()
        for stop in p.sequence:
            for r in p.requests:
                if r.pickup == stop and r not in picked:
                    picked.add(r)
                elif r.dropoff == stop and r in picked and r not in dropped:
                    dropped.add(r)
        assert picked == set(p.requests)
        assert dropped == set(p.requests)
