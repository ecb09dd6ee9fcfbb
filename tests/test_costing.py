import random

import pytest

from odshuttle.costing import (
    create_root_node,
    extend_node,
    get_possible_next_stops,
    optimal_sequence,
)
from odshuttle.enumeration import enumerate_plans
from odshuttle.errors import CapacityExceededError
from odshuttle.network import TravelNetwork
from odshuttle.types import ShuttleState, Stop, TripRequest

from conftest import random_costing_instance
from oracles import exhaustive_best_sequence


def idle(stop="A", t=0, capacity=4, **kw):
    return ShuttleState(id="v1", heading_stop=stop, arrival_time=t, capacity=capacity, **kw)


def req(rid, pickup, dropoff, t=0, pax=1):
    return TripRequest(id=rid, pickup=pickup, dropoff=dropoff, request_time=t, passengers=pax)


# -- plan costs ----------------------------------------------------------------


def test_empty_assignment_costs_zero(line_network):
    assert optimal_sequence(idle(), frozenset(), line_network) == (0, ())


def test_empty_assignment_costs_zero_with_commitments(line_network):
    v = idle(pending_pickups={req("p1", "B", "C")})
    plans = enumerate_plans([v], [], 1, line_network)
    assert [(p.cost, p.sequence) for p in plans.plans] == [(0, ("B", "C"))]


def test_single_request_cost_is_pickup_wait(line_network):
    # A->B is 40 s; request placed at t=0, so waiting is 40.
    assert optimal_sequence(idle(), {req("r1", "B", "C")}, line_network) == (40, ("B", "C"))


def test_two_requests_sharing_pickup_stop(line_network):
    rs = {req("r1", "B", "C"), req("r2", "B", "D")}
    # Both board at t=40: waiting 40 + 40.
    assert optimal_sequence(idle(), rs, line_network)[0] == 80


def test_marginal_cost_subtracts_committed_waiting(line_network):
    committed = req("p1", "B", "C", t=0)
    new = req("r1", "B", "D", t=0)
    v = idle(pending_pickups={committed})
    base = optimal_sequence(v, frozenset(), line_network)[0]
    with_new = optimal_sequence(v, {new}, line_network)[0]
    assert (base, with_new) == (40, 80)
    plans = enumerate_plans([v], [new], 1, line_network)
    assert [p.cost for p in plans.plans] == [0, with_new - base]


def test_idle_empty_plan_evaluates_to_zero(line_network):
    assert optimal_sequence(idle(), frozenset(), line_network)[0] == 0


def test_forced_single_sequence(line_network):
    # Shuttle reaches B at 25, then B->C is 40 s: pickup at 65, placed at 10.
    v = ShuttleState(id="v1", heading_stop="B", arrival_time=25, capacity=4,
                     pending_pickups={req("p1", "C", "D", t=10)})
    assert optimal_sequence(v, frozenset(), line_network) == (55, ("C", "D"))


def test_three_requests_match_interleaving_minimum():
    stops = [Stop("A", 0, 0), Stop("B", 400, 0), Stop("C", 800, 0), Stop("D", 1200, 0),
             Stop("E", 0, 300), Stop("F", 400, 300)]
    net = TravelNetwork.euclidean(stops, 10)
    rs = {req("r1", "B", "D", t=0), req("r2", "E", "F", t=10), req("r3", "C", "A", t=30)}
    # Frozen from the exhaustive interleaving oracle.
    assert optimal_sequence(idle(), rs, net) == (190, ("E", "B", "C", "A", "D", "F"))
    assert optimal_sequence(idle(), rs, net) == exhaustive_best_sequence(idle(), rs, net)


def test_infeasible_when_capacity_cannot_hold_shared_pickup(line_network):
    rs = {req("r1", "B", "C"), req("r2", "B", "D")}
    assert optimal_sequence(idle(capacity=1), rs, line_network) is None
    # The infeasible pair is dropped from the plan set, not priced.
    plans = enumerate_plans([idle(capacity=1)], sorted(rs, key=lambda r: r.id), 2, line_network)
    assert [p.request_ids for p in plans.plans] == [(), ("r1",), ("r2",)]


def test_feasible_with_distinct_pickups_at_capacity_one(line_network):
    # pick r1, drop r1, pick r2, drop r2 keeps one seat enough.
    rs = {req("r1", "B", "C"), req("r2", "C", "D")}
    assert optimal_sequence(idle(capacity=1), rs, line_network) is not None


# -- node operations -----------------------------------------------------------


def test_create_root_node_mirrors_shuttle_state(line_network):
    committed = req("p1", "B", "C")
    riding = req("o1", "A", "D")
    v = ShuttleState(id="v1", heading_stop="B", arrival_time=17, capacity=4,
                     pending_pickups={committed}, pending_dropoffs={riding})
    new = req("r1", "C", "A")
    root = create_root_node(v, {new})
    assert root.stop == "B"
    assert root.time == 17
    assert root.awaiting_pickup == {committed, new}
    assert root.awaiting_dropoff == {riding}
    assert root.waiting == 0
    assert root.onboard == 1
    assert root.path == ()


def test_create_root_terminal_when_no_work():
    root = create_root_node(idle(), frozenset())
    assert root.is_terminal()
    assert get_possible_next_stops(root) == set()


def test_create_root_rejects_already_committed(line_network):
    r = req("r1", "B", "C")
    v = idle(pending_pickups={r})
    with pytest.raises(ValueError):
        create_root_node(v, {r})


def test_possible_stops_deduplicate_shared_pickup():
    root = create_root_node(idle(), {req("r1", "B", "C"), req("r2", "B", "D")})
    assert get_possible_next_stops(root) == {"B"}


def test_possible_stops_dropoff_only():
    v = idle(pending_dropoffs={req("o1", "C", "D")})
    root = create_root_node(v, frozenset())
    assert get_possible_next_stops(root) == {"D"}


def test_possible_stops_exclude_capacity_violations():
    v = idle(capacity=1)
    root = create_root_node(v, {req("r1", "B", "C"), req("r2", "B", "D"), req("r3", "C", "A")})
    # B would board two passengers at once; only C survives.
    assert get_possible_next_stops(root) == {"C"}


def test_extend_accumulates_pickup_waiting(line_network):
    # Arrival at 100 for a request placed at 40: waiting grows by 60.
    v = ShuttleState(id="v1", heading_stop="A", arrival_time=60, capacity=4)
    root = create_root_node(v, {req("r1", "B", "C", t=40)})
    child = extend_node(root, "B", line_network)
    assert child.time == 100
    assert child.waiting == 60
    assert child.awaiting_pickup == frozenset()
    assert {r.id for r in child.awaiting_dropoff} == {"r1"}
    assert child.onboard == 1
    assert child.path == ("B",)


def test_extend_dropoff_leaves_waiting_unchanged(line_network):
    v = idle(pending_dropoffs={req("o1", "A", "C")})
    root = create_root_node(v, frozenset())
    child = extend_node(root, "C", line_network)
    assert child.waiting == 0
    assert child.is_terminal()
    assert child.onboard == 0


def test_extend_applies_pickup_and_unrelated_dropoff_together(line_network):
    rider = req("o1", "A", "B")
    v = idle(pending_dropoffs={rider})
    boarder = req("r1", "B", "D", t=0)
    root = create_root_node(v, {boarder})
    child = extend_node(root, "B", line_network)
    # One extension applies both changes, same as doing them by hand.
    assert child.awaiting_dropoff == {boarder}
    assert child.waiting == 40
    assert child.onboard == 1


def test_extend_waits_for_future_dated_request(line_network):
    v = idle()
    root = create_root_node(v, {req("r1", "B", "C", t=500)})
    child = extend_node(root, "B", line_network)
    # Shuttle arrives at 40, passenger shows at 500: no negative waiting.
    assert child.waiting == 0
    assert child.time == 500


def test_extend_rejects_capacity_overflow(line_network):
    v = idle(capacity=1)
    root = create_root_node(v, {req("r1", "B", "C"), req("r2", "B", "D")})
    with pytest.raises(CapacityExceededError):
        extend_node(root, "B", line_network)


def test_extend_rejects_actionless_stop(line_network):
    root = create_root_node(idle(), {req("r1", "B", "C")})
    with pytest.raises(ValueError):
        extend_node(root, "D", line_network)


# -- properties ----------------------------------------------------------------


def test_waiting_non_decreasing_along_any_path(line_network):
    rng = random.Random(99)
    for _ in range(100):
        shuttle, new, network = random_costing_instance(rng)
        node = create_root_node(shuttle, new)
        while True:
            stops = sorted(get_possible_next_stops(node))
            if not stops:
                break
            child = extend_node(node, rng.choice(stops), network)
            assert child.waiting >= node.waiting
            node = child


def test_matches_exhaustive_oracle_on_random_instances():
    rng = random.Random(2024)
    for _ in range(400):
        shuttle, new, network = random_costing_instance(rng)
        got = optimal_sequence(shuttle, new, network)
        want = exhaustive_best_sequence(shuttle, new, network)
        assert got == want


def test_per_passenger_weighting_scales_by_party_size(line_network):
    solo = req("r1", "B", "C", pax=1)
    party = req("r1", "B", "C", pax=3)
    assert optimal_sequence(idle(), {solo}, line_network, per_passenger=True)[0] == 40
    assert optimal_sequence(idle(), {party}, line_network, per_passenger=True)[0] == 120
    # Default costing stays per-request regardless of party size.
    assert optimal_sequence(idle(), {party}, line_network)[0] == 40


def test_per_passenger_matches_oracle():
    rng = random.Random(606)
    for _ in range(150):
        shuttle, new, network = random_costing_instance(rng)
        got = optimal_sequence(shuttle, new, network, per_passenger=True)
        want = exhaustive_best_sequence(shuttle, new, network, per_passenger=True)
        assert got == want


def test_marginal_cost_never_negative():
    rng = random.Random(314)
    for _ in range(200):
        shuttle, new, network = random_costing_instance(rng)
        with_new = optimal_sequence(shuttle, new, network)
        base = optimal_sequence(shuttle, frozenset(), network)
        if with_new is not None and base is not None:
            assert with_new[0] >= base[0]


def test_result_independent_of_input_ordering(line_network):
    rs = [req("r1", "B", "D"), req("r2", "C", "A", t=5), req("r3", "D", "B", t=9)]
    v = idle()
    baseline = optimal_sequence(v, rs, line_network)
    rng = random.Random(1)
    for _ in range(10):
        shuffled = rs[:]
        rng.shuffle(shuffled)
        assert optimal_sequence(v, shuffled, line_network) == baseline
