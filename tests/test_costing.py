import dataclasses
import random
from itertools import product

import pytest

from odshuttle import costing, fileio
from odshuttle.costing import optimal_sequence
from odshuttle.enumeration import enumerate_plans, plan_route
from odshuttle.errors import ConfigError, OdshuttleError, ParseError
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
    assert [(p.cost, plan_route(v, p, line_network))
            for p in plans.per_vehicle["v1"]] == [(0, ("B", "C"))]


def test_single_request_cost_is_pickup_wait(line_network):
    # A->B is 40 s; request placed at t=0, so waiting is 40.
    assert optimal_sequence(idle(), {req("r1", "B", "C")}, line_network) == (40, ("B", "C"))


def test_two_requests_sharing_pickup_stop(line_network):
    rs = {req("r1", "B", "C"), req("r2", "B", "D")}
    # Both board at t=40 on one visit to B: waiting 40 + 40.
    assert optimal_sequence(idle(), rs, line_network) == (80, ("B", "C", "D"))


def test_marginal_cost_subtracts_committed_waiting(line_network):
    committed = req("p1", "B", "C", t=0)
    new = req("r1", "B", "D", t=0)
    v = idle(pending_pickups={committed})
    base = optimal_sequence(v, frozenset(), line_network)[0]
    with_new = optimal_sequence(v, {new}, line_network)[0]
    assert (base, with_new) == (40, 80)
    plans = enumerate_plans([v], [new], 1, line_network)
    assert [p.cost for p in plans.per_vehicle["v1"]] == [0, with_new - base]


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
    assert [p.request_ids for p in plans.per_vehicle["v1"]] == [(), ("r1",), ("r2",)]


def test_feasible_with_distinct_pickups_at_capacity_one(line_network):
    # pick r1, drop r1, pick r2, drop r2 keeps one seat enough: at C r1
    # alights and r2 boards on the same visit (waiting 40 + 80).
    rs = {req("r1", "B", "C"), req("r2", "C", "D")}
    assert optimal_sequence(idle(capacity=1), rs, line_network) == (120, ("B", "C", "D"))


# -- search state --------------------------------------------------------------


def test_rejects_request_already_committed(line_network):
    r = req("r1", "B", "C")
    v = idle(pending_pickups={r})
    with pytest.raises(ValueError, match=r"shuttle v1: r1$"):
        optimal_sequence(v, {r, req("r2", "C", "D")}, line_network)


def test_rider_aboard_only_needs_dropoff(line_network):
    v = idle(pending_dropoffs={req("o1", "A", "D")})
    assert optimal_sequence(v, frozenset(), line_network) == (0, ("D",))


def test_future_dated_pickup_idles_shuttle(line_network):
    # The shuttle reaches B at 40 and idles until r1 shows at 500, so r1
    # waits 0; it then leaves B at 500 and reaches C at 540, 30 s after
    # r2 was placed.  Visiting C first would cost r1 50 s instead.
    rs = {req("r1", "B", "C", t=500), req("r2", "C", "D", t=510)}
    assert optimal_sequence(idle(), rs, line_network) == (30, ("B", "C", "D"))
    assert optimal_sequence(idle(), rs, line_network) == exhaustive_best_sequence(
        idle(), rs, line_network)


def test_create_root_terminal_when_no_work(line_network):
    # Nothing committed, nothing new: no stop to visit, wherever the shuttle is.
    v = idle(stop="C", t=300)
    assert optimal_sequence(v, frozenset(), line_network) == (0, ())
    assert optimal_sequence(v, frozenset(), line_network, per_passenger=True) == (0, ())
    plans = enumerate_plans([v], [], 1, line_network)
    assert [(p.cost, plan_route(v, p, line_network)) for p in plans.per_vehicle["v1"]] == [(0, ())]


def test_possible_stops_deduplicate_shared_pickup(line_network):
    rs = {req("r1", "B", "C"), req("r2", "B", "D")}
    cost, sequence = optimal_sequence(idle(), rs, line_network)
    # One visit to B boards both requests.
    assert sequence.count("B") == 1
    assert (cost, sequence) == (80, ("B", "C", "D"))


def test_possible_stops_dropoff_only(line_network):
    v = idle(pending_dropoffs={req("o1", "C", "D")})
    assert optimal_sequence(v, frozenset(), line_network) == (0, ("D",))


def test_possible_stops_exclude_capacity_violations(line_network):
    # With o1 aboard, B would board two more into two seats: the shuttle
    # must first drop o1 at C (arriving at B at 120, so 120 + 120 waiting).
    rs = {req("r1", "B", "C"), req("r2", "B", "D")}
    riding = {req("o1", "A", "C")}
    cramped = idle(capacity=2, pending_dropoffs=riding)
    assert optimal_sequence(cramped, rs, line_network) == (240, ("C", "B", "C", "D"))
    assert optimal_sequence(cramped, rs, line_network) == exhaustive_best_sequence(
        cramped, rs, line_network)
    # One more seat lets B come first.
    roomy = idle(capacity=3, pending_dropoffs=riding)
    assert optimal_sequence(roomy, rs, line_network) == (80, ("B", "C", "D"))


def test_extend_accumulates_pickup_waiting(line_network):
    # Arrival at B at 60 + 40 = 100 for a request placed at 40: waiting 60.
    v = ShuttleState(id="v1", heading_stop="A", arrival_time=60, capacity=4)
    assert optimal_sequence(v, {req("r1", "B", "C", t=40)}, line_network) == (60, ("B", "C"))


def test_extend_dropoff_leaves_waiting_unchanged(line_network):
    # Reaching C at 80 to let o1 off adds no waiting, weighted or not.
    v = idle(pending_dropoffs={req("o1", "A", "C")})
    assert optimal_sequence(v, frozenset(), line_network) == (0, ("C",))
    assert optimal_sequence(v, frozenset(), line_network, per_passenger=True) == (0, ("C",))


def test_extend_applies_pickup_and_unrelated_dropoff_together(line_network):
    # One seat: o1 alights at B and r1 boards on the same visit.
    v = idle(capacity=1, pending_dropoffs={req("o1", "A", "B")})
    assert optimal_sequence(v, {req("r1", "B", "D")}, line_network) == (40, ("B", "D"))


def test_extend_rejects_capacity_overflow(line_network):
    # Two boarding at B into one seat, or a party of two into one seat.
    shared = {req("r1", "B", "C"), req("r2", "B", "D")}
    assert optimal_sequence(idle(capacity=1), shared, line_network) is None
    party = {req("r1", "B", "C", pax=2)}
    assert optimal_sequence(idle(capacity=1), party, line_network) is None


# -- properties ----------------------------------------------------------------


def test_matches_exhaustive_oracle_on_random_instances():
    # Some shuttles have riders to drop and no pickup to make, one of them
    # at the heading stop; the route search's first branch must close on
    # their drop-off stops in index order, the least optimal route.
    rng = random.Random(2024)
    rider_only = 0
    for _ in range(400):
        shuttle, new, network = random_costing_instance(rng)
        got = optimal_sequence(shuttle, new, network)
        want = exhaustive_best_sequence(shuttle, new, network)
        assert got == want
        rider_only += not (new or shuttle.pending_pickups) and any(
            r.dropoff == shuttle.heading_stop for r in shuttle.pending_dropoffs)
    assert rider_only >= 5


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


# -- the search's lower bound ---------------------------------------------------
#
# The search prunes on waiting accrued plus, per outstanding pickup, the
# lateness of a direct drive there.  These instances keep at least three
# pickups outstanding so that the bound prunes, and use metric networks,
# whose ceil'd legs a detour can beat by a second before the network takes
# the shortest path (see test_network), as well as graphs.


def _bound_network(rng):
    kind = rng.choice(("euclidean", "manhattan", "graph"))
    if kind == "graph":
        n = rng.randint(4, 7)
        stops = [Stop(f"s{i}", i, 0) for i in range(n)]
        links = [(f"s{i}", f"s{(i + 1) % n}", rng.randint(1, 300)) for i in range(n)]
        links += [(*rng.sample([s.id for s in stops], 2), rng.randint(1, 300))
                  for _ in range(2 * n)]
        return TravelNetwork.graph(stops, links)
    if rng.random() < 0.5:
        # On one line, where ceil'd detours most often beat the raw leg.
        x = round(rng.uniform(0, 400), 1)
        points = [(x, round(rng.uniform(0, 400), 1)) for _ in range(5)]
    else:
        points = [(round(rng.uniform(0, 400), 1), round(rng.uniform(0, 400), 1))
                  for _ in range(5)]
    stops = [Stop(f"s{i}", x, y) for i, (x, y) in enumerate(points)]
    return getattr(TravelNetwork, kind)(stops, speed=0.1)


def _bound_instance(rng):
    network = _bound_network(rng)
    ids = network.stop_ids()
    count = [0]

    def make(prefix):
        count[0] += 1
        pickup, dropoff = rng.sample(ids, 2)
        return req(f"{prefix}{count[0]}", pickup, dropoff,
                   t=rng.choice((0, rng.randint(0, 3000))), pax=rng.choice((1, 1, 2, 3)))

    pickups = rng.randint(3, 4)
    committed = {make("c") for _ in range(rng.randint(0, 1))}
    new = {make("r") for _ in range(pickups - len(committed))}
    riding = {make("o") for _ in range(rng.randint(0, 1) if pickups == 3 else 0)}
    onboard = sum(r.passengers for r in riding)
    shuttle = ShuttleState(id="v1", heading_stop=rng.choice(ids),
                           arrival_time=rng.randint(0, 600), pending_pickups=committed,
                           pending_dropoffs=riding, capacity=max(onboard, rng.choice((2, 3, 4))))
    return shuttle, new, network


def test_bound_matches_oracle_with_outstanding_pickups():
    rng = random.Random(4141)
    for i in range(400):
        shuttle, new, network = _bound_instance(rng)
        for per_passenger in (False, True):
            got = optimal_sequence(shuttle, new, network, per_passenger)
            want = exhaustive_best_sequence(shuttle, new, network, per_passenger)
            assert got == want, f"instance {i} (per_passenger={per_passenger})"


def test_bound_keeps_lexicographic_tie_on_ceiled_detour():
    # (s4, s0, s1, s2, s3) and (s4, s1, s2, s0, s3) both cost 7463 s.  The
    # raw leg s0 -> s2 is 3018 s, one more than via s1 (1647 + 1370); a bound
    # reading it would cut the smaller sequence.  The network's s0 -> s2 time
    # is the detour's 3017 s, so the bound stays exact and the tie holds.
    stops = [Stop("s0", 189.5, 337.6), Stop("s1", 189.5, 172.9), Stop("s2", 189.5, 35.9),
             Stop("s3", 189.5, 208.5), Stop("s4", 189.5, 395.6)]
    net = TravelNetwork.euclidean(stops, speed=0.1)
    rs = {req("r0", "s4", "s1", t=1750), req("r1", "s4", "s0"), req("r2", "s2", "s3")}
    v = idle(stop="s3", capacity=8)
    assert optimal_sequence(v, rs, net) == (7463, ("s4", "s0", "s1", "s2", "s3"))
    assert optimal_sequence(v, rs, net) == exhaustive_best_sequence(v, rs, net)


# -- an idle shuttle pricing one request ---------------------------------------
#
# optimal_sequence answers this shape in closed form, without the search.
# The oracle checks it on metric networks and on sparse graphs wherever
# the call's stops reach each other; elsewhere the call raises the
# loaders' reach error, even where the oracle finds a route.


def _idle_one_request(rng):
    kind = rng.choice(("euclidean", "manhattan", "graph"))
    n = rng.randint(3, 6)
    stops = [Stop(f"s{i}", round(rng.uniform(0, 400), 1), round(rng.uniform(0, 400), 1))
             for i in range(n)]
    if kind == "graph":
        links = [(*rng.sample([s.id for s in stops], 2), rng.randint(0, 300))
                 for _ in range(rng.randint(n - 1, 2 * n))]
        network = TravelNetwork.graph(stops, links)
    else:
        network = getattr(TravelNetwork, kind)(stops, speed=0.1)
    pickup, dropoff = rng.sample(network.stop_ids(), 2)
    heading = pickup if rng.random() < 0.2 else rng.choice(network.stop_ids())
    r = req("r1", pickup, dropoff, t=rng.randint(0, 4000), pax=rng.choice((1, 1, 2, 3, 5)))
    shuttle = idle(stop=heading, t=rng.randint(0, 2000), capacity=rng.choice((1, 2, 4)))
    return shuttle, r, network


def _priced(sequencer, shuttle, r, network, per_passenger):
    try:
        return sequencer(shuttle, {r}, network, per_passenger)
    except ConfigError as err:
        return "unreachable", str(err)


def _unreached(network, stops):
    """The loaders' message for the first pair of ``stops``, by id, whose second
    stop cannot be reached from its first, or None when every pair connects."""
    for a, b in product(sorted(set(stops)), repeat=2):
        try:
            network.travel_time(a, b)
        except ConfigError:
            return f"stop {b} cannot be reached from stop {a}"
    return None


def test_idle_one_request_matches_oracle():
    rng = random.Random(1616)
    seen = set()
    for i in range(600):
        shuttle, r, network = _idle_one_request(rng)
        unreached = _unreached(network, (shuttle.heading_stop, r.pickup, r.dropoff))
        for per_passenger in (False, True):
            got = _priced(optimal_sequence, shuttle, r, network, per_passenger)
            want = _priced(exhaustive_best_sequence, shuttle, r, network, per_passenger)
            if unreached:
                assert got == ("unreachable", unreached), f"instance {i}"
                if r.passengers > shuttle.capacity:
                    seen.add("over capacity on a missing leg")
                elif type(want[0]) is int:
                    seen.add("unreachable, though the oracle finds a route")
                else:
                    seen.add("unreachable leg")
                continue
            assert got == want, f"instance {i} (per_passenger={per_passenger})"
            if shuttle.heading_stop == r.pickup:
                seen.add("heading at pickup")
            if got is None:
                seen.add("over capacity")
            elif got[0] == 0 and r.request_time > shuttle.arrival_time:
                seen.add("future-dated")
            elif per_passenger and r.passengers > 1 and got[0] > 0:
                seen.add("per passenger")
    assert seen == {"heading at pickup", "over capacity", "over capacity on a missing leg",
                    "unreachable leg", "unreachable, though the oracle finds a route",
                    "future-dated", "per passenger"}


# -- lookup errors ---------------------------------------------------------------


def _spokes():
    """One-way spokes out of A: nothing leads back, and B and C do not connect."""
    stops = [Stop("A", 0, 0), Stop("B", 1, 0), Stop("C", 2, 0)]
    return TravelNetwork.graph(stops, [("A", "B", 5), ("A", "C", 7)])


def _spokes_instance(shuttle_at, requests, aboard) -> str:
    """A ``solve`` instance of the call on :func:`_spokes`' network."""
    return "\n".join(["[network]", "mode graph", "stop A 0 0", "stop B 1 0", "stop C 2 0",
                      "link A B 5", "link A C 7", "[fleet]", f"shuttle v1 {shuttle_at} 0 4",
                      *(f"committed_dropoff v1 {rid}" for rid, _, _ in aboard), "[requests]",
                      *(f"request {rid} 0 {p} {d} 1" for rid, p, d in requests + aboard)])


# The call's stops meet the loaders' reach rule before any search, so the
# message names the first pair by id that does not connect.  The network's
# travel time for that pair reads the same, and so does the solve loader,
# after the file and the line of the stop not reached.  The loader checks
# every stop its rows name, so a rider's pickup stop too.
@pytest.mark.parametrize("shuttle_at, requests, aboard, message, loaded", [
    pytest.param("B", [("r1", "A", "B")], [], "stop A cannot be reached from stop B",
                 "stop A cannot be reached from stop B", id="pickup-unreachable-from-shuttle"),
    pytest.param("A", [("r1", "B", "A"), ("r2", "C", "A")], [],
                 "stop A cannot be reached from stop B", "stop A cannot be reached from stop B",
                 id="pickups-unreachable-between"),
    pytest.param("A", [("r1", "B", "C")], [], "stop A cannot be reached from stop B",
                 "stop A cannot be reached from stop B", id="dropoff-unreachable-from-pickup"),
    pytest.param("B", [], [("o1", "A", "C")], "stop C cannot be reached from stop B",
                 "stop A cannot be reached from stop B", id="dropoff-unreachable-from-shuttle"),
])
def test_unreachable_stop_raises(shuttle_at, requests, aboard, message, loaded):
    net = _spokes()
    rs = {req(rid, pickup, dropoff) for rid, pickup, dropoff in requests}
    riders = {req(rid, pickup, dropoff) for rid, pickup, dropoff in aboard}
    shuttle = idle(stop=shuttle_at, pending_dropoffs=riders)
    with pytest.raises(ConfigError):
        exhaustive_best_sequence(shuttle, rs, net)
    _, b, *_, a = message.split()

    def travel(*_):
        net.travel_time(a, b)

    for price in (optimal_sequence, costing.optimal_cost, travel):
        with pytest.raises(ConfigError) as got:
            price(shuttle, rs, net)
        assert str(got.value) == message, price.__name__
        assert got.value.fields == (("network", b),), price.__name__
    with pytest.raises(ParseError) as got:
        fileio.parse_instance_text(_spokes_instance(shuttle_at, requests, aboard), "bad.txt")
    assert str(got.value) == f"bad.txt:{3 + 'ABC'.index(loaded.split()[1])}: {loaded}"


@pytest.mark.parametrize("shuttle_at, pickup, dropoff, named", [
    pytest.param("B", "C", "Z", "Z", id="B-C-Z"),
    pytest.param("Z", "B", "C", "Z", id="Z-B-C"),
    pytest.param("C", "Y", "B", "Y", id="C-Y-B"),
])
def test_unknown_stop_wins_over_a_missing_path(shuttle_at, pickup, dropoff, named):
    # B and C do not connect, and that pair sorts before the unknown stop.
    # The solve loader names it alike, at the row naming it.
    for price in (optimal_sequence, costing.optimal_cost):
        with pytest.raises(ConfigError) as err:
            price(idle(stop=shuttle_at), {req("r1", pickup, dropoff)}, _spokes())
        assert str(err.value) == f"unknown stop {named!r}", price.__name__
    text = _spokes_instance(shuttle_at, [("r1", pickup, dropoff)], [])
    line = next(i for i, row in enumerate(text.splitlines(), 1) if f" {named} " in row)
    with pytest.raises(ParseError) as err:
        fileio.parse_instance_text(text, "bad.txt")
    assert str(err.value) == f"bad.txt:{line}: unknown stop {named!r}"


def test_pickup_orders_priced_on_a_graph_that_is_not_strongly_connected(monkeypatch):
    # A ring through A, B, C and D, and a stop X nothing reaches: the call's
    # stops reach each other, so optimal_cost searches pickup orders only.
    searched = _count_searches(monkeypatch)
    stops = [Stop(s, 0, 0) for s in "ABCDX"]
    links = [("A", "B", 30), ("B", "C", 40), ("C", "D", 20), ("D", "A", 50), ("X", "A", 10)]
    net = TravelNetwork.graph(stops, links)
    assert not net.strongly_connected
    rs = {req("r1", "C", "A", t=5), req("r2", "B", "D"), req("r3", "D", "B", pax=2)}
    v = idle(stop="A", t=60, capacity=5, pending_dropoffs={req("o1", "X", "C")})
    for per_passenger in (False, True):
        searched.clear()
        cost = costing.optimal_cost(v, rs, net, per_passenger)
        assert searched
        want = exhaustive_best_sequence(v, rs, net, per_passenger)
        assert optimal_sequence(v, rs, net, per_passenger) == want
        assert cost == want[0]


# Stops resolve heading first, then pickup, then drop-off: the first
# unknown one is named, as the network's travel times along the route and
# its check of the three stops name it.
@pytest.mark.parametrize("shuttle_at, pickup, dropoff, named", [
    pytest.param("Z", "B", "C", "Z", id="Z-B-C"),
    pytest.param("A", "Z", "C", "Z", id="A-Z-C"),
    pytest.param("A", "B", "Z", "Z", id="A-B-Z"),
    pytest.param("Z", "Y", "X", "Z", id="Z-Y-X"),
    pytest.param("A", "Y", "X", "Y", id="A-Y-X"),
])
def test_unknown_stop_raises(line_network, shuttle_at, pickup, dropoff, named):
    def travel(*_):
        line_network.travel_time(shuttle_at, pickup)
        line_network.travel_time(pickup, dropoff)

    def check(*_):
        line_network.check_known((s, s) for s in (shuttle_at, pickup, dropoff))

    for price in (optimal_sequence, costing.optimal_cost, travel, check):
        with pytest.raises(ConfigError) as err:
            price(idle(stop=shuttle_at), {req("r1", pickup, dropoff)}, line_network)
        assert str(err.value) == f"unknown stop {named!r}", price.__name__


def test_unknown_stop_named_in_request_id_order(line_network):
    # The request whose id sorts first names its unknown stop, pickup before
    # drop-off, however the request sets iterate: ids with a prefix iterate
    # in many orders, and riders count among the requests.
    for prefix in ("", "Z", "q", "req-", *(f"p{i}" for i in range(40))):
        first, second = req(f"{prefix}a", "A", "Y"), req(f"{prefix}b", "X", "B")
        rider = req(f"{prefix}c", "W", "V")
        for shuttle, new in [(idle(), {second, first}),
                             (idle(pending_pickups={second}), {first}),
                             (idle(pending_pickups={first}), {second}),
                             (idle(pending_dropoffs={rider}), {second, first})]:
            for price in (optimal_sequence, costing.optimal_cost):
                with pytest.raises(ConfigError) as err:
                    price(shuttle, new, line_network)
                assert str(err.value) == "unknown stop 'Y'", (prefix, price.__name__)
        with pytest.raises(ConfigError) as err:
            optimal_sequence(idle(pending_dropoffs={rider}), {second}, line_network)
        assert str(err.value) == "unknown stop 'X'"


# -- optimal_cost --------------------------------------------------------------------
#
# optimal_cost must return optimal_sequence's cost, or None, and raise what it
# raises.  Where capacity cannot bind and no pickup is due after the
# shuttle's arrival time, it searches pickup orders only, time-free, on any
# network where the call's stops reach each other; elsewhere it runs the
# route search.  The instances cover both: parties up to 3 against 1 to 4
# seats make capacity bind, sparse graphs leave legs missing, and some
# pickups are dated in the future.


def _cost_network(rng):
    """A network and the stops an instance draws from."""
    kind = rng.choice(("euclidean", "manhattan", "graph", "graph", "graph"))
    n = rng.randint(3, 7)
    stops = [Stop(f"s{i}", round(rng.uniform(0, 600), 1), round(rng.uniform(0, 600), 1))
             for i in range(n)]
    ids = [s.id for s in stops]
    if kind != "graph":
        return getattr(TravelNetwork, kind)(stops, speed=rng.choice((0.5, 5.0))), ids
    links = []
    shape = rng.choice(("ring", "ring and a stop it cannot reach", "sparse"))
    if shape != "sparse":  # a ring through every stop: strongly connected
        links += [(ids[i], ids[(i + 1) % n], rng.randint(1, 300)) for i in range(n)]
    links += [(*rng.sample(ids, 2), rng.randint(0, 300)) for _ in range(rng.randint(0, 2 * n))]
    if shape == "ring and a stop it cannot reach":
        # Instances on the ring's stops miss no leg, yet the network is
        # not strongly connected.
        stops.append(Stop("x", -1, -1))
        links.append(("x", rng.choice(ids), rng.randint(1, 300)))
        if rng.random() < 0.2:
            ids = ids + ["x"]
    return TravelNetwork.graph(stops, links), ids


def _cost_instance(rng, drawn=None):
    """A shuttle, new requests and a network: ``drawn`` (network, stop ids) or a fresh one."""
    network, ids = drawn or _cost_network(rng)
    count = [0]

    def make(prefix):
        count[0] += 1
        pickup, dropoff = rng.sample(ids, 2)
        t = rng.choice((0, rng.randint(0, 400), rng.randint(400, 3000)))  # some future-dated
        return req(f"{prefix}{count[0]}", pickup, dropoff, t=t, pax=rng.choice((1, 1, 2, 3)))

    committed = {make("c") for _ in range(rng.randint(0, 2))}
    riding = {make("o") for _ in range(rng.randint(0, 2))}
    new = {make("r") for _ in range(rng.randint(0, 4 - len(committed)))}
    if committed and rng.random() < 0.03:
        new.add(next(iter(committed)))  # already committed: a ValueError
    onboard = sum(r.passengers for r in riding)
    shuttle = ShuttleState(id="v1", heading_stop=rng.choice(ids),
                           arrival_time=rng.randint(0, 600), pending_pickups=committed,
                           pending_dropoffs=riding,
                           capacity=max(onboard, rng.choice((1, 2, 3, 4, 8, 12))))
    return shuttle, new, network


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OdshuttleError, ValueError) as err:  # the type and message must agree
        return type(err), str(err)


def _route_cost(*args):
    """The cost :func:`optimal_sequence` finds, or its outcome when it finds none."""
    want = _outcome(optimal_sequence, *args)
    return want[0] if type(want) is tuple and type(want[0]) is int else want


def _count_searches(monkeypatch):
    """A list that grows by one per run of the time-free pickup-order search."""
    searched = []
    least_latency = costing._least_latency

    def counted(*args):
        searched.append(True)
        return least_latency(*args)

    monkeypatch.setattr(costing, "_least_latency", counted)
    return searched


def test_optimal_cost_equals_route_search_cost(monkeypatch):
    searched = _count_searches(monkeypatch)
    rng = random.Random(2121)
    seen = dict.fromkeys(("pickup orders", "route search", "route search infeasible",
                          "route search, legs missing", "missing leg", "already committed",
                          "future-dated", "oracle"), 0)
    for i in range(1200):
        shuttle, new, network = _cost_instance(rng)
        per_passenger = rng.random() < 0.5
        searched.clear()
        got = _outcome(costing.optimal_cost, shuttle, new, network, per_passenger)
        fast = bool(searched)
        want = _route_cost(shuttle, new, network, per_passenger)
        assert got == want, f"instance {i}"
        if type(want) is tuple:
            seen["missing leg" if want[0] is ConfigError else "already committed"] += 1
        elif fast:
            seen["pickup orders"] += 1
        elif want is None:
            seen["route search infeasible"] += 1
        elif network.strongly_connected:
            seen["route search"] += 1
        else:
            seen["route search, legs missing"] += 1
        if any(r.request_time > shuttle.arrival_time + 400 for r in new | shuttle.pending_pickups):
            seen["future-dated"] += 1
        if i % 4 == 0 and type(got) is int and 2 * len(new) + 2 * len(shuttle.pending_pickups) \
                + len(shuttle.pending_dropoffs) <= 9:
            best = exhaustive_best_sequence(shuttle, new, network, per_passenger)
            assert got == best[0], f"instance {i}"
            seen["oracle"] += 1
    assert all(count >= 20 for count in seen.values()), seen


def _renamed(shuttle, new, prefix):
    """The instance with ``prefix`` before every request id."""
    def rename(r):
        return dataclasses.replace(r, id=prefix + r.id)

    return (dataclasses.replace(shuttle,
                                pending_pickups={rename(r) for r in shuttle.pending_pickups},
                                pending_dropoffs={rename(r) for r in shuttle.pending_dropoffs}),
            {rename(r) for r in new})


def test_renaming_requests_leaves_outcome_unchanged():
    # A prefix keeps the ids' order but changes their hashes, so the request
    # sets iterate in another order; the cost, the route and the missing leg
    # an error names must not change.
    rng = random.Random(7)
    missing = 0
    for i in range(3000):
        shuttle, new, network = _cost_instance(rng)
        renamed = _renamed(shuttle, new, "Z")
        for price in (optimal_sequence, costing.optimal_cost):
            want = _outcome(price, shuttle, new, network)
            got = _outcome(price, *renamed, network)
            if type(want) is tuple and want[0] is ValueError:  # the message names the ids
                assert got == (ValueError, want[1].replace(": ", ": Z")), f"instance {i}"
            else:
                assert got == want, f"instance {i}"
            missing += type(want) is tuple and want[0] is ConfigError
    assert missing >= 1000  # about 515 draws miss a leg, each priced twice


# Where every pickup is due at or before the shuttle's arrival time t0, the
# least waiting is a constant term plus a time-free latency, memoized on the
# network.  These tests check that split from the outside.


def _shifted(shuttle, new, delta):
    """The instance with the arrival time and every request time ``delta`` later."""
    def move(r):
        return dataclasses.replace(r, request_time=r.request_time + delta)

    return (dataclasses.replace(shuttle, arrival_time=shuttle.arrival_time + delta,
                                pending_pickups={move(r) for r in shuttle.pending_pickups},
                                pending_dropoffs={move(r) for r in shuttle.pending_dropoffs}),
            {move(r) for r in new})


def _due_by_arrival(shuttle, new):
    """The shuttle arriving no earlier than its latest pickup is due."""
    return dataclasses.replace(shuttle, arrival_time=max(
        [shuttle.arrival_time, *(r.request_time for r in shuttle.pending_pickups | new)]))


def test_shifting_every_time_leaves_cost_unchanged(monkeypatch):
    searched = _count_searches(monkeypatch)
    rng = random.Random(2201)
    for i in range(1200):
        shuttle, new, network = _cost_instance(rng)
        if rng.random() < 0.5:
            shuttle = _due_by_arrival(shuttle, new)
        per_passenger = rng.random() < 0.5
        want = _outcome(costing.optimal_cost, shuttle, new, network, per_passenger)
        moved, moved_new = _shifted(shuttle, new, rng.randint(1, 5000))
        got = _outcome(costing.optimal_cost, moved, moved_new, network, per_passenger)
        assert got == want, f"instance {i}"
    assert len(searched) >= 40


def test_later_arrival_adds_its_delay_to_every_pickup(monkeypatch):
    searched = _count_searches(monkeypatch)
    rng = random.Random(2202)
    priced = 0
    for i in range(600):
        shuttle, new, network = _cost_instance(rng)
        shuttle = _due_by_arrival(shuttle, new)
        per_passenger = rng.random() < 0.5
        delta = rng.randint(1, 5000)
        later = dataclasses.replace(shuttle, arrival_time=shuttle.arrival_time + delta)
        before = _outcome(costing.optimal_cost, shuttle, new, network, per_passenger)
        after = _outcome(costing.optimal_cost, later, new, network, per_passenger)
        if type(before) is int:
            weight = sum(r.passengers if per_passenger else 1
                         for r in shuttle.pending_pickups | new)
            assert after == before + delta * weight, f"instance {i}"
            priced += 1
        else:
            assert after == before, f"instance {i}"
    assert priced >= 200 and len(searched) >= 30


def test_warm_memo_prices_as_cold(monkeypatch):
    searched = _count_searches(monkeypatch)
    rng = random.Random(2203)
    for i in range(400):
        shuttle, new, network = _cost_instance(rng)
        per_passenger = rng.random() < 0.5
        searched.clear()
        cold = _outcome(costing.optimal_cost, shuttle, new, network, per_passenger)
        ran = len(searched)
        assert len(network.latencies) == ran, f"instance {i}"
        warm = _outcome(costing.optimal_cost, shuttle, new, network, per_passenger)
        assert warm == cold and len(searched) == ran, f"instance {i}"


def test_shared_memo_matches_route_search():
    # Instances on one network share its memo, so keys recur across
    # instances that differ in times, riders and capacity.  Each is priced
    # from every heading stop, weighted per request and per passenger.
    rng = random.Random(2204)
    for n in range(10):
        drawn = _cost_network(rng)
        for i in range(40):
            shuttle, new, network = _cost_instance(rng, drawn)
            for stop in drawn[1]:
                v = dataclasses.replace(shuttle, heading_stop=stop)
                for per_passenger in (False, True):
                    want = _route_cost(v, new, network, per_passenger)
                    assert _outcome(costing.optimal_cost, v, new, network, per_passenger) == want, \
                        f"network {n}, instance {i}, from {stop}"


def test_future_dated_pickup_takes_route_search(line_network, monkeypatch):
    searched = _count_searches(monkeypatch)
    rs = {req("r1", "B", "C", t=500), req("r2", "C", "D", t=510)}
    assert costing.optimal_cost(idle(), rs, line_network) == 30
    rng = random.Random(2205)
    future = 0
    for i in range(400):
        shuttle, new, network = _cost_instance(rng)
        if not any(r.request_time > shuttle.arrival_time for r in shuttle.pending_pickups | new):
            continue
        per_passenger = rng.random() < 0.5
        want = _route_cost(shuttle, new, network, per_passenger)
        assert _outcome(costing.optimal_cost, shuttle, new, network, per_passenger) == want, \
            f"instance {i}"
        future += 1
    assert future >= 150 and not searched
