import random
from dataclasses import replace

import pytest

from odshuttle import enumeration
from odshuttle.costing import optimal_sequence, packed_cost
from odshuttle.enumeration import enumerate_plans, plan_count_bound, plan_route
from odshuttle.errors import ConfigError, InstanceTooLargeError
from odshuttle.fileio import write_plans_text
from odshuttle.network import TravelNetwork
from odshuttle.types import AssignmentPlan, ShuttleState, Stop, TripRequest

from conftest import idle_fleet_instance, make_grid_network
from oracles import exhaustive_best_sequence, reference_plans


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
    assert sum(map(len, plans.per_vehicle.values())) == expected
    assert plan_count_bound(n_vehicles, n_requests, cap) == expected


def test_no_requests_yields_only_empty_plans(line_network):
    plans = enumerate_plans(shuttles_at(line_network, 3), [], 2, line_network)
    assert sum(map(len, plans.per_vehicle.values())) == 3
    assert all(not p.requests and p.cost == 0
               for candidates in plans.per_vehicle.values() for p in candidates)


def test_every_vehicle_has_empty_plan(line_network):
    plans = enumerate_plans(shuttles_at(line_network, 2), requests_on(line_network, 2), 2, line_network)
    for candidates in plans.per_vehicle.values():
        empties = [p for p in candidates if not p.requests]
        assert len(empties) == 1
        assert empties[0].cost == 0


def test_pickup_on_a_ceiled_detour_costs_nothing_extra():
    # The raw leg A -> C (3506 s) is one second longer than via B (2830 +
    # 675).  The shuttle owes r1 at C; r2 waits at B, on the way, from
    # 2830 s.  Travel times are shortest paths, so the committed drive
    # already takes the detour and r2 adds no waiting: its plan costs 0,
    # never -1.
    net = TravelNetwork.euclidean([Stop("A", 336.8, 140.7), Stop("B", 110.4, 310.5),
                                   Stop("C", 56.4, 351.0)], speed=0.1)
    r1 = TripRequest(id="r1", pickup="C", dropoff="A", request_time=0)
    r2 = TripRequest(id="r2", pickup="B", dropoff="A", request_time=2830)
    v = ShuttleState(id="v1", heading_stop="A", arrival_time=0, pending_pickups={r1}, capacity=4)
    plans = enumerate_plans([v], [r2], 1, net)
    assert [(p.requests, p.cost) for p in plans.per_vehicle["v1"]] == [
        (frozenset(), 0), (frozenset({r2}), 0)]
    assert optimal_sequence(v, [], net) == (3505, ("C", "A"))
    assert optimal_sequence(v, [r2], net) == (3505, ("B", "C", "A"))


def test_capacity_infeasible_plan_absent(line_network):
    # Two single-passenger requests boarding together at B cannot fit a
    # one-seat shuttle; the exhaustive sequencer confirms no ordering works.
    v = ShuttleState(id="v00", heading_stop="A", arrival_time=0, capacity=1)
    r1 = TripRequest(id="r00", pickup="B", dropoff="C", request_time=0)
    r2 = TripRequest(id="r01", pickup="B", dropoff="D", request_time=0)
    assert exhaustive_best_sequence(v, {r1, r2}, line_network) is None
    plans = enumerate_plans([v], [r1, r2], 2, line_network)
    subsets = [p.request_ids for p in plans.per_vehicle["v00"]]
    assert ("r00", "r01") not in subsets
    assert len(plans.per_vehicle["v00"]) == 3  # empty + two singletons


def test_every_subset_is_priced_past_an_over_capacity_one(monkeypatch):
    # a_big cannot fit, so neither can {a_big, b_t}; it is still priced.
    stops = [Stop(s, 0, 0) for s in "HPQTUX"]
    links = [(a, b, 10) for a, b in ("HP", "HT", "PQ", "QH", "TU", "PT", "QT")]
    v = ShuttleState(id="v00", heading_stop="H", arrival_time=0, capacity=4)
    big = TripRequest(id="a_big", pickup="P", dropoff="Q", request_time=0, passengers=5)
    small = TripRequest(id="b_t", pickup="T", dropoff="U", request_time=0)
    # T has no path back to H, so pricing b_t meets the loaders' reach rule.
    with pytest.raises(ConfigError, match="^stop H cannot be reached from stop T$"):
        enumerate_plans([v], [big, small], 1, TravelNetwork.graph(stops, links))
    # With U -> H the call's stops reach each other, though nothing reaches X.
    net = TravelNetwork.graph(stops, links + [("U", "H", 10), ("X", "H", 10)])
    priced = []

    def counted(v, state, group, *args):
        priced.append(tuple(sorted(r.id for r in group)))
        return packed_cost(v, state, group, *args)

    monkeypatch.setattr(enumeration, "packed_cost", counted)
    assert [p.request_ids for p in enumerate_plans([v], [big, small], 2, net).per_vehicle["v00"]] \
        == [(), ("b_t",)]
    assert priced == [(), ("a_big",), ("b_t",), ("a_big", "b_t")]


def test_indices_partition_exactly(line_network):
    # A plan's index in the plan dump is its vehicle's offset plus its rank.
    shuttles = shuttles_at(line_network, 3)
    plans = enumerate_plans(shuttles[::-1], requests_on(line_network, 3), 2, line_network)
    assert list(plans.per_vehicle) == [v.id for v in shuttles]
    dump = write_plans_text(plans, lambda vid, plan: ())
    dumped = [line.split()[:2] for line in dump.splitlines()[1:]]
    offset = 0
    for vid, candidates in plans.per_vehicle.items():
        assert dumped[offset:offset + len(candidates)] == [
            [str(offset + rank), vid] for rank in range(len(candidates))]
        offset += len(candidates)
    assert offset == len(dumped)


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
            assert (p.cost, plan_route(v, p, net)) == (with_new[0] - base[0], with_new[1])


def test_canonical_plan_ordering(line_network):
    plans = enumerate_plans(shuttles_at(line_network, 2), requests_on(line_network, 3), 2, line_network)
    keys = [(vid, len(p.requests), p.request_ids)
            for vid, candidates in plans.per_vehicle.items() for p in candidates]
    assert keys == sorted(keys)


def test_cap_below_one_rejected(line_network):
    with pytest.raises(ValueError, match="max_new_requests must be >= 1"):
        enumerate_plans(shuttles_at(line_network, 1), requests_on(line_network, 1), 0,
                        line_network)


def test_repeated_shuttle_id_rejected(line_network):
    # Two shuttles of one id would leave the plan set one of them.
    first, second = shuttles_at(line_network, 2)
    with pytest.raises(ValueError, match="^shuttle id v00 is repeated$"):
        enumerate_plans([first, replace(second, id="v00")], requests_on(line_network, 1), 1,
                        line_network)


def test_guard_rejects_oversized_instances(line_network):
    # 2 x (1 + 70 + C(70, 2) + C(70, 3)) = 114,452 plans at most, over the
    # 100,000 guard; the bound is checked before any sequencing.
    with pytest.raises(InstanceTooLargeError) as err:
        enumerate_plans(shuttles_at(line_network, 2), requests_on(line_network, 70), 3,
                        line_network)
    assert "2 vehicles x 70 requests with cap 3 yields up to 114452 plans (guard 100000)" \
        in str(err.value)


def test_guard_rejects_every_subset_of_too_many_requests(line_network):
    # cap >= n: 7 x 2^14 = 114,688 plans, every subset of every size.
    with pytest.raises(InstanceTooLargeError) as err:
        enumerate_plans(shuttles_at(line_network, 7), requests_on(line_network, 14), 14,
                        line_network)
    assert "7 vehicles x 14 requests with cap 14 yields up to 114688 plans (guard 100000)" \
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
    by_id = {v.id: v for v in shuttles}
    for vid, candidates in plans.per_vehicle.items():
        for p in candidates:
            picked, dropped = set(), set()
            for stop in plan_route(by_id[vid], p, net):
                for r in p.requests:
                    if r.pickup == stop and r not in picked:
                        picked.add(r)
                    elif r.dropoff == stop and r in picked and r not in dropped:
                        dropped.add(r)
            assert picked == set(p.requests)
            assert dropped == set(p.requests)


def random_fleet(rng):
    """Shuttles mixing idle twins at shared stops, moving and loaded ones, and
    one whose committed work alone is infeasible; plus the open requests."""
    net = make_grid_network(rng, rng.randint(4, 7))
    ids = net.stop_ids()

    def request(rid, passengers=1):
        a = rng.choice(ids)
        b = rng.choice([s for s in ids if s != a])
        return TripRequest(id=rid, pickup=a, dropoff=b, request_time=rng.randint(0, 100),
                           passengers=passengers)

    shuttles = []
    for i in range(rng.randint(1, 8)):
        vid = f"v{i:02d}"
        kind = rng.random()
        if shuttles and kind < 0.4:
            shuttles.append(replace(rng.choice(shuttles), id=vid))
        elif kind < 0.95:
            # Few places and times, so states differing in one field meet.
            work = [request(f"c{i}{k}") for k in range(rng.choice([0, 0, 1, 2]))]
            split = rng.randint(0, len(work))
            shuttles.append(ShuttleState(id=vid, heading_stop=rng.choice(ids[:2]),
                                         arrival_time=rng.choice([0, 0, 40]),
                                         capacity=rng.choice([2, 3]),
                                         pending_pickups=work[:split],
                                         pending_dropoffs=work[split:]))
        else:
            # A party of two promised to a one-seat shuttle: no feasible sequence.
            shuttles.append(ShuttleState(id=vid, heading_stop=ids[0], arrival_time=0, capacity=1,
                                         pending_pickups=[request(f"c{i}", passengers=2)]))
    requests = [request(f"r{i}", passengers=rng.choice([1, 1, 2])) for i in range(rng.randint(0, 5))]
    return net, shuttles, requests


def test_fleet_plans_match_each_shuttle_alone():
    rng = random.Random(2024)
    for _ in range(150):
        net, shuttles, requests = random_fleet(rng)
        cap = rng.randint(1, 3)
        options = {"max_outstanding": rng.choice([None, 1, 2, 3]),
                   "per_passenger": rng.random() < 0.5}
        fleet = enumerate_plans(shuttles, requests, cap, net, **options)
        for v in shuttles:
            alone = enumerate_plans([v], requests, cap, net, **options)
            assert fleet.per_vehicle[v.id] == alone.per_vehicle[v.id]
        # Each plan keeps the plan contract: a frozenset and a cost >= 0,
        # equal to the plan the constructor builds from its fields; its
        # route is a tuple.
        for v in shuttles:
            for p in fleet.per_vehicle[v.id]:
                assert type(p.requests) is frozenset and type(plan_route(v, p, net)) is tuple
                assert p.cost >= 0
                assert p == AssignmentPlan(requests=p.requests, cost=p.cost)


def test_subset_priced_below_its_base_is_rejected(monkeypatch, line_network):
    def cheaper_with_requests(v, state, new_requests, *args):
        return 10 if not new_requests else 3

    monkeypatch.setattr(enumeration, "packed_cost", cheaper_with_requests)
    with pytest.raises(ValueError, match="plan cost must be >= 0"):
        enumerate_plans(shuttles_at(line_network, 1), requests_on(line_network, 1), 1,
                        line_network)


def test_equal_states_share_one_plan_tuple(line_network):
    shuttles = shuttles_at(line_network, 3)
    moving = ShuttleState(id="v03", heading_stop="A", arrival_time=30, capacity=8)
    plans = enumerate_plans(shuttles + [moving], requests_on(line_network, 3), 2, line_network)
    shared = plans.per_vehicle["v00"]
    assert plans.per_vehicle["v01"] is shared and plans.per_vehicle["v02"] is shared
    assert plans.per_vehicle["v03"] is not shared


def test_shared_state_error_names_lowest_id(line_network):
    r = TripRequest(id="r00", pickup="B", dropoff="C", request_time=0)
    twins = [ShuttleState(id=vid, heading_stop="A", arrival_time=0, pending_pickups={r})
             for vid in ("v07", "v03")]
    with pytest.raises(ValueError, match="committed to shuttle v03: r00"):
        enumerate_plans(twins, [r], 1, line_network)


def test_identical_shuttles_sequence_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return packed_cost(*args)

    monkeypatch.setattr(enumeration, "packed_cost", counted)
    network, requests, shuttles = idle_fleet_instance(1000)
    enumerate_plans(shuttles[:1], requests, 3, network)
    assert len(calls) == 93  # the empty subset and every subset of 1 to 3 of 8 requests
    calls.clear()
    plans = enumerate_plans(shuttles, requests, 3, network)
    assert len(calls) == 93
    assert sum(map(len, plans.per_vehicle.values())) == 93_000


def differential_fleet(rng):
    """A network, a fleet and open requests, drawn to reach every pricing path.

    Shuttles carry riders and committed pickups; parties up to 3 against 1 to
    8 seats make capacity bind; request times run past the shuttles'
    arrival times; some networks are street graphs with a stop that nothing
    reaches (so not strongly connected), and a few fleets name a stop that
    no other reaches or none knows, or owe a request the pass offers.
    """
    n = rng.randint(3, 6)
    stops = [Stop(f"s{i}", rng.uniform(0, 900), rng.uniform(0, 900)) for i in range(n)]
    ids = [s.id for s in stops]
    shape = rng.choice(("euclidean", "ring", "ring and a stop it cannot reach"))
    if shape == "euclidean":
        net = TravelNetwork.euclidean(stops, speed=rng.choice((1.0, 5.0)))
    else:
        links = [(ids[i], ids[(i + 1) % n], rng.randint(1, 300)) for i in range(n)]
        links += [(*rng.sample(ids, 2), rng.randint(1, 300)) for _ in range(rng.randint(0, n))]
        if shape != "ring":
            stops.append(Stop("x", 0, 0))
            links.append(("x", rng.choice(ids), rng.randint(1, 300)))
        net = TravelNetwork.graph(stops, links)
    count = [0]

    def request(prefix):
        count[0] += 1
        a, b = rng.sample(ids, 2)
        return TripRequest(id=f"{prefix}{count[0]:02d}", pickup=a, dropoff=b,
                           request_time=rng.choice((rng.randint(0, 200), rng.randint(0, 600))),
                           passengers=rng.choice((1, 1, 1, 2, 3)))

    requests = [request("r") for _ in range(rng.randint(0, 4))]
    shuttles = []
    for i in range(rng.randint(1, 5)):
        vid = f"v{i}"
        if shuttles and rng.random() < 0.3:
            shuttles.append(replace(rng.choice(shuttles), id=vid))
            continue
        pickups = [request("c") for _ in range(rng.choice((0, 0, 1, 2)))]
        riders = [request("o") for _ in range(rng.choice((0, 0, 1, 2)))]
        shuttles.append(ShuttleState(
            id=vid, heading_stop=rng.choice(ids), arrival_time=rng.randint(100, 400),
            pending_pickups=pickups, pending_dropoffs=riders,
            capacity=max(sum(r.passengers for r in riders), rng.choice((1, 2, 3, 4, 8)))))
    fault = rng.random()
    if fault < 0.1:
        # A stop that nothing reaches, or one off the network, in a request or
        # in a shuttle's committed work.
        bad = "x" if shape == "ring and a stop it cannot reach" and fault < 0.08 else "zz"
        owner = rng.randrange(len(shuttles) + 1)
        if owner == len(shuttles) and requests:
            requests[0] = replace(requests[0], pickup=bad)
        else:
            v = shuttles[owner % len(shuttles)]
            owed = request("c")
            shuttles[owner % len(shuttles)] = replace(
                v, pending_pickups=v.pending_pickups | {replace(owed, dropoff=bad)})
    elif fault < 0.14 and requests:
        # A request the pass offers is already committed to a shuttle.
        v = rng.choice(shuttles)
        shuttles[shuttles.index(v)] = replace(v, pending_pickups=v.pending_pickups | {requests[0]})
    return net, shuttles, requests


def _plans_or_fault(build):
    try:
        return build()
    except (ConfigError, ValueError) as err:  # the type and message must agree
        return type(err), str(err)


def test_plans_match_route_search_reference():
    # Every plan of every shuttle, priced by the packs, equals the route
    # search's price of that shuttle and subset alone, and a fault is the
    # one the route search raises first.
    rng = random.Random(3301)
    seen = dict.fromkeys(("plans", "route search", "not strongly connected", "per passenger",
                          "max_outstanding binds", "unknown stop", "unreached stop",
                          "already committed"), 0)
    for i in range(800):
        net, shuttles, requests = differential_fleet(rng)
        cap = rng.randint(1, 3)
        options = {"max_outstanding": rng.choice((None, 2, 3, 4)),
                   "per_passenger": rng.random() < 0.5}

        def packed():
            plan_set = enumerate_plans(shuttles, requests, cap, net, **options)
            return {vid: [(p.requests, p.cost) for p in plans]
                    for vid, plans in plan_set.per_vehicle.items()}

        want = _plans_or_fault(lambda: reference_plans(shuttles, requests, cap, net, **options))
        assert _plans_or_fault(packed) == want, f"instance {i}"
        if type(want) is tuple:
            message = want[1]
            seen["unknown stop" if "unknown stop" in message
                 else "unreached stop" if "cannot be reached" in message
                 else "already committed"] += 1
            continue
        seen["plans"] += 1
        for v in shuttles:
            pickups = [*v.pending_pickups, *requests]
            if any(r.request_time > v.arrival_time for r in pickups) \
                    or v.onboard + sum(r.passengers for r in pickups) > v.capacity:
                seen["route search"] += 1
                break
        seen["not strongly connected"] += not net.strongly_connected
        seen["per passenger"] += options["per_passenger"] and any(
            r.passengers > 1 for r in requests)
        outstanding = max(len(v.pending_pickups) + len(v.pending_dropoffs) for v in shuttles)
        seen["max_outstanding binds"] += options["max_outstanding"] is not None \
            and options["max_outstanding"] - outstanding < min(cap, len(requests))
    assert all(count >= 10 for count in seen.values()), sorted(seen.items())
