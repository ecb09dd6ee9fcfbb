import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import make_grid_network

from odshuttle import simulator
from odshuttle.costing import optimal_sequence
from odshuttle.demand import DemandProfile
from odshuttle.enumeration import PlanSet
from odshuttle.errors import ConfigError
from odshuttle.fileio import load_scenario, write_summary_csv, write_trips_csv
from odshuttle.network import Region, TravelNetwork
from odshuttle.simulator import (
    FixedRoute,
    ScenarioConfig,
    cost_reduction,
    min_fleet_fixed_routes,
    run_baseline,
    run_scenario,
    sweep_fleet_sizes,
)
from odshuttle.types import AssignmentPlan, DispatchSolution, ShuttleState, Stop, TripRequest


def line_config(**overrides):
    net = TravelNetwork.euclidean(
        [Stop("A", 0, 0), Stop("B", 600, 0), Stop("C", 1200, 0), Stop("D", 1800, 0)], 10
    )
    defaults = dict(horizon=1200, fleet_size=1, network=net, fleet_start=("A",),
                    demand_requests=(), max_defer=600)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def req(rid, pickup, dropoff, t, pax=1):
    return TripRequest(id=rid, pickup=pickup, dropoff=dropoff, request_time=t, passengers=pax)


# -- run_scenario ---------------------------------------------------------------


def test_zero_demand_shuttles_never_move():
    result = run_scenario(line_config(fleet_size=3))
    assert result.records == []
    assert result.summary.utilization == 0.0


def test_colocated_pickup_waits_until_next_tick():
    config = line_config(demand_requests=(req("r1", "A", "C", 10),))
    rec = run_scenario(config).records[0]
    assert rec.pickup_time == 30          # first tick after the request
    assert rec.waiting == 20              # tick time minus request time
    assert rec.trip_time == rec.waiting + config.network.travel_time("A", "C")
    assert rec.status == "completed"


def test_request_arriving_exactly_at_tick_is_dispatched_then():
    config = line_config(demand_requests=(req("r1", "A", "B", 30),))
    rec = run_scenario(config).records[0]
    assert rec.pickup_time == 30 and rec.waiting == 0


def test_identical_seeds_bit_identical_outputs():
    region = Region(member_stops={"A", "B", "C", "D"})
    profile = DemandProfile(rates=((0, 900, 60.0),))
    config = line_config(horizon=1200, fleet_size=2, region=region,
                         demand_requests=None, demand_profile=profile, seed=9)
    first = run_scenario(config)
    second = run_scenario(config)
    assert write_trips_csv(first.records) == write_trips_csv(second.records)
    other_seed = run_scenario(replace(config, seed=10))
    assert write_trips_csv(first.records) != write_trips_csv(other_seed.records)


def test_carried_over_request_served_later():
    # One shuttle, two requests in opposite corners at once: the second
    # stays queued until a later tick but is eventually served.
    demand = (req("r1", "A", "B", 0), req("r2", "D", "C", 0))
    config = line_config(demand_requests=demand, max_requests_per_plan=1, horizon=2400,
                         max_defer=2000)
    records = {r.id: r for r in run_scenario(config).records}
    assert records["r1"].status == "completed"
    assert records["r2"].status == "completed"
    assert records["r2"].waiting > records["r1"].waiting


def test_batch_takes_oldest_queued_requests(monkeypatch):
    # Beyond max_requests_per_tick, a pass takes the queue's first requests
    # in (request_time, id) order, whatever their ids.
    batches = []
    enumerate_plans = simulator.enumerate_plans

    def recording_enumerate(shuttles, requests, *args, **kwargs):
        batches.append(sorted(r.id for r in requests))
        return enumerate_plans(shuttles, requests, *args, **kwargs)

    monkeypatch.setattr(simulator, "enumerate_plans", recording_enumerate)
    demand = (req("r3", "A", "B", 0), req("r2", "A", "C", 10), req("r1", "A", "D", 10),
              req("r0", "B", "C", 20))
    run_scenario(line_config(demand_requests=demand, max_requests_per_tick=2))
    assert batches[0] == ["r1", "r3"]


def test_stale_requests_abandoned():
    # max_outstanding 1 forces one commitment at a time; the far request
    # keeps losing the dispatch race until it exceeds max_defer.
    demand = (req("r1", "B", "D", 0), req("r2", "C", "A", 0), req("r3", "D", "A", 5))
    config = line_config(demand_requests=demand, horizon=2400, max_defer=120,
                         max_outstanding=1, max_requests_per_plan=1)
    records = {r.id: r for r in run_scenario(config).records}
    statuses = sorted(r.status for r in records.values())
    assert "abandoned" in statuses
    for rec in records.values():
        if rec.status == "abandoned":
            assert rec.pickup_time is None


def test_conservation_exact_on_random_scenarios():
    rng = random.Random(31)
    region = Region(member_stops={"A", "B", "C", "D"})
    for trial in range(6):
        profile = DemandProfile(rates=((0, 1500, rng.choice([30.0, 80.0, 140.0])),))
        seed = rng.randint(1, 10_000)
        config = line_config(horizon=1800, seed=seed, fleet_size=rng.randint(1, 3),
                             shuttle_capacity=rng.choice([1, 2, 8]),
                             region=region, demand_requests=None,
                             demand_profile=profile, max_defer=rng.choice([200, 900]))
        result = run_scenario(config)
        generated = len(config.resolve_requests())
        by_status = {"completed": 0, "abandoned": 0, "pending": 0}
        for rec in result.records:
            by_status[rec.status] += 1
        assert len(result.records) == generated
        assert sum(by_status.values()) == generated
        for rec in result.records:
            if rec.status == "completed":
                assert rec.dropoff_time >= rec.pickup_time >= rec.request_time


def test_capacity_one_shuttle_serves_sequentially():
    demand = (req("r1", "B", "C", 0), req("r2", "B", "D", 0))
    config = line_config(demand_requests=demand, shuttle_capacity=1, horizon=2400,
                         max_defer=2000)
    records = {r.id: r for r in run_scenario(config).records}
    assert {rec.status for rec in records.values()} == {"completed"}
    # One seat means one rider at a time: the intervals cannot overlap.
    first, second = sorted(records.values(), key=lambda r: r.pickup_time)
    assert first.dropoff_time <= second.pickup_time


def test_full_shuttle_defers_pickup_until_after_dropoff():
    # r0 fills the shuttle at the first tick (2 of 2 seats).  r1 is
    # committed while the shuttle is en route to C, but boarding at B
    # before C would overload, so the plan alights at C first and only
    # then collects r1; execution must follow that sequence.
    demand = (req("r0", "A", "C", 0, pax=2), req("r1", "B", "D", 35))
    config = line_config(demand_requests=demand, shuttle_capacity=2, horizon=2400,
                         max_defer=2000)
    records = {r.id: r for r in run_scenario(config).records}
    assert records["r0"].status == records["r1"].status == "completed"
    assert records["r0"].pickup_time == 30
    assert records["r0"].dropoff_time == 150          # A->C at 10 m/s
    assert records["r1"].pickup_time == 210           # C->B after the dropoff
    assert records["r1"].dropoff_time == 210 + config.network.travel_time("B", "D")


def test_duplicate_demand_ids_rejected():
    demand = (req("r1", "A", "B", 0), req("r1", "B", "C", 5))
    for run in (run_scenario, run_baseline):
        with pytest.raises(ValueError, match="duplicate request id in demand: r1"):
            run(line_config(demand_requests=demand))


def test_config_validation():
    with pytest.raises(ValueError):
        line_config(dispatch_interval=0)
    with pytest.raises(ValueError):
        line_config(max_defer=30, dispatch_interval=30)
    with pytest.raises(ValueError):
        line_config(fleet_size=0)
    with pytest.raises(ValueError) as err:
        line_config(fleet_start=("A", "Z"))
    assert err.value.fields == (("fleet_start", 1),)


def graph_line(*links):
    """Stops a, b, c and z, joined only by the given (from, to) links of 10 s."""
    stops = [Stop(s, x, 0) for s, x in (("a", 0), ("b", 100), ("c", 200), ("z", 900))]
    return TravelNetwork.graph(stops, [(a, b, 10) for a, b in links])


LINKED = graph_line(("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"))
ONE_WAY = graph_line(("a", "b"), ("b", "c"), ("c", "b"))  # nothing returns to a
MEMBERS = Region(member_stops={"A", "B"}, gateway_stations={"D"})


# Each rule that joins two parts of a config, broken in a config built in code.
@pytest.mark.parametrize("overrides, fields", [
    pytest.param({"routes": (FixedRoute("r1", 20, 10, "two_way", ("A", "B")),
                             FixedRoute("r2", 20, 10, "two_way", ("A", "q")))},
                 (("routes", 1),), id="route-stop-outside-network"),
    pytest.param({"region": Region(member_stops={"A", "z"})}, (("region", "z"),),
                 id="region-stop-outside-network"),
    pytest.param({"demand_requests": (req("r1", "A", "B", 0), req("r2", "A", "q", 5))},
                 (("demand_requests", 1),), id="request-stop-outside-network"),
    pytest.param({"demand_requests": None,
                  "demand_profile": DemandProfile(rates=((0, 600, 10.0),))},
                 ("region",), id="profile-without-region"),
    pytest.param({"demand_requests": None, "region": MEMBERS,
                  "demand_profile": DemandProfile(rates=((0, 600, 10.0),),
                                                  member_weights={"A": 1.0, "C": 2.0})},
                 (("member_weights", "C"),), id="member-weight-outside-members"),
    pytest.param({"demand_requests": None, "region": MEMBERS,
                  "demand_profile": DemandProfile(rates=((0, 600, 10.0),),
                                                  gateway_weights={"A": 1.0})},
                 (("gateway_weights", "A"),), id="gateway-weight-outside-gateways"),
    pytest.param({"demand_requests": None, "region": MEMBERS,
                  "demand_profile": DemandProfile(rates=((0, 600, 10.0),),
                                                  member_weights={"B": 0.0})},
                 ("mix",), id="undrawable-profile"),
    pytest.param({"network": ONE_WAY, "fleet_start": ("c",),
                  "demand_requests": (req("r1", "a", "b", 0),)},
                 (("network", "a"),), id="request-stop-out-of-reach"),
    pytest.param({"network": ONE_WAY, "fleet_start": ("b",),
                  "region": Region(member_stops={"a", "b"})},
                 (("network", "a"),), id="region-stop-out-of-reach"),
    pytest.param({"network": LINKED, "fleet_start": ("a", "z"), "fleet_size": 2},
                 (("network", "z"),), id="start-stop-out-of-reach"),
    pytest.param({"network": TravelNetwork.euclidean([], 10), "fleet_start": ()},
                 ("network",), id="network-without-stops"),
])
def test_config_rejects_parts_that_do_not_join(overrides, fields):
    with pytest.raises(ConfigError) as err:
        line_config(**overrides)
    assert err.value.fields == fields


def test_config_checks_reach_only_of_stops_a_shuttle_may_be_sent_to():
    # z has no links: a route may name it, and a start stop past the fleet size
    # is never used.
    route = FixedRoute("r1", 20, 10, "two_way", ("a", "z"))
    config = line_config(network=LINKED, fleet_start=("a", "z"), routes=(route,),
                         demand_requests=(req("r1", "a", "c", 0),))
    assert run_scenario(config).records[0].status == "completed"


@pytest.mark.parametrize("run", [run_scenario, run_baseline])
def test_requests_passed_in_follow_the_config_rule(run):
    # A stop outside the network, and on a graph network a stop out of reach,
    # fail before the first tick rather than mid-run.
    with pytest.raises(ConfigError) as err:
        run(line_config(), requests=[req("r1", "A", "B", 0), req("r2", "A", "q", 5)])
    assert err.value.fields == (("requests", 1),)
    with pytest.raises(ConfigError) as err:
        run(line_config(network=LINKED, fleet_start=("a",)), requests=[req("r1", "a", "z", 5)])
    assert err.value.fields == (("network", "z"),)


def test_arrival_exactly_at_tick_is_seen_by_that_pass():
    # r1 rides A->B from the tick at 30 and is dropped at B at 90.  Until
    # then max_outstanding keeps r2 off the shuttle; the pass at 90 must
    # see the shuttle standing empty at B and board r2 on the spot.
    demand = (req("r1", "A", "B", 0), req("r2", "B", "C", 75))
    config = line_config(demand_requests=demand, max_outstanding=1, max_requests_per_plan=1)
    records = {r.id: r for r in run_scenario(config).records}
    assert records["r1"].dropoff_time == 90
    assert records["r2"].pickup_time == 90


@pytest.mark.parametrize("placed", [(1000, 1020), (1020,)], ids=["between-ticks", "on-tick"])
def test_request_after_idle_gap_taken_at_first_tick_at_or_after_it(placed):
    later = tuple(req(f"r{i}", "B", "C", t) for i, t in enumerate(placed, start=2))
    demand = (req("r1", "A", "B", 0),) + later
    records = {r.id: r for r in run_scenario(line_config(demand_requests=demand)).records}
    assert records["r1"].dropoff_time == 90
    assert [records[r.id].pickup_time for r in later] == [1020] * len(later)


def test_request_after_last_tick_stays_pending():
    demand = (req("r1", "A", "B", 0), req("r2", "B", "C", 1210))
    config = line_config(demand_requests=demand, horizon=1220, dispatch_interval=50)
    records = {r.id: r for r in run_scenario(config).records}
    assert records["r1"].status == "completed"
    assert records["r2"].status == "pending"
    assert records["r2"].pickup_time is None


def test_arrival_between_last_tick_and_horizon_completes_trip():
    # Ticks at 40 and 80; the shuttle reaches B at 100, the horizon.
    config = line_config(demand_requests=(req("r1", "A", "B", 0),), horizon=100,
                         dispatch_interval=40)
    rec = run_scenario(config).records[0]
    assert (rec.pickup_time, rec.dropoff_time, rec.status) == (40, 100, "completed")


# Legs on line_config take 60 s per 600 m.  A shuttle is busy while it drives,
# clipped at the horizon; standing at a stop, boarding included, is not busy.
@pytest.mark.parametrize("request_, overrides, utilization, status", [
    pytest.param(req("r1", "A", "C", 10), {}, 120 / 1200, "completed", id="one-trip"),
    pytest.param(req("r1", "A", "B", 0), dict(horizon=100, dispatch_interval=40),
                 60 / 100, "completed", id="leg-ends-at-horizon"),
    pytest.param(req("r1", "A", "B", 0), dict(horizon=90, dispatch_interval=40),
                 50 / 90, "pending", id="leg-clipped-at-horizon"),
    pytest.param(req("r1", "B", "C", 0), dict(fleet_size=2), 120 / (2 * 1200), "completed",
                 id="one-of-two-shuttles"),
])
def test_utilization_is_busy_share_of_fleet_horizon(request_, overrides, utilization, status):
    result = run_scenario(line_config(demand_requests=(request_,), **overrides))
    assert result.summary.utilization == utilization
    assert [rec.status for rec in result.records] == [status]


# -- bundled scenarios ------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# sha256 of the files `simulate` writes; any change to them is a change
# of simulated behaviour and has to be made here on purpose.
GOLDEN = {
    "lowridership": ("1e394615bd47e35008b3388867a71adaacb5c6f2dbca37b29d0ff85cd48ea7d5",
                     "fdf285916a8e0f60db1ea16dad147ab0adfde211beea851c4fb43b15be22f91d"),
    "peakdemand": ("4311cd18e708051252b4855989a53a147f4f77b1b9e019a44a00605f72e5f2dd",
                   "e03bc779623ad839d5a5e056c602a97015bf3a00d2cd30fb473d6bbd38afd466"),
}

# sha256 of the baseline_trips.csv and baseline_summary.csv `baseline` writes.
BASELINE_GOLDEN = {
    "lowridership": ("655194fbcd55cc83b412102cb696dd6d087625d1436e92a8648f966074704fb5",
                     "6fb28447271ccc12e72dde17c37f592f11b0144c4b094b7053ea0d4fcc42aa09"),
    "peakdemand": ("c7da74f70dab7fff022b3314be950a641c07763682b87253f7861740cc41083e",
                   "bf1b9bba63103effe49befca8810543129b94947ec49250946ccca8b60436266"),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_outputs_match_golden_hashes(name):
    result = run_scenario(load_scenario(SCENARIOS / f"{name}.cfg"))
    trips, summary = GOLDEN[name]
    assert _sha256(write_trips_csv(result.records)) == trips
    assert _sha256(write_summary_csv(result.summary)) == summary


@pytest.mark.parametrize("name", sorted(BASELINE_GOLDEN))
def test_bundled_baseline_outputs_match_golden_hashes(name):
    result = run_baseline(load_scenario(SCENARIOS / f"{name}.cfg"))
    trips, summary = BASELINE_GOLDEN[name]
    assert _sha256(write_trips_csv(result.records)) == trips
    assert _sha256(write_summary_csv(result.summary)) == summary


@pytest.mark.parametrize("name, passes", [("lowridership", 27), ("peakdemand", 73)])
def test_every_dispatch_pass_goes_through_module_hooks(monkeypatch, name, passes):
    # Benchmark tracers time passes by patching these module globals, and
    # skipped ticks must only ever be empty passes.
    calls = {"enumerate": 0, "solve": 0}
    enumerate_plans, solve_dispatch = simulator.enumerate_plans, simulator.solve_dispatch

    def counted_enumerate(*args, **kwargs):
        calls["enumerate"] += 1
        return enumerate_plans(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve_dispatch(*args, **kwargs)

    monkeypatch.setattr(simulator, "enumerate_plans", counted_enumerate)
    monkeypatch.setattr(simulator, "solve_dispatch", counted_solve)
    run_scenario(load_scenario(SCENARIOS / f"{name}.cfg"))
    assert calls == {"enumerate": passes, "solve": passes}


@pytest.mark.parametrize("name, passes", [("lowridership", 27), ("peakdemand", 73)])
def test_dispatcher_sees_committed_fleet_state(monkeypatch, name, passes):
    # Idle shuttles stand at their stop "now" (the tick); busy ones arrive
    # strictly later; each request is owed by at most one shuttle, and a
    # committed request never comes back in the batch.
    config = load_scenario(SCENARIOS / f"{name}.cfg")
    enumerate_plans = simulator.enumerate_plans
    checked = []

    def checking_enumerate(shuttles, requests, *args, **kwargs):
        idle = {s.arrival_time for s in shuttles
                if not s.pending_pickups and not s.pending_dropoffs}
        latest = max(r.request_time for r in requests)
        assert len(idle) <= 1
        for now in idle:
            assert now % config.dispatch_interval == 0 and now >= latest
        floor = min(idle, default=latest)
        owed = []
        for s in shuttles:
            if s.pending_pickups or s.pending_dropoffs:
                assert s.arrival_time > floor
            owed += [r.id for r in s.pending_pickups | s.pending_dropoffs]
        assert len(owed) == len(set(owed))
        assert not set(owed) & {r.id for r in requests}
        checked.append(len(shuttles))
        return enumerate_plans(shuttles, requests, *args, **kwargs)

    monkeypatch.setattr(simulator, "enumerate_plans", checking_enumerate)
    run_scenario(config)
    assert checked == [config.fleet_size] * passes


def test_overloading_plan_stops_run_at_that_visit(monkeypatch):
    # Both riders board at A into a one-seat shuttle; the shuttle state
    # built at that visit refuses the load.
    config = line_config(shuttle_capacity=1,
                         demand_requests=(req("r1", "A", "B", 10), req("r2", "A", "B", 10)))

    def overloading(shuttles, requests, *args, **kwargs):
        (shuttle,) = shuttles
        plans = (AssignmentPlan(frozenset(), 0),
                 AssignmentPlan(frozenset(requests), 0, ("A", "B")))
        return PlanSet({shuttle.id: plans})

    monkeypatch.setattr(simulator, "enumerate_plans", overloading)
    with pytest.raises(ValueError, match="exceeds capacity"):
        run_scenario(config)


def test_plan_that_omits_a_dropoff_stops_run(monkeypatch):
    config = line_config(demand_requests=(req("r1", "A", "B", 10),))

    def dropoff_omitted(shuttles, requests, *args, **kwargs):
        (shuttle,) = shuttles
        plans = (AssignmentPlan(frozenset(), 0),
                 AssignmentPlan(frozenset(requests), 0, ("A",)))
        return PlanSet({shuttle.id: plans})

    monkeypatch.setattr(simulator, "enumerate_plans", dropoff_omitted)
    with pytest.raises(AssertionError, match=r"leaves requests unserved: \['r1'\]"):
        run_scenario(config)


def test_plan_with_no_stops_stops_run(monkeypatch):
    config = line_config(demand_requests=(req("r1", "A", "B", 10),))

    def stopless(shuttles, requests, *args, **kwargs):
        (shuttle,) = shuttles
        plans = (AssignmentPlan(frozenset(), 0), AssignmentPlan(frozenset(requests), 0))
        return PlanSet({shuttle.id: plans})

    monkeypatch.setattr(simulator, "enumerate_plans", stopless)
    with pytest.raises(AssertionError, match=r"leaves requests unserved: \['r1'\]"):
        run_scenario(config)


def test_request_in_two_selected_plans_stops_run(monkeypatch):
    config = line_config(fleet_size=2, demand_requests=(req("r1", "A", "B", 10),))

    def both_serve(problem):
        # Every shuttle takes its plan for the one request.
        selected = {v: plan for v, plans in problem.plan_set.per_vehicle.items()
                    for plan in plans if plan.requests}
        assert len(selected) == 2
        return DispatchSolution(selected=selected, missed=frozenset(), objective=0)

    monkeypatch.setattr(simulator, "solve_dispatch", both_serve)
    with pytest.raises(AssertionError, match="request r1 dispatched twice"):
        run_scenario(config)


def test_execution_realizes_priced_waiting():
    # One shuttle, every request placed by the first tick and a penalty
    # no plan beats: the single pass commits the one plan for all of
    # them, and the waits the run realizes must add up to its price,
    # including sequences that come back to a stop.
    rng = random.Random(7)
    checked = revisits = 0
    for _ in range(300):
        network = make_grid_network(rng, rng.randint(3, 6))
        ids = network.stop_ids()
        demand = []
        for i in range(rng.randint(1, 4)):
            pickup, dropoff = rng.sample(ids, 2)
            demand.append(req(f"r{i}", pickup, dropoff, rng.randint(0, 30), rng.randint(1, 2)))
        start = rng.choice(ids)
        capacity = rng.choice([2, 3, 8])
        priced = optimal_sequence(ShuttleState("s000", start, 30, capacity=capacity),
                                  demand, network)
        if priced is None:
            continue
        cost, sequence = priced
        config = ScenarioConfig(horizon=36_000, fleet_size=1, network=network,
                                fleet_start=(start,), shuttle_capacity=capacity,
                                max_requests_per_plan=len(demand), max_outstanding=None,
                                miss_penalty=10**9, max_defer=30_000,
                                demand_requests=tuple(demand))
        records = run_scenario(config).records
        assert {rec.status for rec in records} == {"completed"}
        assert sum(rec.waiting for rec in records) == cost
        checked += 1
        revisits += len(set(sequence)) < len(sequence)
    assert checked > 200 and revisits > 50


# -- fixed-route arithmetic -------------------------------------------------------


def retired_routes():
    return [
        FixedRoute("line243", 30, 35, "two_way", ()),
        FixedRoute("line392", 45, 35, "two_way", ()),
        FixedRoute("line466", 35, 30, "circular", ()),
    ]


def test_min_fleet_for_retired_lines():
    assert min_fleet_fixed_routes(retired_routes()) == 8


def test_min_fleet_single_circular():
    assert min_fleet_fixed_routes([FixedRoute("r", 35, 35, "circular", ())]) == 1


def test_min_fleet_two_way_double():
    assert min_fleet_fixed_routes([FixedRoute("r", 60, 30, "two_way", ())]) == 4


def test_cost_reduction_values():
    assert cost_reduction(8, 5) == 37.5
    assert cost_reduction(8, 8) == 0.0
    assert cost_reduction(4, 1) == 75.0
    assert cost_reduction(4, 5) == -25.0
    assert cost_reduction(8, 0) == 100.0
    with pytest.raises(ValueError):
        cost_reduction(0, 1)
    with pytest.raises(ValueError, match="shuttles"):
        cost_reduction(8, -3)


# -- baseline ---------------------------------------------------------------------


def baseline_config(**overrides):
    # Route along the line A-B-C-D, 20 minutes end to end, every 10 minutes.
    route = FixedRoute("r1", 20, 10, "two_way", ("A", "B", "C", "D"))
    return line_config(routes=(route,), walk_speed=1.0, **overrides)


def test_baseline_wait_zero_at_departure():
    # Request at a served stop exactly when a bus leaves (t=600 is a
    # departure for a 10 min headway anchored at 0).
    config = baseline_config(demand_requests=(req("r1", "A", "D", 600),))
    rec = run_baseline(config).records[0]
    assert rec.waiting == 0
    assert rec.trip_time == 1200  # three segments at 400 s each


def test_baseline_wait_headway_minus_offset():
    # Headway 35 min; arriving one minute after a departure waits 34.
    route = FixedRoute("r1", 70, 35, "two_way", ("A", "B", "C", "D"))
    config = line_config(routes=(route,), walk_speed=1.0,
                         demand_requests=(req("r1", "A", "B", 60),), horizon=36000)
    rec = run_baseline(config).records[0]
    assert rec.waiting == 34 * 60


def test_baseline_mean_wait_approaches_half_headway():
    rng = random.Random(271)
    headway = 600
    demand = tuple(req(f"r{i:03d}", "A", "D", rng.randint(0, 35_000)) for i in range(400))
    config = baseline_config(demand_requests=demand, horizon=36000)
    records = run_baseline(config).records
    mean_wait = sum(r.waiting for r in records) / len(records)
    assert abs(mean_wait - headway / 2) <= 0.05 * headway


def test_baseline_walk_legs_added():
    # E sits 300 m from A: walking in at 1 m/s takes 300 s.
    net = TravelNetwork.euclidean(
        [Stop("A", 0, 0), Stop("B", 600, 0), Stop("C", 1200, 0),
         Stop("D", 1800, 0), Stop("E", 0, 300)], 10
    )
    route = FixedRoute("r1", 20, 10, "two_way", ("A", "B", "C", "D"))
    config = ScenarioConfig(horizon=3600, fleet_size=1, network=net, fleet_start=("A",),
                            routes=(route,), walk_speed=1.0,
                            demand_requests=(req("r1", "E", "D", 0),))
    rec = run_baseline(config).records[0]
    assert rec.pickup_time == 0 + 300 + 300  # walk in, then wait for the t=600 bus
    assert rec.dropoff_time == rec.pickup_time + 1200


def test_baseline_unserved_without_routes():
    config = line_config(routes=(), demand_requests=(req("r1", "A", "B", 0),))
    rec = run_baseline(config).records[0]
    assert rec.status == "abandoned"
    assert rec.pickup_time is None


def test_baseline_circular_rides_one_way():
    route = FixedRoute("loop", 40, 10, "circular", ("A", "B", "C", "D"))
    config = line_config(routes=(route,), walk_speed=1.0, horizon=7200,
                         demand_requests=(req("r1", "B", "A", 0),))
    rec = run_baseline(config).records[0]
    # Riding the loop B->C->D->A is three of four segments: 1800 s.
    assert rec.dropoff_time - rec.pickup_time == 1800


def test_baseline_same_boarding_and_alighting_walks():
    route = FixedRoute("r1", 20, 10, "two_way", ("A",))
    config = line_config(routes=(route,), walk_speed=1.0,
                         demand_requests=(req("r1", "A", "B", 0),))
    rec = run_baseline(config).records[0]
    assert rec.waiting == 0
    assert rec.trip_time == 600  # direct 600 m walk at 1 m/s


# -- sweep -------------------------------------------------------------------------


def test_sweep_single_size_matches_plain_run():
    region = Region(member_stops={"A", "B", "C", "D"})
    profile = DemandProfile(rates=((0, 900, 40.0),))
    config = line_config(horizon=1200, region=region, demand_requests=None,
                         demand_profile=profile, seed=4)
    swept = sweep_fleet_sizes(config, [1])
    direct = run_scenario(config, requests=config.resolve_requests())
    assert swept[1] == direct.summary


def test_sweep_shares_demand_across_sizes():
    region = Region(member_stops={"A", "B", "C", "D"})
    profile = DemandProfile(rates=((0, 900, 80.0),))
    config = line_config(horizon=1800, region=region, demand_requests=None,
                         demand_profile=profile, seed=8, max_defer=1500)
    swept = sweep_fleet_sizes(config, [1, 3])
    total = len(config.resolve_requests())
    for size, summary in swept.items():
        assert summary.completed + summary.abandoned + summary.pending == total


def test_sweep_requires_sizes():
    with pytest.raises(ValueError):
        sweep_fleet_sizes(line_config(), [])
