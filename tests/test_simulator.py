import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import make_grid_network
from oracles import reference_baseline, walk_seconds

from odshuttle import enumeration, simulator
from odshuttle.costing import optimal_cost, optimal_sequence
from odshuttle.demand import DemandProfile
from odshuttle.enumeration import PlanSet, plan_route
from odshuttle.errors import ConfigError
from odshuttle.fileio import (
    load_scenario,
    parse_scenario_text,
    parse_trips_csv,
    write_summary_csv,
    write_trips_csv,
)
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
    # Neither a request list nor a profile: no demand at all.
    assert line_config(demand_requests=None).resolve_requests() == []


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
    # A stream passed to a run fails before the first tick, naming the later
    # request, though it is placed past the horizon (a config's own stream
    # fails at construction: test_config_rejects_parts_that_do_not_join).
    demand = (req("r1", "A", "B", 0), req("r2", "A", "C", 0), req("r1", "B", "C", 5000))
    for run in (run_scenario, run_baseline):
        with pytest.raises(ConfigError, match="duplicate request id in demand: r1") as err:
            run(line_config(), requests=demand)
        assert err.value.fields == (("requests", 2),)


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
    pytest.param({"demand_requests": (req("r1", "A", "B", 0), req("r2", "A", "C", 0),
                                      req("r1", "B", "C", 5))},
                 (("demand_requests", 2),), id="repeated-request-id"),
    pytest.param({"demand_requests": (req("r1", "A", "B", 0),), "demand_types": {"r1": "bogus"}},
                 (("demand_types", "r1"),), id="unknown-trip-type"),
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


def test_requests_classify_trip_rejects_are_typed_intra():
    # A is the region, B and C its gateways, D outside both.  classify_trip
    # rejects gateway-to-gateway and outside trips; trip_type_of types them
    # intra unless the demand declares a type, and the run still serves them.
    region = Region(member_stops={"A"}, gateway_stations={"B", "C"})
    requests = (req("out", "A", "B", 0), req("in", "C", "A", 0), req("gw", "B", "C", 0),
                req("far", "A", "D", 0), req("from-far", "D", "A", 0), req("said", "B", "C", 0))
    config = line_config(fleet_size=3, horizon=3600, region=region, demand_requests=requests,
                         demand_types={"said": "outbound"})
    typed = {r.id: config.trip_type_of(r) for r in requests}
    assert typed == {"out": "outbound", "in": "inbound", "gw": "intra", "far": "intra",
                     "from-far": "intra", "said": "outbound"}
    records = {rec.id: rec for rec in run_scenario(config).records}
    assert {rid: rec.trip_type for rid, rec in records.items()} == typed
    assert {rec.status for rec in records.values()} == {"completed"}
    regionless = replace(config, region=None)
    assert {r.id: regionless.trip_type_of(r) for r in requests} == {
        **dict.fromkeys(typed, "intra"), "said": "outbound"}


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
    assert parse_trips_csv(write_trips_csv(result.records)) == result.records
    assert _sha256(write_summary_csv(result.summary)) == summary


@pytest.mark.parametrize("name", sorted(BASELINE_GOLDEN))
def test_bundled_baseline_outputs_match_golden_hashes(name):
    result = run_baseline(load_scenario(SCENARIOS / f"{name}.cfg"))
    trips, summary = BASELINE_GOLDEN[name]
    assert _sha256(write_trips_csv(result.records)) == trips
    assert parse_trips_csv(write_trips_csv(result.records)) == result.records
    assert _sha256(write_summary_csv(result.summary)) == summary


def test_an_unlinked_stop_leaves_a_graph_run_unchanged():
    # lowridership.cfg in graph mode, one link per euclidean row entry: the
    # same travel times, so the same outputs.  An extra stop with no links
    # makes the network not strongly connected, so every costing call checks
    # its stops' reach, and the outputs must not change.
    path = SCENARIOS / "lowridership.cfg"
    net = load_scenario(path).network
    links = "".join(f"link {a} {b} {net.travel_time(a, b)}\n"
                    for a in net.ids for b in net.ids if a != b)
    graph = path.read_text().replace("mode euclidean\nspeed 9.0\n", "mode graph\n" + links)
    outputs = []
    for extra in ("", "stop k00 9000 9000\n"):
        config = parse_scenario_text(graph.replace("mode graph\n", "mode graph\n" + extra))
        assert config.network.strongly_connected is not bool(extra)
        result = run_scenario(config)
        outputs.append((_sha256(write_trips_csv(result.records)),
                        _sha256(write_summary_csv(result.summary))))
    assert outputs == [GOLDEN["lowridership"]] * 2


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


@pytest.mark.parametrize("name, calls", [("lowridership", 260), ("peakdemand", 723)])
def test_simulator_pricing_meets_the_time_free_conditions(monkeypatch, name, calls):
    # optimal_cost skips the route search where no pickup, committed or new,
    # is dated after the shuttle's arrival and capacity cannot bind (costing's
    # module docstring).  The search it falls back to is exact, so a simulator
    # change that broke either condition would only slow pricing down.
    met = []

    def checking_cost(v, new_requests, *args, **kwargs):
        pickups = [*v.pending_pickups, *new_requests]
        met.append(all(r.request_time <= v.arrival_time for r in pickups)
                   and v.onboard + sum(r.passengers for r in pickups) <= v.capacity)
        return optimal_cost(v, new_requests, *args, **kwargs)

    monkeypatch.setattr(enumeration, "optimal_cost", checking_cost)
    run_scenario(load_scenario(SCENARIOS / f"{name}.cfg"))
    assert len(met) == calls and all(met)


def test_overloading_plan_stops_run_at_that_visit(monkeypatch):
    # Both riders board at A into a one-seat shuttle; the shuttle state
    # built at that visit refuses the load.
    config = line_config(shuttle_capacity=1,
                         demand_requests=(req("r1", "A", "B", 10), req("r2", "A", "B", 10)))

    def overloading(shuttles, requests, *args, **kwargs):
        (shuttle,) = shuttles
        plans = (AssignmentPlan(frozenset(), 0), AssignmentPlan(frozenset(requests), 0))
        return PlanSet({shuttle.id: plans})

    monkeypatch.setattr(simulator, "enumerate_plans", overloading)
    monkeypatch.setattr(simulator, "plan_route", lambda *args: ("A", "B"))
    with pytest.raises(ValueError, match="exceeds capacity"):
        run_scenario(config)


def test_plan_that_omits_a_dropoff_stops_run(monkeypatch):
    config = line_config(demand_requests=(req("r1", "A", "B", 10),))

    def dropoff_omitted(shuttles, requests, *args, **kwargs):
        (shuttle,) = shuttles
        plans = (AssignmentPlan(frozenset(), 0), AssignmentPlan(frozenset(requests), 0))
        return PlanSet({shuttle.id: plans})

    monkeypatch.setattr(simulator, "enumerate_plans", dropoff_omitted)
    monkeypatch.setattr(simulator, "plan_route", lambda *args: ("A",))
    with pytest.raises(AssertionError, match=r"leaves requests unserved: \['r1'\]"):
        run_scenario(config)


def test_plan_with_no_stops_stops_run(monkeypatch):
    config = line_config(demand_requests=(req("r1", "A", "B", 10),))

    def stopless(shuttles, requests, *args, **kwargs):
        (shuttle,) = shuttles
        plans = (AssignmentPlan(frozenset(), 0), AssignmentPlan(frozenset(requests), 0))
        return PlanSet({shuttle.id: plans})

    monkeypatch.setattr(simulator, "enumerate_plans", stopless)
    monkeypatch.setattr(simulator, "plan_route", lambda *args: ())
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


def _route_waiting(state, new, route, network, per_passenger):
    """The waiting a shuttle accrues driving ``route``, checked to serve all it owes."""
    waiting, stop, t = 0, state.heading_stop, state.arrival_time
    owed, aboard = set(state.pending_pickups | new), set(state.pending_dropoffs)
    for s in route:
        t += network.travel_time(stop, s)
        stop = s
        aboard = {r for r in aboard if r.dropoff != s}
        boarding = {r for r in owed if r.pickup == s}
        for r in boarding:
            waiting += max(0, t - r.request_time) * (r.passengers if per_passenger else 1)
        t = max([t] + [r.request_time for r in boarding])
        owed -= boarding
        aboard |= boarding
        assert sum(r.passengers for r in aboard) <= state.capacity
    assert not owed and not aboard
    return waiting


def _peak_stress_shaped(seed):
    """The bundled peak geometry on 20 shuttles at 4x its peak rate, 3 requests a tick."""
    text = (SCENARIOS / "peakdemand.cfg").read_text()
    for old, new in (("horizon 9000", "horizon 2700"), ("fleet_size 5", "fleet_size 20"),
                     ("seed 1", f"seed {seed}"), ("max_requests_per_tick 6",
                                                  "max_requests_per_tick 3"),
                     ("rate 0 1800 8.0", "rate 0 1800 320"), ("rate 1800 5400 80.0", ""),
                     ("rate 5400 7200 8.0", "")):
        assert old in text
        text = text.replace(old, new)
    return parse_scenario_text(text, "peak_stress-shaped")


@pytest.mark.parametrize("config", [
    pytest.param(lambda: load_scenario(SCENARIOS / "lowridership.cfg"), id="lowridership"),
    pytest.param(lambda: load_scenario(SCENARIOS / "peakdemand.cfg"), id="peakdemand"),
    pytest.param(lambda: _peak_stress_shaped(41), id="peak_stress-shaped"),
])
def test_committed_routes_realize_their_price(monkeypatch, config):
    # Plans are priced without a route; the route found at commit must
    # cost, net of the shuttle's committed work alone, what the plan was
    # priced at.
    config = config()
    per_passenger = config.waiting_per_passenger
    commits = []

    def checked_route(state, plan, network, *args):
        route = plan_route(state, plan, network, *args)
        routed = _route_waiting(state, plan.requests, route, network, per_passenger)
        assert routed - optimal_cost(state, frozenset(), network, per_passenger) == plan.cost
        commits.append(len(plan.requests))
        return route

    monkeypatch.setattr(simulator, "plan_route", checked_route)
    run_scenario(config)
    assert len(commits) >= 20 and max(commits) > 1


# -- fixed-route arithmetic -------------------------------------------------------


def retired_routes():
    return [
        FixedRoute("line243", 30, 35, "two_way", ()),
        FixedRoute("line392", 45, 35, "two_way", ()),
        FixedRoute("line466", 35, 30, "circular", ()),
    ]


def test_min_fleet_for_retired_lines():
    assert min_fleet_fixed_routes(retired_routes()) == 8


def test_min_fleet_requires_routes():
    with pytest.raises(ValueError, match="no routes given"):
        min_fleet_fixed_routes([])


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


def test_baseline_walk_tie_boards_at_lower_id():
    # E is 300 m from both B and C; B, the lower id, sits later on the route
    # D-C-B-A, so boarding there rides one 400 s segment to A, not two.
    net = TravelNetwork.euclidean(
        [Stop("A", 0, 0), Stop("B", 600, 0), Stop("C", 1200, 0),
         Stop("D", 1800, 0), Stop("E", 900, 0)], 10
    )
    route = FixedRoute("r1", 20, 10, "two_way", ("D", "C", "B", "A"))
    config = ScenarioConfig(horizon=3600, fleet_size=1, network=net, routes=(route,),
                            walk_speed=1.0, demand_requests=(req("r1", "E", "A", 0),))
    rec = run_baseline(config).records[0]
    assert rec.pickup_time == 300 + 300  # walk in, then wait for the t=600 bus
    assert rec.dropoff_time == rec.pickup_time + 400


def test_baseline_skips_a_route_without_stops():
    demand = (req("r1", "A", "D", 0), req("r2", "C", "B", 150), req("r3", "B", "A", 700))
    config = baseline_config(demand_requests=demand)
    empty = FixedRoute("empty", 5, 1, "circular", ())

    def outcomes(routes):
        return [(rec.status, rec.pickup_time, rec.dropoff_time)
                for rec in run_baseline(replace(config, routes=routes)).records]

    alone = outcomes(config.routes)
    assert {status for status, _, _ in alone} == {"completed"}
    assert outcomes((empty,) + config.routes) == outcomes(config.routes + (empty,)) == alone


def _baseline_kinds(config, r):
    """The fixed-route cases request ``r`` meets, per route and trip end."""
    kinds = []
    for route in config.routes:
        stops = route.served_stops
        if not stops:
            kinds.append("stopless route")
            continue
        if len(stops) == 1:
            kinds.append("single-stop route")
        ends = []
        for s in (r.pickup, r.dropoff):
            walks = [walk_seconds(config, s, b) for b in stops]
            tied = [b for b, w in zip(stops, walks) if w == min(walks)]
            if min(tied) != tied[0]:
                kinds.append("tie, lower id later")
            ends.append(stops.index(min(tied)))
        if ends[0] == ends[1]:
            kinds.append("boards where it alights")
        elif route.shape == "circular" and ends[1] < ends[0]:
            kinds.append("circular ride wraps")
    return kinds


def test_baseline_matches_the_served_stop_scan():
    # Stops on a 100 m grid make equal walks common; routes serve 0-5 stops
    # in shuffled order, and half the trip ends sit at a served stop.
    rng = random.Random(3205)
    grid = [(x, y) for x in range(0, 400, 100) for y in range(0, 400, 100)]
    seen = dict.fromkeys(["tie, lower id later", "single-stop route", "stopless route",
                          "boards where it alights", "circular ride wraps"], 0)
    for _ in range(1000):
        net = TravelNetwork.euclidean(
            [Stop(f"s{k}", x, y) for k, (x, y) in enumerate(rng.sample(grid, 8))], 10)
        ids = net.stop_ids()
        routes = tuple(
            FixedRoute(f"r{k}", rng.uniform(0.5, 40), rng.uniform(0.5, 15),
                       rng.choice(["two_way", "circular"]), rng.sample(ids, rng.randint(0, 5)))
            for k in range(rng.randint(1, 3)))
        served = [s for route in routes for s in route.served_stops]

        def trip_ends():
            while True:
                a, b = (rng.choice(served if served and rng.random() < 0.5 else ids)
                        for _ in range(2))
                if a != b:
                    return a, b

        requests = tuple(req(f"q{k}", *trip_ends(), rng.randint(0, 8000)) for k in range(6))
        config = ScenarioConfig(horizon=7200, fleet_size=1, network=net, routes=routes,
                                walk_speed=rng.choice([0.9, 1.0, 1.3]),
                                demand_requests=requests)
        got = {rec.id: (rec.status, rec.pickup_time, rec.dropoff_time)
               for rec in run_baseline(config).records}
        assert got == reference_baseline(config, requests)
        for r in requests:
            for kind in _baseline_kinds(config, r):
                seen[kind] += 1
    assert min(seen.values()) >= 20, seen


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
