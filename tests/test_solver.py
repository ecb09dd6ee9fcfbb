import os
import random
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import odshuttle
from odshuttle.enumeration import PlanSet, enumerate_plans
from odshuttle.errors import InstanceTooLargeError
from odshuttle.network import TravelNetwork
from odshuttle.solver import DispatchProblem, check_solution, solve_dispatch
from odshuttle.types import AssignmentPlan, DispatchSolution, ShuttleState, Stop, TripRequest

from conftest import (idle_fleet_instance, make_grid_network, random_dispatch_problem,
                      twin_fleet_instance)
from oracles import brute_force_dispatch


def simple_problem(plan_cost=50, penalty=1000, line_network=None):
    net = line_network or TravelNetwork.euclidean(
        [Stop("A", 0, 0), Stop("B", 500, 0), Stop("C", 1000, 0)], speed=10
    )
    v = ShuttleState(id="v00", heading_stop="A", arrival_time=0, capacity=4)
    r = TripRequest(id="r00", pickup="B", dropoff="C", request_time=0)
    plans = (
        AssignmentPlan(requests=frozenset(), cost=0),
        AssignmentPlan(requests={r}, cost=plan_cost),
    )
    plan_set = PlanSet({"v00": plans})
    return DispatchProblem(requests=(r,), plan_set=plan_set, miss_penalty={"r00": penalty})


def test_no_requests_all_vehicles_idle(line_network):
    shuttles = [ShuttleState(id=f"v{i}", heading_stop="A", arrival_time=0, capacity=4)
                for i in range(3)]
    plan_set = enumerate_plans(shuttles, [], 2, line_network)
    solution = solve_dispatch(DispatchProblem(requests=(), plan_set=plan_set))
    assert solution.objective == 0
    assert solution.missed == frozenset()
    assert all(not p.requests for p in solution.selected.values())


def test_serving_beats_missing_when_cheaper():
    solution = solve_dispatch(simple_problem(plan_cost=50, penalty=1000))
    assert solution.objective == 50
    assert solution.missed == frozenset()
    assert solution.selected["v00"].request_ids == ("r00",)


def test_missing_beats_serving_when_cheaper():
    solution = solve_dispatch(simple_problem(plan_cost=500, penalty=60))
    assert solution.objective == 60
    assert solution.missed == {"r00"}


def test_zero_penalties_allow_zero_objective():
    problem = simple_problem(plan_cost=50, penalty=0)
    solution = solve_dispatch(problem)
    assert solution.objective == 0
    assert brute_force_dispatch(problem).objective == 0


EMPTY, SERVE = simple_problem().plan_set.per_vehicle["v00"]
STRAY = AssignmentPlan(cost=10, requests=SERVE.requests | {
    TripRequest(id="r99", pickup="A", dropoff="B", request_time=0)})
SECOND = TripRequest(id="r01", pickup="A", dropoff="C", request_time=0)


MALFORMED = [
    pytest.param((SERVE,), "vehicle {}: its first plan must be the empty plan at cost 0",
                 id="no-empty-plan"),
    pytest.param((SERVE, EMPTY), "vehicle {}: its first plan must be the empty plan at cost 0",
                 id="empty-plan-last"),
    pytest.param((replace(EMPTY, cost=5), SERVE),
                 "vehicle {}: its first plan must be the empty plan at cost 0",
                 id="empty-plan-at-cost-5"),
    pytest.param((EMPTY, SERVE, EMPTY), "vehicle {}: a plan after its first is empty",
                 id="two-empty-plans"),
    pytest.param((EMPTY, SERVE, STRAY), "vehicle {}: a plan covers r99, not in the problem",
                 id="request-outside-problem"),
    pytest.param((), "vehicle {} has no plans; the program would be infeasible", id="no-plans"),
]


def rejection(per_vehicle) -> list[str]:
    """The ValueError texts of a program of these plan lists with one request, then two."""
    texts = []
    for requests in [simple_problem().requests, simple_problem().requests + (SECOND,)]:
        with pytest.raises(ValueError) as caught:
            solve_dispatch(DispatchProblem(requests=requests, plan_set=PlanSet(per_vehicle)))
        texts.append(str(caught.value))
    return texts


@pytest.mark.parametrize("plans, message", MALFORMED)
def test_malformed_problem_vehicle_without_empty_plan(plans, message):
    # The solver's input contract: the first plan is the only empty one, at
    # cost 0, and plans cover only the problem's requests.  Only setup checks
    # it: a one-request program's argmin stops at the first list that is not
    # well formed and falls through to setup, so both programs raise alike.
    assert rejection({"v00": plans}) == [message.format("v00")] * 2


@pytest.mark.parametrize("plans, message", MALFORMED)
def test_malformed_plans_rejected_in_one_request_program(plans, message):
    # A well-formed vehicle that could serve the request comes first, so a
    # one-request program has a winner before it reaches the malformed list;
    # that list still sends it to setup, whose error names the lowest-id
    # broken vehicle, v01, not v02 after it.
    per_vehicle = {"v00": (EMPTY, SERVE), "v01": plans, "v02": (SERVE,)}
    assert rejection(per_vehicle) == [message.format("v01")] * 2


(R00,) = SERVE.requests
TWIN = AssignmentPlan(requests=frozenset({replace(R00, pickup="A")}), cost=50)  # R00's id, not R00


@pytest.mark.parametrize("per_vehicle", [
    pytest.param({"v00": (EMPTY, SERVE), "v01": (EMPTY, TWIN), "v02": (EMPTY,)}, id="vehicle-tie"),
    pytest.param({"v00": (EMPTY, replace(TWIN, cost=10)), "v01": (EMPTY, SERVE)}, id="twin-cheaper"),
    pytest.param({"v00": (EMPTY, SERVE, TWIN)}, id="rank-tie"),
    pytest.param({"v00": (EMPTY, TWIN, SERVE)}, id="twin-first-rank-tie"),
    pytest.param({"v00": (EMPTY, replace(TWIN, cost=2000))}, id="missed"),
])
def test_plan_of_a_request_with_the_same_id_and_other_fields(per_vehicle):
    # The argmin reads only plans of the very request, so a plan holding
    # another request of the same id sends the program to setup, which
    # matches requests by id and finds the oracle's tie-broken optimum.
    problem = DispatchProblem(requests=(R00,), plan_set=PlanSet(per_vehicle),
                              miss_penalty={"r00": 1000})
    fast = solve_dispatch(problem)
    brute = brute_force_dispatch(problem)
    assert (fast.objective, fast.missed) == (brute.objective, brute.missed)
    assert fast.selected.keys() == brute.selected.keys()
    assert all(fast.selected[v] is brute.selected[v] for v in fast.selected)
    assert check_solution(problem, fast) == []


HASH_SEED_PROBE = """
from odshuttle.enumeration import PlanSet
from odshuttle.solver import DispatchProblem, check_solution, solve_dispatch
from odshuttle.types import AssignmentPlan, DispatchSolution, TripRequest

def req(rid):
    return TripRequest(id=rid, pickup="A", dropoff="B", request_time=0)

stray = AssignmentPlan(requests=frozenset({req("r90"), req("r91")}), cost=10)
for ids in (["r00"], ["r00", "r01"]):
    plan_set = PlanSet({"v00": (AssignmentPlan(requests=frozenset(), cost=0), stray)})
    problem = DispatchProblem(requests=tuple(map(req, ids)), plan_set=plan_set)
    try:
        solve_dispatch(problem)
    except ValueError as err:
        print(err)
    audited = DispatchSolution(selected={"v00": stray}, missed=frozenset(ids), objective=10)
    print(*check_solution(problem, audited), sep="\\n")
"""


def test_named_requests_independent_of_hash_seed():
    # Set iteration order follows PYTHONHASHSEED, which one process cannot
    # vary.  A plan covering r90 and r91, neither in the program, is named by
    # its least stray id, and the audit lists unknown requests in id order,
    # in a one-request and a two-request program alike.
    src = Path(odshuttle.__file__).resolve().parent.parent
    want = ["vehicle v00: a plan covers r90, not in the problem",
            "plan for v00 serves unknown request r90",
            "plan for v00 serves unknown request r91"] * 2
    for seed in range(8):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == want, f"PYTHONHASHSEED={seed}"


def random_one_request_problem(rng):
    """A hand-built one-request program with frequent ties.

    Zero to five vehicles each get zero to three plans serving the
    request, with costs from a short list, so a later rank is often
    cheaper than an earlier one.  A vehicle may instead hold the very
    tuple of an earlier vehicle, or a separate tuple of new plans equal
    to that one's.  Every plan of a new tuple is its own object, so equal
    plans tell their vehicles and ranks apart by identity.
    """
    r = TripRequest(id="r00", pickup="A", dropoff="B", request_time=0)
    lists: list[tuple] = []
    per_vehicle = {}
    for i in range(rng.randint(0, 5)):
        roll = rng.random()
        if lists and roll < 0.25:
            plans = rng.choice(lists)
        elif lists and roll < 0.45:
            plans = tuple(replace(plan) for plan in rng.choice(lists))
        else:
            plans = (AssignmentPlan(requests=frozenset(), cost=0),) + tuple(
                AssignmentPlan(requests=frozenset({r}), cost=rng.choice([0, 10, 50, 50, 100]))
                for _ in range(rng.choice([0, 1, 1, 2, 3])))
        lists.append(plans)
        per_vehicle[f"v{i:02d}"] = plans
    return DispatchProblem(requests=(r,), plan_set=PlanSet(per_vehicle),
                           miss_penalty={"r00": rng.choice([0, 10, 50, 100])})


def test_one_request_programs_match_brute_force():
    rng = random.Random(1201)
    seen = dict.fromkeys(["vehicle-tie", "twins", "equal-lists-apart", "two-serving-plans",
                          "later-rank-cheaper", "cost-equals-penalty", "penalty-0",
                          "no-serving-plan", "no-vehicles"], 0)
    for _ in range(600):
        problem = random_one_request_problem(rng)
        fast = solve_dispatch(problem)
        brute = brute_force_dispatch(problem)
        assert fast.objective == brute.objective
        assert fast.missed == brute.missed
        assert fast.selected.keys() == brute.selected.keys()
        assert all(fast.selected[v] is brute.selected[v] for v in fast.selected)
        assert check_solution(problem, fast) == []

        lists = list(problem.plan_set.per_vehicle.values())
        cheapest = [min((p.cost for p in plans[1:]), default=None) for plans in lists]
        costs = [c for c in cheapest if c is not None]
        penalty = problem.penalty("r00")
        seen["vehicle-tie"] += len(costs) > 1 and costs.count(min(costs)) > 1
        seen["twins"] += len({id(plans) for plans in lists}) < len(lists)
        seen["equal-lists-apart"] += len({id(plans) for plans in lists}) > len(set(lists))
        seen["two-serving-plans"] += any(len(plans) > 2 for plans in lists)
        seen["later-rank-cheaper"] += any(
            later.cost < earlier.cost
            for plans in lists for i, earlier in enumerate(plans[1:], 1) for later in plans[i + 1:])
        seen["cost-equals-penalty"] += bool(costs) and min(costs) == penalty
        seen["penalty-0"] += penalty == 0
        seen["no-serving-plan"] += not costs
        seen["no-vehicles"] += not lists
    assert all(count >= 20 for count in seen.values()), seen


def test_single_vehicle_closed_form():
    rng = random.Random(8)
    for _ in range(40):
        problem = random_dispatch_problem(rng, max_vehicles=1, max_requests=6, max_cap=3)
        got = solve_dispatch(problem).objective
        total_penalty = sum(problem.penalty(r.id) for r in problem.requests)
        best = None
        for plan in (p for plans in problem.plan_set.per_vehicle.values() for p in plans):
            value = plan.cost + total_penalty - sum(problem.penalty(r.id) for r in plan.requests)
            best = value if best is None else min(best, value)
        assert got == best


def test_matches_brute_force_on_random_instances():
    rng = random.Random(1234)
    for _ in range(150):
        problem = random_dispatch_problem(rng)
        fast = solve_dispatch(problem)
        brute = brute_force_dispatch(problem)
        assert fast.objective == brute.objective
        assert check_solution(problem, fast) == []
        assert check_solution(problem, brute) == []
        # Full tie-break agreement, not just the objective.
        assert fast.missed == brute.missed
        assert {v: p.request_ids for v, p in fast.selected.items()} == \
               {v: p.request_ids for v, p in brute.selected.items()}


def test_matches_brute_force_with_identical_shuttles():
    # Twins share a vehicle class in the search; the oracle knows no classes.
    rng = random.Random(2024)
    classed = 0
    for _ in range(300):
        problem = random_dispatch_problem(rng, max_vehicles=5, twins=True)
        fast = solve_dispatch(problem)
        brute = brute_force_dispatch(problem)
        assert fast.objective == brute.objective
        assert fast.missed == brute.missed
        assert fast.selected.keys() == brute.selected.keys()
        assert all(fast.selected[v] is brute.selected[v] for v in fast.selected)
        assert check_solution(problem, fast) == []
        lists = [tuple((p.request_ids, p.cost) for p in plans)
                 for plans in problem.plan_set.per_vehicle.values()]
        classed += len(set(lists)) < len(lists)
    assert classed > 100


def test_matches_brute_force_on_overloaded_programs():
    # One or two free shuttles against five to eight requests; the rest
    # can take nothing.  Most requests must be missed.
    rng = random.Random(3131)
    missed = 0
    for _ in range(100):
        problem = random_dispatch_problem(rng, overloaded=True)
        fast = solve_dispatch(problem)
        brute = brute_force_dispatch(problem)
        assert fast.objective == brute.objective
        assert fast.missed == brute.missed
        assert fast.selected.keys() == brute.selected.keys()
        assert all(fast.selected[v] is brute.selected[v] for v in fast.selected)
        assert check_solution(problem, fast) == []
        free = sum(len(plans) > 1 for plans in problem.plan_set.per_vehicle.values())
        assert free <= 2 < len(problem.requests)
        missed += len(fast.missed)
    assert missed > 120


def test_matches_brute_force_with_one_large_class():
    rng = random.Random(4141)
    for _ in range(100):
        problem = random_dispatch_problem(rng, max_vehicles=6, max_combos=30_000, one_class=True)
        fast = solve_dispatch(problem)
        brute = brute_force_dispatch(problem)
        assert fast.objective == brute.objective
        assert fast.missed == brute.missed
        assert fast.selected.keys() == brute.selected.keys()
        assert all(fast.selected[v] is brute.selected[v] for v in fast.selected)
        assert check_solution(problem, fast) == []
        lists = {tuple((p.request_ids, p.cost) for p in plans)
                 for plans in problem.plan_set.per_vehicle.values()}
        assert len(lists) == 1 and len(problem.plan_set.per_vehicle) >= 3


def test_identical_idle_shuttles_serve_from_highest_id(line_network):
    shuttles = [ShuttleState(id=f"v{i}", heading_stop="A", arrival_time=0, capacity=4)
                for i in range(3)]
    r = TripRequest(id="r00", pickup="B", dropoff="C", request_time=0)
    problem = DispatchProblem(requests=(r,), plan_set=enumerate_plans(shuttles, [r], 1, line_network))
    solution = solve_dispatch(problem)
    assert {v: p.request_ids for v, p in solution.selected.items()} == \
           {"v0": (), "v1": (), "v2": ("r00",)}
    assert solution.selected == brute_force_dispatch(problem).selected


def test_thousand_identical_shuttles_solve_like_eight():
    # Only eight shuttles can serve eight requests, so the optimum is that
    # of the eight-shuttle fleet; the search depth stays eight.
    rng = random.Random(31)
    network = make_grid_network(rng, 8)
    ids = network.stop_ids()
    requests = [TripRequest(id=f"r{i}", pickup=ids[i], dropoff=ids[(i + 3) % 8],
                            request_time=rng.randint(0, 100)) for i in range(8)]
    shuttles = [ShuttleState(id=f"v{i:04d}", heading_stop=ids[0], arrival_time=0, capacity=3)
                for i in range(8)]
    small = DispatchProblem(requests=tuple(requests),
                            plan_set=enumerate_plans(shuttles, requests, 3, network),
                            miss_penalty={r.id: 1200 for r in requests})
    # Plans name no vehicle, so the 1,000 shuttles share v0000's list.
    template = small.plan_set.per_vehicle["v0000"]
    large = DispatchProblem(requests=small.requests,
                            plan_set=PlanSet({f"v{i:04d}": template for i in range(1000)}),
                            miss_penalty=small.miss_penalty)
    solution = solve_dispatch(large)
    assert check_solution(large, solution) == []
    assert solution.objective == solve_dispatch(small).objective
    assert sum(1 for p in solution.selected.values() if p.requests) <= 8


def test_thousand_enumerated_shuttles_solve_like_eight():
    network, requests, shuttles = idle_fleet_instance(1000)
    penalties = {r.id: 1200 for r in requests}

    def problem(fleet):
        return DispatchProblem(requests=tuple(requests), miss_penalty=penalties,
                               plan_set=enumerate_plans(fleet, requests, 3, network))

    large = problem(shuttles)
    solution = solve_dispatch(large)
    assert check_solution(large, solution) == []
    assert solution.objective == solve_dispatch(problem(shuttles[:8])).objective


def test_twins_apart_only_by_request_ids_solve_as_one_class():
    # Enumeration prices each twin apart, so each holds its own plan tuple;
    # only the class key by content, not by tuple, makes them one class.  Keyed
    # by tuple alone this solve ran past 60 s on a 2-core host; keyed by content, 3 ms.
    network, requests, shuttles = twin_fleet_instance()
    problem = DispatchProblem(requests=tuple(requests), miss_penalty={r.id: 3600 for r in requests},
                              plan_set=enumerate_plans(shuttles, requests, 3, network,
                                                       max_outstanding=6))

    def give_up(signum, frame):
        raise TimeoutError("the twelve twins took over 5 s to solve")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        solution = solve_dispatch(problem)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert check_solution(problem, solution) == []
    assert solution.objective == 1267


def test_objective_never_exceeds_missing_everything():
    rng = random.Random(77)
    for _ in range(60):
        problem = random_dispatch_problem(rng)
        solution = solve_dispatch(problem)
        assert solution.objective <= sum(problem.penalty(r.id) for r in problem.requests)


def test_raising_penalty_forces_service():
    # Monotone service pressure: once a request's miss penalty dominates
    # every serving cost plus every other penalty, any solution serving it
    # beats any solution missing it, so it flips to served (when coverable).
    rng = random.Random(4242)
    checked = 0
    while checked < 25:
        problem = random_dispatch_problem(rng, max_vehicles=3, max_requests=5)
        solution = solve_dispatch(problem)
        if not solution.missed:
            continue
        target = sorted(solution.missed)[0]
        every_plan = [p for plans in problem.plan_set.per_vehicle.values() for p in plans]
        coverable = any(target in {r.id for r in p.requests} for p in every_plan)
        bump = dict(problem.miss_penalty)
        bump[target] = 1 + sum(p.cost for p in every_plan) + sum(
            v for k, v in problem.miss_penalty.items() if k != target
        )
        bumped = DispatchProblem(requests=problem.requests,
                                 plan_set=problem.plan_set, miss_penalty=bump)
        missed_after = solve_dispatch(bumped).missed
        if coverable:
            assert target not in missed_after
        else:
            assert target in missed_after
        checked += 1


def test_request_missed_status_monotone_in_own_penalty():
    # A served request never flips to missed when its own penalty rises.
    rng = random.Random(555)
    checked = 0
    while checked < 25:
        problem = random_dispatch_problem(rng, max_vehicles=3, max_requests=5)
        solution = solve_dispatch(problem)
        served = sorted(set(r.id for r in problem.requests) - set(solution.missed))
        if not served:
            continue
        target = served[0]
        bump = dict(problem.miss_penalty)
        bump[target] = bump[target] * 3 + 100
        bumped = DispatchProblem(requests=problem.requests,
                                 plan_set=problem.plan_set, miss_penalty=bump)
        assert target not in solve_dispatch(bumped).missed
        checked += 1


def test_negative_miss_penalty_rejected():
    with pytest.raises(ValueError, match="request r00: miss penalty must be >= 0"):
        simple_problem(penalty=-1)


def test_repeated_request_id_rejected():
    # Two requests of one id would solve to a solution check_solution rejects.
    problem = simple_problem()
    twin = replace(problem.requests[0], pickup="A")
    with pytest.raises(ValueError, match="^request id r00 is repeated$"):
        DispatchProblem(requests=(*problem.requests, twin), plan_set=problem.plan_set)


def test_brute_force_guard():
    problem = simple_problem()
    with pytest.raises(InstanceTooLargeError):
        brute_force_dispatch(problem, guard=1)


def test_check_solution_accepts_valid(line_network):
    problem = simple_problem()
    assert check_solution(problem, solve_dispatch(problem)) == []


def test_check_solution_flags_served_and_missed():
    problem = simple_problem()
    solution = solve_dispatch(problem)  # serves r00
    doctored = DispatchSolution(selected=solution.selected,
                                missed=frozenset({"r00"}),
                                objective=solution.objective)
    assert any("exactly one" in v for v in check_solution(problem, doctored))


def test_check_solution_flags_unserved_unmissed():
    problem = simple_problem()
    empty = problem.plan_set.per_vehicle["v00"][0]
    doctored = DispatchSolution(selected={"v00": empty}, missed=frozenset(), objective=0)
    assert any("exactly one" in v for v in check_solution(problem, doctored))


def test_check_solution_flags_missing_vehicle():
    problem = simple_problem()
    doctored = DispatchSolution(selected={}, missed=frozenset({"r00"}), objective=1000)
    assert any("each vehicle" in v for v in check_solution(problem, doctored))


def test_check_solution_flags_wrong_objective():
    problem = simple_problem()
    solution = solve_dispatch(problem)
    doctored = replace(solution)
    object.__setattr__(doctored, "objective", solution.objective + 1)
    assert any("recomputed" in v for v in check_solution(problem, doctored))


@pytest.mark.parametrize("selected, missed, flagged", [
    pytest.param({"v00": STRAY}, frozenset(), "plan for v00 serves unknown request r99",
                 id="served"),
    pytest.param({"v00": SERVE}, frozenset({"r99"}), "missed set names unknown request r99",
                 id="missed"),
])
def test_check_solution_flags_unknown_request(selected, missed, flagged):
    doctored = DispatchSolution(selected=selected, missed=missed, objective=0)
    assert flagged in check_solution(simple_problem(), doctored)


def test_check_solution_flags_foreign_plan():
    problem = simple_problem()
    foreign = AssignmentPlan(requests=frozenset(), cost=1)
    doctored = DispatchSolution(selected={"v00": foreign}, missed=frozenset({"r00"}),
                                objective=1000)
    assert any("candidate set" in v for v in check_solution(problem, doctored))
