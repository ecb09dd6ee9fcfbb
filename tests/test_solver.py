import random
from dataclasses import replace

import pytest

from odshuttle.enumeration import PlanSet, enumerate_plans
from odshuttle.errors import InstanceTooLargeError
from odshuttle.network import TravelNetwork
from odshuttle.solver import DispatchProblem, check_solution, solve_dispatch
from odshuttle.types import AssignmentPlan, DispatchSolution, ShuttleState, Stop, TripRequest

from conftest import make_grid_network, random_dispatch_problem
from oracles import brute_force_dispatch


def simple_problem(plan_cost=50, penalty=1000, line_network=None):
    net = line_network or TravelNetwork.euclidean(
        [Stop("A", 0, 0), Stop("B", 500, 0), Stop("C", 1000, 0)], speed=10
    )
    v = ShuttleState(id="v00", heading_stop="A", arrival_time=0, capacity=4)
    r = TripRequest(id="r00", pickup="B", dropoff="C", request_time=0)
    plans = (
        AssignmentPlan(requests=frozenset(), cost=0),
        AssignmentPlan(requests={r}, cost=plan_cost, sequence=("B", "C")),
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


EMPTY, SERVE = simple_problem().plan_set.plans
STRAY = AssignmentPlan(cost=10, requests=SERVE.requests | {
    TripRequest(id="r99", pickup="A", dropoff="B", request_time=0)})


@pytest.mark.parametrize("plans", [
    pytest.param((SERVE,), id="no-empty-plan"),
    pytest.param((SERVE, EMPTY), id="empty-plan-last"),
    pytest.param((replace(EMPTY, cost=5), SERVE), id="empty-plan-at-cost-5"),
    pytest.param((EMPTY, SERVE, EMPTY), id="two-empty-plans"),
    pytest.param((EMPTY, SERVE, STRAY), id="request-outside-problem"),
])
def test_malformed_problem_vehicle_without_empty_plan(plans):
    # The solver's input contract: the first plan is the only empty one, at
    # cost 0, and plans cover only the problem's requests.
    plan_set = PlanSet({"v00": plans})
    broken = DispatchProblem(requests=simple_problem().requests, plan_set=plan_set)
    with pytest.raises(ValueError, match="vehicle v00"):
        solve_dispatch(broken)


def test_single_vehicle_closed_form():
    rng = random.Random(8)
    for _ in range(40):
        problem = random_dispatch_problem(rng, max_vehicles=1, max_requests=6, max_cap=3)
        got = solve_dispatch(problem).objective
        total_penalty = sum(problem.penalty(r.id) for r in problem.requests)
        best = None
        for plan in problem.plan_set.plans:
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
        assert fast.selected == brute.selected
        assert check_solution(problem, fast) == []
        lists = [tuple((p.request_ids, p.cost) for p in plans)
                 for plans in problem.plan_set.per_vehicle.values()]
        classed += len(set(lists)) < len(lists)
    assert classed > 100


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
        coverable = any(target in {r.id for r in p.requests} for p in problem.plan_set.plans)
        bump = dict(problem.miss_penalty)
        bump[target] = 1 + sum(p.cost for p in problem.plan_set.plans) + sum(
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
    empty = problem.plan_set.plans[0]
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


def test_check_solution_flags_foreign_plan():
    problem = simple_problem()
    foreign = AssignmentPlan(requests=frozenset(), cost=0, sequence=("C",))
    doctored = DispatchSolution(selected={"v00": foreign}, missed=frozenset({"r00"}),
                                objective=1000)
    assert any("candidate set" in v for v in check_solution(problem, doctored))
