"""Exact solver for the dispatch program.

The program selects exactly one assignment plan per vehicle and marks
each request either served (by exactly one selected plan) or missed,
minimizing total miss penalties plus plan waiting costs.  Both the
branch-and-bound solver and the brute-force oracle return the same
tie-broken optimum: lowest objective, then fewest missed requests, then
lexicographically smallest plan-index tuple in vehicle-id order.

No external MILP dependency: instances are per-region and per-interval,
so a vehicle-by-vehicle search with a coverage-aware lower bound is
exact and fast at the intended scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .enumeration import PlanSet
from .errors import InstanceTooLargeError
from .types import DispatchSolution, TripRequest

DEFAULT_MISS_PENALTY = 3600


@dataclass(frozen=True)
class DispatchProblem:
    """One dispatch interval: open requests, candidate plans, miss penalties."""

    requests: tuple[TripRequest, ...]
    plan_set: PlanSet
    miss_penalty: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(sorted(self.requests, key=lambda r: r.id)))
        object.__setattr__(self, "miss_penalty", dict(self.miss_penalty))
        for r in self.requests:
            penalty = self.miss_penalty.setdefault(r.id, DEFAULT_MISS_PENALTY)
            if penalty < 0:
                raise ValueError(f"request {r.id}: miss penalty must be >= 0")

    def penalty(self, request_id: str) -> int:
        return self.miss_penalty.get(request_id, DEFAULT_MISS_PENALTY)


def _prepare(problem: DispatchProblem):
    """Index requests as bits and plans per vehicle; validates empty plans exist."""
    req_ids = [r.id for r in problem.requests]
    bit_of = {rid: 1 << i for i, rid in enumerate(req_ids)}
    vehicles = sorted(problem.plan_set.per_vehicle)
    plans = problem.plan_set.plans
    per_vehicle: list[list[int]] = []
    for v in vehicles:
        indices = sorted(problem.plan_set.per_vehicle[v])
        if not any(not plans[i].requests for i in indices):
            raise ValueError(f"vehicle {v} has no empty plan; the program would be infeasible")
        per_vehicle.append(indices)
    masks = {}
    for i, plan in enumerate(plans):
        mask = 0
        ok = True
        for r in plan.requests:
            b = bit_of.get(r.id)
            if b is None:
                ok = False  # plan covers a request not in this problem
                break
            mask |= b
        masks[i] = mask if ok else None
    penalties = [problem.penalty(rid) for rid in req_ids]
    return req_ids, bit_of, vehicles, per_vehicle, masks, penalties


def _assemble(problem, vehicles, chosen, req_ids, covered_mask, objective) -> DispatchSolution:
    plans = problem.plan_set.plans
    selected = {v: plans[i] for v, i in zip(vehicles, chosen)}
    missed = frozenset(rid for i, rid in enumerate(req_ids) if not covered_mask & (1 << i))
    return DispatchSolution(selected=selected, missed=missed, objective=objective)


def solve_dispatch(problem: DispatchProblem) -> DispatchSolution:
    """Provably optimal plan selection via branch and bound over vehicles.

    The bound charges every uncovered request the cheaper of its miss
    penalty and the best per-request share (cost / subset size, rounded
    down) among plans of still-unassigned vehicles, which never
    overestimates the cost of completing the partial selection.
    """
    req_ids, bit_of, vehicles, per_vehicle, masks, penalties = _prepare(problem)
    plans = problem.plan_set.plans
    n_req = len(req_ids)
    full_mask = (1 << n_req) - 1 if n_req else 0

    # marginal_by_pos[k][r]: cheapest per-request share covering r using
    # vehicles[k:]; suffix minima let the bound drop as vehicles commit.
    inf = float("inf")
    suffix = [[inf] * n_req for _ in range(len(vehicles) + 1)]
    for k in range(len(vehicles) - 1, -1, -1):
        row = suffix[k]
        nxt = suffix[k + 1]
        for r in range(n_req):
            row[r] = nxt[r]
        for i in per_vehicle[k]:
            mask = masks[i]
            if not mask:
                continue
            share = plans[i].cost // len(plans[i].requests)
            m = mask
            while m:
                low = m & -m
                r = low.bit_length() - 1
                if share < row[r]:
                    row[r] = share
                m ^= low
    best: dict = {"key": None, "chosen": None, "covered": 0, "objective": None}

    def lower_bound(pos: int, covered: int, cost: int) -> int:
        lb = cost
        row = suffix[pos]
        for r in range(n_req):
            if not covered & (1 << r):
                marg = row[r]
                lb += penalties[r] if marg >= penalties[r] else int(marg)
        return lb

    chosen: list[int] = []

    def leaf(covered: int, cost: int):
        objective = cost
        missed = 0
        for r in range(n_req):
            if not covered & (1 << r):
                objective += penalties[r]
                missed += 1
        key = (objective, missed, tuple(chosen))
        if best["key"] is None or key < best["key"]:
            best["key"] = key
            best["chosen"] = tuple(chosen)
            best["covered"] = covered
            best["objective"] = objective

    def descend(pos: int, covered: int, cost: int):
        if pos == len(vehicles):
            leaf(covered, cost)
            return
        if best["key"] is not None and lower_bound(pos, covered, cost) > best["key"][0]:
            return
        options = []
        for i in per_vehicle[pos]:
            mask = masks[i]
            if mask is None or (mask and mask & covered):
                continue  # overlaps already-served requests
            saved = 0
            m = mask
            while m:
                low = m & -m
                saved += penalties[low.bit_length() - 1]
                m ^= low
            options.append((plans[i].cost - saved, i, mask))
        options.sort()
        for _, i, mask in options:
            chosen.append(i)
            descend(pos + 1, covered | mask, cost + plans[i].cost)
            chosen.pop()

    descend(0, 0, 0)
    # descend refers to itself, a reference cycle that would keep this
    # tick's plans alive until the next full collection; break it now.
    del descend
    return _assemble(problem, vehicles, best["chosen"], req_ids, best["covered"], best["objective"])


def brute_force_dispatch(problem: DispatchProblem, guard: int = 10**6) -> DispatchSolution:
    """Testing oracle: try every one-plan-per-vehicle selection outright."""
    req_ids, bit_of, vehicles, per_vehicle, masks, penalties = _prepare(problem)
    plans = problem.plan_set.plans
    combos = 1
    for indices in per_vehicle:
        combos *= len(indices)
    if combos > guard:
        raise InstanceTooLargeError(f"{combos} plan selections exceed the {guard} guard")

    n_req = len(req_ids)
    best_key = None
    best_state = None
    for selection in product(*per_vehicle):
        covered = 0
        cost = 0
        ok = True
        for i in selection:
            mask = masks[i]
            if mask is None or mask & covered:
                ok = False
                break
            covered |= mask
            cost += plans[i].cost
        if not ok:
            continue
        missed = 0
        for r in range(n_req):
            if not covered & (1 << r):
                cost += penalties[r]
                missed += 1
        key = (cost, missed)
        if best_key is None or key < best_key:
            # product() runs in lexicographic index order, so the first
            # hit of a (cost, missed) value is the tie-broken optimum.
            best_key = key
            best_state = (selection, covered, cost)
    selection, covered, objective = best_state
    return _assemble(problem, vehicles, selection, req_ids, covered, objective)


def check_solution(problem: DispatchProblem, solution: DispatchSolution) -> list[str]:
    """Independent feasibility and objective audit; empty list means ok."""
    violations: list[str] = []
    plans = problem.plan_set.plans
    vehicles = sorted(problem.plan_set.per_vehicle)
    if sorted(solution.selected) != vehicles:
        violations.append("selected plans do not cover each vehicle exactly once")
    request_ids = {r.id for r in problem.requests}

    coverage: dict[str, int] = {rid: 0 for rid in request_ids}
    recomputed = 0
    for v in vehicles:
        plan = solution.selected.get(v)
        if plan is None:
            continue
        if plan.vehicle != v:
            violations.append(f"vehicle {v} selected a plan belonging to {plan.vehicle}")
        bucket = [plans[i] for i in problem.plan_set.per_vehicle.get(v, ())]
        if plan not in bucket:
            violations.append(f"vehicle {v} selected a plan outside its candidate set")
        recomputed += plan.cost
        for r in plan.requests:
            if r.id not in coverage:
                violations.append(f"plan for {v} serves unknown request {r.id}")
            else:
                coverage[r.id] += 1
    for rid in sorted(request_ids):
        served = coverage[rid]
        missed = rid in solution.missed
        if served + (1 if missed else 0) != 1:
            violations.append(
                f"request {rid}: served {served} time(s), missed={missed}; must be exactly one"
            )
        if missed:
            recomputed += problem.penalty(rid)
    for rid in sorted(solution.missed - request_ids):
        violations.append(f"missed set names unknown request {rid}")
    if not violations and recomputed != solution.objective:
        violations.append(f"objective {solution.objective} != recomputed {recomputed}")
    return violations
