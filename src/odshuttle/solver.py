"""Exact solver for the dispatch program.

The program selects exactly one assignment plan per vehicle and marks
each request either served (by exactly one selected plan) or missed,
minimizing total miss penalties plus plan waiting costs.  The solver
returns the tie-broken optimum: lowest objective, then fewest missed
requests, then lexicographically smallest tuple of plan ranks (positions
in each vehicle's list) in vehicle-id order, the order of ``plans``.

No external MILP dependency: instances are per-region and per-interval,
so an iterative branch and bound over requests, with a coverage-aware
lower bound, is exact and fast at the intended scale.  Each step settles
the lowest undecided request, missed or served by one plan, so the search
is as deep as the request count, not the fleet size.  Vehicles whose
plan lists agree rank by rank on (requests, cost) form one class and are
branched on once, however many there are; a class's chosen plans go to
its highest-id members, and vehicles never touched take their first
plan, the empty one, which keeps the tie-break above.

Input contract, as :func:`odshuttle.enumeration.enumerate_plans` builds
it: each vehicle's first plan is its only empty plan, at cost 0, and
every plan covers only the problem's requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .enumeration import PlanSet
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
    """Index requests as bits and each vehicle's plans as masks; checks the input contract."""
    req_ids = [r.id for r in problem.requests]
    bit_of = {rid: 1 << i for i, rid in enumerate(req_ids)}
    masks: list[list[int]] = []
    for v, plans in problem.plan_set.per_vehicle.items():
        if not plans:
            raise ValueError(f"vehicle {v} has no plans; the program would be infeasible")
        if plans[0].requests or plans[0].cost:
            raise ValueError(f"vehicle {v}: its first plan must be the empty plan at cost 0")
        vehicle_masks = [0]
        for plan in plans[1:]:
            mask = 0
            for r in plan.requests:
                if r.id not in bit_of:
                    raise ValueError(f"vehicle {v}: a plan covers {r.id}, not in the problem")
                mask |= bit_of[r.id]
            if not mask:
                raise ValueError(f"vehicle {v}: a plan after its first is empty")
            vehicle_masks.append(mask)
        masks.append(vehicle_masks)
    penalties = [problem.penalty(rid) for rid in req_ids]
    return req_ids, masks, penalties


def _selection(path, members, n_vehicles) -> list[int]:
    """Plan rank per vehicle, in vehicle-id order, for a path of (class, rank) choices.

    Every vehicle starts from rank 0, its empty plan; each class's chosen
    ranks, sorted ascending, go to its highest-id members.  This is the
    smallest rank tuple among the class's permutations.
    """
    ranks_of: dict[int, list[int]] = {}
    while path is not None:
        c, rank, path = path
        ranks_of.setdefault(c, []).append(rank)
    chosen = [0] * n_vehicles
    for c, ranks in ranks_of.items():
        ranks.sort()
        team = members[c]
        for pos, rank in zip(team[len(team) - len(ranks):], ranks):
            chosen[pos] = rank
    return chosen


def solve_dispatch(problem: DispatchProblem) -> DispatchSolution:
    """Provably optimal plan selection via branch and bound over requests.

    Plans breaking the module's input contract raise ``ValueError``.
    The search settles the lowest undecided request at each step: missed,
    or served by a plan (whose lowest request it is) of a vehicle class
    with a member still free.  Which members serve is decided only at a
    leaf, by :func:`_selection`; vehicles never touched take their first
    plan, the empty one.

    A node is cut when its cost plus a lower bound exceeds the incumbent
    (strictly, so every tie is still reached): each undecided request
    costs at least the cheaper of its miss penalty and the smallest
    per-request share (plan cost over subset size, rounded down) of any
    plan covering it.  Leaves are ranked by objective, then fewest
    missed, then plan-rank tuple in vehicle-id order, as in the
    brute-force oracle of the test suite.
    """
    req_ids, masks, penalties = _prepare(problem)
    per_vehicle = problem.plan_set.per_vehicle
    n_req = len(req_ids)
    full = (1 << n_req) - 1

    teams: dict[tuple, list[int]] = {}
    for pos, (plans, vehicle_masks) in enumerate(zip(per_vehicle.values(), masks)):
        teams.setdefault(tuple(zip(vehicle_masks, [p.cost for p in plans])), []).append(pos)
    members = list(teams.values())  # vehicle positions per class, ascending id

    # Served plans (ranks >= 1) as (cost, class, rank, mask); their shares
    # bound each request's cost from below.
    share = list(penalties)
    served: list[tuple[int, int, int, int]] = []
    for c, key in enumerate(teams):
        for rank, (mask, cost) in enumerate(key[1:], 1):
            per = cost // mask.bit_count()
            m = mask
            while m:
                low = m & -m
                r = low.bit_length() - 1
                if per < share[r]:
                    share[r] = per
                m ^= low
            served.append((cost, c, rank, mask))

    # Branches per lowest request bit, best first by cost net of the
    # penalties they save; class -1 is the miss branch.
    branches: list[list[tuple]] = [
        [(0, -1, -1, 1 << r, penalties[r], share[r])] for r in range(n_req)
    ]
    for cost, c, rank, mask in served:
        saved = floor = 0
        m = mask
        while m:
            low = m & -m
            r = low.bit_length() - 1
            saved += penalties[r]
            floor += share[r]
            m ^= low
        branches[(mask & -mask).bit_length() - 1].append((cost - saved, c, rank, mask, cost, floor))
    for options in branches:
        options.sort()

    # The all-missed leaf is the first incumbent.
    best_cost = sum(penalties)
    best_mask = full
    best_path = None
    best_sel = None
    # (decided, missed, cost, floor of the undecided, path); a path is a
    # linked tuple (class, rank, parent) of the plans chosen so far.
    stack = [(0, 0, 0, sum(share), None)]
    while stack:
        decided, missed, cost, rest, path = stack.pop()
        if cost + rest > best_cost:
            continue
        if decided == full:
            n_missed, best_missed = missed.bit_count(), best_mask.bit_count()
            if cost == best_cost and n_missed == best_missed:
                sel = _selection(path, members, len(masks))
                if best_sel is None:
                    best_sel = _selection(best_path, members, len(masks))
                if sel < best_sel:
                    best_mask, best_path, best_sel = missed, path, sel
            elif cost < best_cost or n_missed < best_missed:
                best_cost, best_mask, best_path, best_sel = cost, missed, path, None
            continue
        taken: dict[int, int] = {}
        node = path
        while node is not None:
            taken[node[0]] = taken.get(node[0], 0) + 1
            node = node[2]
        children = []
        for _, c, rank, mask, extra, floor in branches[(~decided & (decided + 1)).bit_length() - 1]:
            if mask & decided or cost + extra + rest - floor > best_cost:
                continue
            if c < 0:
                children.append((decided | mask, missed | mask, cost + extra, rest - floor, path))
            elif taken.get(c, 0) < len(members[c]):
                children.append((decided | mask, missed, cost + extra, rest - floor, (c, rank, path)))
        children.reverse()
        stack += children

    if best_sel is None:
        best_sel = _selection(best_path, members, len(masks))
    selected = {v: plans[rank] for (v, plans), rank in zip(per_vehicle.items(), best_sel)}
    missed = frozenset(rid for i, rid in enumerate(req_ids) if best_mask >> i & 1)
    return DispatchSolution(selected=selected, missed=missed, objective=best_cost)


def check_solution(problem: DispatchProblem, solution: DispatchSolution) -> list[str]:
    """Independent feasibility and objective audit; empty list means ok."""
    violations: list[str] = []
    per_vehicle = problem.plan_set.per_vehicle
    if sorted(solution.selected) != list(per_vehicle):
        violations.append("selected plans do not cover each vehicle exactly once")
    request_ids = {r.id for r in problem.requests}

    coverage: dict[str, int] = {rid: 0 for rid in request_ids}
    recomputed = 0
    for v, plans in per_vehicle.items():
        plan = solution.selected.get(v)
        if plan is None:
            continue
        if plan not in plans:
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
