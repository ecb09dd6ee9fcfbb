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

A program with one request is an argmin, decided before any setup in
one walk over the vehicles.  The cheapest plan serving the request wins,
on a cost tie the highest-id vehicle's, then that vehicle's lowest rank;
it is selected when its cost is at most the request's penalty, else the
request is missed.  The walk reads a list only while it is well formed:
the empty plan at cost 0, then plans of exactly that request.  At the
first other list, as for any other program, the program is set up, then
searched.  Setup is one pass over the vehicles that, once per distinct
plan tuple object, checks the input contract (the only place it is
checked), masks the plans, keys the vehicle's class by (mask, cost) per
rank and lowers the per-request shares of the bound.  The class rule
compares that content, so equal lists held as separate tuples merge too.

Input contract, as :func:`odshuttle.enumeration.enumerate_plans` builds
it: each vehicle's first plan is its only empty plan, at cost 0, and
every plan covers only the problem's requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .enumeration import PlanSet
from .types import DispatchSolution, TripRequest

DEFAULT_MISS_PENALTY = 3600

_BY_ID = attrgetter("id")


@dataclass(frozen=True)
class DispatchProblem:
    """One dispatch interval: open requests, candidate plans, miss penalties."""

    requests: tuple[TripRequest, ...]
    plan_set: PlanSet
    miss_penalty: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(sorted(self.requests, key=_BY_ID)))
        object.__setattr__(self, "miss_penalty", dict(self.miss_penalty))
        for a, b in zip(self.requests, self.requests[1:]):
            if a.id == b.id:
                raise ValueError(f"request id {a.id} is repeated")
        for r in self.requests:
            penalty = self.miss_penalty.setdefault(r.id, DEFAULT_MISS_PENALTY)
            if penalty < 0:
                raise ValueError(f"request {r.id}: miss penalty must be >= 0")

    def penalty(self, request_id: str) -> int:
        """A request's miss penalty; ``__post_init__`` filled in every default."""
        return self.miss_penalty[request_id]


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

    Plans breaking the module's input contract raise ``ValueError`` in
    setup, before the search.  A one-request program of well-formed lists
    is the argmin the module describes, found before any setup; any other
    is set up and searched.  The search settles the lowest undecided
    request at each step: missed, or served by a plan (whose lowest
    request it is) of a vehicle class with a member still free.  Which
    members serve is decided only at a leaf, by :func:`_selection`;
    vehicles never touched take their first plan, the empty one.

    A node is cut when its cost plus a lower bound exceeds the incumbent
    (strictly, so every tie is still reached): each undecided request
    costs at least the cheaper of its miss penalty and the smallest
    per-request share (plan cost over subset size, rounded down) of any
    plan covering it.  Leaves are ranked by objective, then fewest
    missed, then plan-rank tuple in vehicle-id order, as in the
    brute-force oracle of the test suite.
    """
    per_vehicle = problem.plan_set.per_vehicle
    if len(problem.requests) == 1:
        # The argmin, while each list is well formed.  A plan leads when
        # cheaper than the lead (at first the penalty), or as cheap and its
        # vehicle's first to qualify: a later vehicle wins a tie.
        rid = problem.requests[0].id
        only = frozenset(problem.requests)
        objective = problem.penalty(rid)
        selected, winner = {}, None  # winner: (vehicle, plan)
        for v, plans in per_vehicle.items():
            if not plans or plans[0].requests or plans[0].cost:
                break
            selected[v] = plans[0]
            tie = True
            for plan in plans[1:]:
                if plan.requests != only:
                    break
                if plan.cost < objective or tie and plan.cost == objective:
                    winner, objective, tie = (v, plan), plan.cost, False
            else:
                continue
            break
        else:
            if winner is None:
                return DispatchSolution(selected=selected, missed=frozenset((rid,)), objective=objective)
            selected[winner[0]] = winner[1]
            return DispatchSolution(selected=selected, missed=frozenset(), objective=objective)
        # A list broke the walk: setup below rejects the program or solves it.

    req_ids = [r.id for r in problem.requests]
    bit_of = {rid: 1 << i for i, rid in enumerate(req_ids)}
    penalties = [problem.penalty(rid) for rid in req_ids]
    n_vehicles = len(per_vehicle)
    n_req = len(req_ids)
    full = (1 << n_req) - 1

    # One pass over the vehicles, doing its work once per distinct plan
    # tuple object, at the lowest-id vehicle holding it: check the input
    # contract, key the list by (mask, cost) per rank and put the vehicle in
    # the class of that key.  A new class lowers each request's share and
    # lists its served plans (ranks >= 1) as (cost, class, rank, mask).
    teams: dict[tuple, list[int]] = {}  # class key -> vehicle positions, ascending id
    team_of: dict[int, list[int]] = {}  # id() of a plan tuple -> its class's members
    share = list(penalties)
    served: list[tuple[int, int, int, int]] = []
    for pos, (v, plans) in enumerate(per_vehicle.items()):
        team = team_of.get(id(plans))
        if team is None:
            if not plans:
                raise ValueError(f"vehicle {v} has no plans; the program would be infeasible")
            if plans[0].requests or plans[0].cost:
                raise ValueError(f"vehicle {v}: its first plan must be the empty plan at cost 0")
            key = [(0, 0)]
            for plan in plans[1:]:
                mask = 0
                for r in plan.requests:
                    bit = bit_of.get(r.id)
                    if bit is None:
                        stray = min(q.id for q in plan.requests if q.id not in bit_of)
                        raise ValueError(f"vehicle {v}: a plan covers {stray}, not in the problem")
                    mask |= bit
                if not mask:
                    raise ValueError(f"vehicle {v}: a plan after its first is empty")
                key.append((mask, plan.cost))
            key = tuple(key)
            team = teams.get(key)
            if team is None:
                c = len(teams)
                team = teams[key] = []
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
            team_of[id(plans)] = team
        team.append(pos)
    members = list(teams.values())

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
                sel = _selection(path, members, n_vehicles)
                if best_sel is None:
                    best_sel = _selection(best_path, members, n_vehicles)
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
        best_sel = _selection(best_path, members, n_vehicles)
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
        for rid in sorted(r.id for r in plan.requests):
            if rid not in coverage:
                violations.append(f"plan for {v} serves unknown request {rid}")
            else:
                coverage[rid] += 1
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
