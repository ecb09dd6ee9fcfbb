"""Assignment-plan set construction.

Builds every (vehicle, request-subset) plan with subset size up to the
ride-sharing cap, priced by its marginal waiting: the cost of the
vehicle's :func:`odshuttle.costing.optimal_sequence` with the subset
minus the cost without it, so committed requests never double-bill.
Each vehicle gets its own plan list, which starts with its empty plan,
at cost 0; no other plan of it is empty, and every plan covers only the
given requests.  This is the input contract
:func:`odshuttle.solver.solve_dispatch` checks, and it keeps the
one-plan-per-vehicle constraint satisfiable.  A vehicle whose committed
work alone has no feasible sequence gets its empty plan only.  Plans with
no capacity-respecting sequence are dropped rather than kept at infinite
cost; unserved requests are covered by the miss variables instead.

Plan order is canonical: vehicles by id, subsets by size then
lexicographic request ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

from .costing import optimal_sequence
from .errors import InstanceTooLargeError
from .network import TravelNetwork
from .types import AssignmentPlan

MAX_PLANS = 100_000


@dataclass(frozen=True)
class PlanSet:
    """Each vehicle's candidate plans, empty plan first, in vehicle-id order.

    ``plans`` is every vehicle's list concatenated in that order; a plan's
    index there is its vehicle's offset plus its rank in the list.
    """

    per_vehicle: dict[str, tuple[AssignmentPlan, ...]]
    plans: tuple[AssignmentPlan, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "per_vehicle", dict(sorted(self.per_vehicle.items())))
        object.__setattr__(self, "plans", tuple(chain.from_iterable(self.per_vehicle.values())))


def plan_count_bound(n_vehicles: int, n_requests: int, cap: int) -> int:
    """Upper bound on |plans|: vehicles times subsets of size 0..cap."""
    per_vehicle = sum(math.comb(n_requests, k) for k in range(0, min(cap, n_requests) + 1))
    return n_vehicles * per_vehicle


def enumerate_plans(
    shuttles,
    requests,
    max_new_requests: int,
    network: TravelNetwork,
    max_outstanding: int | None = None,
    per_passenger: bool = False,
) -> PlanSet:
    """Enumerate and price all feasible plans.

    Instances whose :func:`plan_count_bound` exceeds ``MAX_PLANS`` raise
    ``InstanceTooLargeError`` before any sequencing work.
    ``max_outstanding``, when set, skips non-empty plans that would leave
    a shuttle sequencing more than that many requests at once; the
    rolling-horizon simulator uses it to keep per-tick sequencing
    bounded.  ``per_passenger`` weights waiting costs by party size.
    """
    if max_new_requests < 1:
        raise ValueError("max_new_requests must be >= 1")
    shuttles = sorted(shuttles, key=lambda v: v.id)
    requests = sorted(requests, key=lambda r: r.id)
    bound = plan_count_bound(len(shuttles), len(requests), max_new_requests)
    if bound > MAX_PLANS:
        raise InstanceTooLargeError(
            f"{len(shuttles)} vehicles x {len(requests)} requests with cap "
            f"{max_new_requests} yields up to {bound} plans (guard {MAX_PLANS})"
        )

    per_vehicle: dict[str, tuple[AssignmentPlan, ...]] = {}
    for v in shuttles:
        base = optimal_sequence(v, frozenset(), network, per_passenger)
        base_cost, base_seq = base if base is not None else (0, ())
        plans = [AssignmentPlan(requests=frozenset(), cost=0, sequence=base_seq)]

        # With no feasible sequence for its committed work alone, a vehicle
        # gets its empty plan only.
        largest = min(max_new_requests, len(requests)) if base is not None else 0
        if max_outstanding is not None:
            committed = len(v.pending_pickups) + len(v.pending_dropoffs)
            largest = min(largest, max_outstanding - committed)
        infeasible: list[frozenset] = []
        for k in range(1, largest + 1):
            for subset in combinations(requests, k):
                group = frozenset(subset)
                # A capacity-infeasible subset stays infeasible with more riders.
                if any(bad <= group for bad in infeasible):
                    continue
                found = optimal_sequence(v, group, network, per_passenger)
                if found is None:
                    infeasible.append(group)
                    continue
                total, seq = found
                plans.append(AssignmentPlan(requests=group, cost=total - base_cost, sequence=seq))
        per_vehicle[v.id] = tuple(plans)
    return PlanSet(per_vehicle)
