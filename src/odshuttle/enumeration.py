"""Assignment-plan set construction.

Builds every (vehicle, request-subset) plan with subset size up to the
ride-sharing cap, priced by its marginal waiting: the cost of the
vehicle's :func:`odshuttle.costing.optimal_sequence` with the subset
minus the cost without it, so committed requests never double-bill.
Every vehicle always carries its empty plan (cost 0), so the dispatch
program's one-plan-per-vehicle constraint stays satisfiable.  Plans with
no capacity-respecting sequence are dropped rather than kept at infinite
cost; unserved requests are covered by the miss variables instead.

Plan order is canonical: vehicles by id, subsets by size then
lexicographic request ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .costing import optimal_sequence
from .errors import InstanceTooLargeError
from .network import TravelNetwork
from .types import AssignmentPlan

DEFAULT_MAX_PLANS = 100_000


@dataclass(frozen=True)
class PlanSet:
    """All candidate plans for one dispatch interval, indexed by vehicle."""

    plans: tuple[AssignmentPlan, ...]
    max_new_requests: int
    per_vehicle: dict[str, tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "plans", tuple(self.plans))
        object.__setattr__(self, "per_vehicle", dict(self.per_vehicle))

    def vehicle_plans(self, vehicle: str) -> list[AssignmentPlan]:
        return [self.plans[i] for i in self.per_vehicle[vehicle]]


def plan_count_bound(n_vehicles: int, n_requests: int, cap: int) -> int:
    """Upper bound on |plans|: vehicles times subsets of size 0..cap."""
    per_vehicle = sum(math.comb(n_requests, k) for k in range(0, min(cap, n_requests) + 1))
    return n_vehicles * per_vehicle


def enumerate_plans(
    shuttles,
    requests,
    max_new_requests: int,
    network: TravelNetwork,
    max_plans: int = DEFAULT_MAX_PLANS,
    max_outstanding: int | None = None,
    per_passenger: bool = False,
) -> PlanSet:
    """Enumerate and price all feasible plans.

    ``max_plans`` guards against intractable instances (the count is
    checked before any sequencing work).  ``max_outstanding``, when set,
    skips non-empty plans that would leave a shuttle sequencing more
    than that many requests at once; the rolling-horizon simulator uses
    it to keep per-tick sequencing bounded.  ``per_passenger`` weights
    waiting costs by party size.
    """
    if max_new_requests < 1:
        raise ValueError("max_new_requests must be >= 1")
    shuttles = sorted(shuttles, key=lambda v: v.id)
    requests = sorted(requests, key=lambda r: r.id)
    bound = plan_count_bound(len(shuttles), len(requests), max_new_requests)
    if bound > max_plans:
        raise InstanceTooLargeError(
            f"{len(shuttles)} vehicles x {len(requests)} requests with cap "
            f"{max_new_requests} yields up to {bound} plans (guard {max_plans})"
        )

    plans: list[AssignmentPlan] = []
    per_vehicle: dict[str, list[int]] = {}
    for v in shuttles:
        indices: list[int] = []
        base = optimal_sequence(v, frozenset(), network, per_passenger)
        base_cost = base[0] if base is not None else None
        base_seq = base[1] if base is not None else ()

        indices.append(len(plans))
        plans.append(AssignmentPlan(vehicle=v.id, requests=frozenset(), cost=0, sequence=base_seq))

        committed = len(v.pending_pickups) + len(v.pending_dropoffs)
        infeasible: list[frozenset] = []
        for k in range(1, min(max_new_requests, len(requests)) + 1):
            if max_outstanding is not None and committed + k > max_outstanding:
                break
            for subset in combinations(requests, k):
                if base_cost is None:
                    continue
                group = frozenset(subset)
                # A capacity-infeasible subset stays infeasible with more riders.
                if any(bad <= group for bad in infeasible):
                    continue
                found = optimal_sequence(v, group, network, per_passenger)
                if found is None:
                    infeasible.append(group)
                    continue
                total, seq = found
                indices.append(len(plans))
                plans.append(
                    AssignmentPlan(
                        vehicle=v.id,
                        requests=group,
                        cost=total - base_cost,
                        sequence=seq,
                    )
                )
        per_vehicle[v.id] = tuple(indices)
    return PlanSet(
        plans=tuple(plans), max_new_requests=max_new_requests, per_vehicle=per_vehicle
    )
