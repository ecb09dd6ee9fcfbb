"""Assignment-plan set construction.

Builds every (vehicle, request-subset) plan with subset size up to the
ride-sharing cap, priced by its marginal waiting: the
:func:`odshuttle.costing.optimal_cost` of the vehicle with the subset
minus the cost without it, so committed requests never double-bill.
A plan is a priced column of the dispatch program and holds no route;
:func:`plan_route` finds the route of a plan that is committed or
printed.  Each vehicle gets its own plan list, which starts with the
shared empty plan, at cost 0; no other plan of it is empty, and every
plan covers only the given requests.  This is the input contract
:func:`odshuttle.solver.solve_dispatch` checks, and it keeps the
one-plan-per-vehicle constraint satisfiable.  A vehicle whose committed
work alone has no feasible sequence gets its empty plan only.  Plans with
no capacity-respecting sequence are dropped rather than kept at infinite
cost; unserved requests are covered by the miss variables instead.

Plans name no vehicle and depend only on the vehicle's state (heading
stop, arrival time, committed pickups and riders, capacity), so vehicles
of equal state are priced once and share one plan tuple object.

Plan order is canonical: vehicles by id, subsets by size then
lexicographic request ids.

A pass prices distinct shuttle states times request subsets.  It builds
each subset once, as its frozenset and its
:func:`~odshuttle.costing.pack_pickups`, and each state's
:func:`~odshuttle.costing.pack_state` once; every (state, subset) price
is one :func:`~odshuttle.costing.packed_cost` of the two packs, which
runs the route search only where capacity could bind or a pickup is
dated after the shuttle's arrival time.  So the price equals
``optimal_cost`` of the vehicle and subset, and raises what that raises.
One pass over the vehicles in id order prices each state when its
lowest-id vehicle is met, empty subset first, and fills ``per_vehicle``
in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

from .costing import optimal_sequence, pack_pickups, pack_state, packed_cost
from .errors import InstanceTooLargeError
from .network import TravelNetwork
from .types import AssignmentPlan, ShuttleState, StopId

MAX_PLANS = 100_000

_NO_REQUESTS: frozenset = frozenset()
# The empty plan of every vehicle.
_EMPTY_PLAN = AssignmentPlan(_NO_REQUESTS, 0)


@dataclass(frozen=True)
class PlanSet:
    """Each vehicle's candidate plans, empty plan first, in vehicle-id order.

    Vehicles of equal state map to the same tuple object.
    """

    per_vehicle: dict[str, tuple[AssignmentPlan, ...]]

    def __post_init__(self):
        object.__setattr__(self, "per_vehicle", dict(sorted(self.per_vehicle.items())))

    @property
    def plans(self) -> tuple[AssignmentPlan, ...]:
        """Every vehicle's list concatenated in vehicle-id order, built on each read."""
        return tuple(chain.from_iterable(self.per_vehicle.values()))


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
    for a, b in zip(shuttles, shuttles[1:]):
        if a.id == b.id:
            raise ValueError(f"shuttle id {a.id} is repeated")
    requests = sorted(requests, key=lambda r: r.id)
    bound = plan_count_bound(len(shuttles), len(requests), max_new_requests)
    if bound > MAX_PLANS:
        raise InstanceTooLargeError(
            f"{len(shuttles)} vehicles x {len(requests)} requests with cap "
            f"{max_new_requests} yields up to {bound} plans (guard {MAX_PLANS})"
        )

    # Every subset of up to the cap, the empty one first, then by size and
    # ids, with its pickup pack: built once per pass, priced against each
    # state.  ends[k] counts the subsets of up to k requests.
    subsets = [(_NO_REQUESTS, pack_pickups(_NO_REQUESTS, network, per_passenger))]
    ends = [1]
    for k in range(1, min(max_new_requests, len(requests)) + 1):
        for subset in combinations(requests, k):
            group = frozenset(subset)
            subsets.append((group, pack_pickups(group, network, per_passenger)))
        ends.append(len(subsets))
    # A group of equal states is priced when its lowest-id member is met,
    # so an error names the vehicle it would name were every vehicle
    # priced on its own.
    plans_of: dict[tuple, tuple[AssignmentPlan, ...]] = {}
    per_vehicle: dict[str, tuple[AssignmentPlan, ...]] = {}
    for v in shuttles:
        key = (v.heading_stop, v.arrival_time, v.pending_pickups, v.pending_dropoffs, v.capacity)
        shared = plans_of.get(key)
        if shared is None:
            shared = plans_of[key] = _vehicle_plans(v, subsets, ends, network, max_outstanding,
                                                    per_passenger)
        per_vehicle[v.id] = shared
    return PlanSet(per_vehicle)


def _vehicle_plans(
    v: ShuttleState,
    subsets: list[tuple[frozenset, tuple | None]],
    ends: list[int],
    network: TravelNetwork,
    max_outstanding: int | None,
    per_passenger: bool,
) -> tuple[AssignmentPlan, ...]:
    """``v``'s plans, empty plan first, for the ``subsets`` it may take."""
    state = pack_state(v, network, per_passenger)
    empty, no_pickups = subsets[0]
    base_cost = packed_cost(v, state, empty, no_pickups, network, per_passenger)
    # With no feasible sequence for its committed work alone, a vehicle gets
    # its empty plan only.
    if base_cost is None:
        return (_EMPTY_PLAN,)
    plans = [_EMPTY_PLAN]
    cap = len(ends) - 1
    if max_outstanding is not None:
        cap = max(0, min(cap, max_outstanding - len(v.pending_pickups) - len(v.pending_dropoffs)))
    for group, pickups in islice(subsets, 1, ends[cap]):
        cost = packed_cost(v, state, group, pickups, network, per_passenger)
        if cost is not None:
            plans.append(AssignmentPlan(group, cost - base_cost))
    return tuple(plans)


def plan_route(
    v: ShuttleState, plan: AssignmentPlan, network: TravelNetwork, per_passenger: bool = False
) -> tuple[StopId, ...]:
    """The stop route of ``plan`` for ``v``: its old and new work, as priced.

    That is :func:`~odshuttle.costing.optimal_sequence`'s route for the
    plan's requests, or ``()`` when not even ``v``'s committed work has
    a feasible sequence.
    """
    found = optimal_sequence(v, plan.requests, network, per_passenger)
    return () if found is None else found[1]
