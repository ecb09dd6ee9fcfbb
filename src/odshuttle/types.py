"""Core domain types shared by every module.

All types are immutable value objects: construction validates local
invariants and raises ``ValueError`` instead of repairing bad input.
Cross-object checks need a travel network to resolve against, so the
objects that hold one make them: ``TravelNetwork`` rejects duplicate stop
ids and links to unknown stops, and ``ScenarioConfig`` rejects any stop its
parts name outside its network or out of a shuttle's reach.

Times are integer seconds since scenario start; durations are integer
seconds rounded up wherever they come out of a distance computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

StopId = str


@dataclass(frozen=True)
class Stop:
    """A named point in the planar network (coordinates in meters)."""

    id: StopId
    x: float
    y: float

    def __post_init__(self):
        if not self.id:
            raise ValueError("stop id must be non-empty")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"stop {self.id}: coordinates must be finite")


@dataclass(frozen=True)
class TripRequest:
    """A passenger demand: travel from ``pickup`` to ``dropoff``.

    ``passengers`` defaults to 1.  Waiting costs are accumulated per
    request unless the scenario sets ``waiting_per_passenger``, which
    weights each request's waiting by its party size.
    """

    id: str
    pickup: StopId
    dropoff: StopId
    request_time: int
    passengers: int = 1

    def __post_init__(self):
        if not self.id:
            raise ValueError("request id must be non-empty")
        if self.pickup == self.dropoff:
            raise ValueError(f"request {self.id}: pickup equals dropoff ({self.pickup})")
        if self.request_time < 0:
            raise ValueError(f"request {self.id}: request_time must be >= 0")
        if self.passengers < 1:
            raise ValueError(f"request {self.id}: passengers must be >= 1")

    def __hash__(self):
        # Equal requests have equal ids, and a str caches its own hash, so
        # this is cheaper than the generated hash of all five fields.
        return hash(self.id)


@dataclass(frozen=True)
class ShuttleState:
    """A vehicle's committed position and outstanding work.

    ``heading_stop``/``arrival_time`` are the stop the shuttle is
    currently directed at and when it gets there; an idle shuttle heads
    at its own location with arrival "now".  ``pending_pickups`` are
    requests promised but not yet aboard; ``pending_dropoffs`` are
    aboard and awaiting their destination, so the onboard passenger
    count is derived from them.
    """

    id: str
    heading_stop: StopId
    arrival_time: int
    pending_pickups: frozenset[TripRequest] = frozenset()
    pending_dropoffs: frozenset[TripRequest] = frozenset()
    capacity: int = 8

    def __post_init__(self):
        # Accept any iterable for the two request sets.
        if type(self.pending_pickups) is not frozenset:
            object.__setattr__(self, "pending_pickups", frozenset(self.pending_pickups))
        if type(self.pending_dropoffs) is not frozenset:
            object.__setattr__(self, "pending_dropoffs", frozenset(self.pending_dropoffs))
        if not self.id:
            raise ValueError("shuttle id must be non-empty")
        if self.capacity < 1:
            raise ValueError(f"shuttle {self.id}: capacity must be >= 1")
        if self.pending_pickups & self.pending_dropoffs:
            raise ValueError(f"shuttle {self.id}: a request cannot await pickup and dropoff at once")
        if self.onboard > self.capacity:
            raise ValueError(
                f"shuttle {self.id}: onboard {self.onboard} exceeds capacity {self.capacity}"
            )

    @property
    def onboard(self) -> int:
        """Passengers currently riding: everyone picked up and not yet dropped off."""
        return sum(r.passengers for r in self.pending_dropoffs)

    def retimed(self, arrival_time: int) -> ShuttleState:
        """This state arriving at ``arrival_time`` instead, equal to the constructor's.

        None of the constructor's checks reads the arrival time, so the copy
        skips them.  It sets the fields one by one, in declaration order, as
        the generated ``__init__`` does: copying ``__dict__`` wholesale would
        give both states a materialized dict, which makes every attribute
        read on them (sequencing reads many) about twice as slow.
        """
        copy = object.__new__(type(self))
        put = object.__setattr__
        put(copy, "id", self.id)
        put(copy, "heading_stop", self.heading_stop)
        put(copy, "arrival_time", arrival_time)
        put(copy, "pending_pickups", self.pending_pickups)
        put(copy, "pending_dropoffs", self.pending_dropoffs)
        put(copy, "capacity", self.capacity)
        return copy


@dataclass(frozen=True)
class AssignmentPlan:
    """One column of the dispatch program: a request subset for a vehicle.

    It names no vehicle: its owner is the vehicle whose plan list holds
    it.  ``cost`` is the marginal passenger waiting (seconds) of adding
    ``requests`` to the vehicle's existing commitments; ``sequence`` is
    the stop ordering that realizes it, covering the vehicle's old and
    new work.  The empty plan (no new requests) always costs 0.
    """

    requests: frozenset[TripRequest]
    cost: int
    sequence: tuple[StopId, ...] = ()

    def __post_init__(self):
        if type(self.requests) is not frozenset:
            object.__setattr__(self, "requests", frozenset(self.requests))
        if type(self.sequence) is not tuple:
            object.__setattr__(self, "sequence", tuple(self.sequence))
        if self.cost < 0:
            raise ValueError("plan cost must be >= 0")

    @property
    def request_ids(self) -> tuple[str, ...]:
        return tuple(sorted(r.id for r in self.requests))


@dataclass(frozen=True)
class DispatchSolution:
    """Outcome of one dispatch interval: one plan per vehicle plus the missed set."""

    selected: dict[str, AssignmentPlan]
    missed: frozenset[str]
    objective: int

    def __post_init__(self):
        object.__setattr__(self, "selected", dict(self.selected))
        object.__setattr__(self, "missed", frozenset(self.missed))
