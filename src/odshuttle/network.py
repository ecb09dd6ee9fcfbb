"""Travel-time oracle between stops, region membership and trip typing.

A network is a directed graph of links with traversal seconds, and the
travel time between two stops is the shortest-path time (Dijkstra), so
the triangle inequality holds exactly.  The three constructors differ
only in their links:

* ``euclidean`` / ``manhattan`` -- a link between every ordered pair of
  stops, its time the metric distance over a constant shuttle speed
  rounded up to whole seconds.  Rounding up can make a leg one second
  longer than a detour through a third stop; the shortest path takes
  the detour's time.
* ``graph`` -- the links given, with unlinked pairs possibly unreachable.

Every fault in building a network raises
:class:`~odshuttle.errors.ConfigError` naming its key: ``"stops"`` for
a network with no stops, ``("stops", i)`` for a repeated stop id at
position i, ``("links", i)`` for a link to an unknown stop or with a
time that is not a finite number of seconds >= 0, ``("stops", j)`` for a
metric leg whose distance overflows (j the later of its two stops), and
``"speed"`` for a speed that is not > 0 or so small that a leg
overflows.  So does a stop fault met later, at load or at run time, as
``check_known`` and ``check_reachable`` state it; the latter resolves
every stop before it reads any row, so an unknown one raises ``KeyError``.

Stops are numbered by sorted id (``index``/``ids``), so comparing index
sequences orders them as the id sequences would.  Travel times live in
one ``list`` row per source stop, indexed by destination and filled on
first use by one Dijkstra run (:meth:`TravelNetwork.row`), which marks
unreachable stops ``None``.  ``strongly_connected``, computed once from
the links on first use, says whether no stop is unreachable from any
other.  ``latencies`` memoizes :mod:`odshuttle.costing`'s time-free
pickup-order latencies, keyed by heading stop and per-stop weights; like
a row, an entry is filled on first use and shared by every run on the
network.  Networks are immutable after construction, and filling a row,
the flag or a latency is idempotent (the same key always gets the same
value), so concurrent readers are fine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import ConfigError
from .types import Stop, StopId, TripRequest

EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"
GRAPH = "graph"


class TripType(Enum):
    """How a trip relates to the shuttle region (see :func:`classify_trip`)."""

    INTRA_REGION = "intra"
    OUTBOUND_CONNECTOR = "outbound"
    INBOUND_CONNECTOR = "inbound"


class TravelNetwork:
    """Immutable stop set plus a shortest-path travel-time oracle.

    Use the :meth:`euclidean`, :meth:`manhattan` or :meth:`graph`
    constructors rather than ``__init__`` directly.
    """

    def __init__(self, stops, links):
        self.stops: dict[StopId, Stop] = {}
        for i, stop in enumerate(stops):
            if stop.id in self.stops:
                raise ConfigError(f"duplicate stop id {stop.id}", ("stops", i))
            self.stops[stop.id] = stop
        if not self.stops:
            raise ConfigError("network has no stops", "stops")
        self.ids: tuple[StopId, ...] = tuple(sorted(self.stops))
        self.index: dict[StopId, int] = {stop: i for i, stop in enumerate(self.ids)}
        self._rows: list[list[int | None] | None] = [None] * len(self.ids)
        # Time-free pickup-order latencies, filled on first use by costing.
        self.latencies: dict[tuple[int, ...], int] = {}
        self._adj: list[list[tuple[int, int]]] = [[] for _ in self.ids]
        for i, (a, b, seconds) in enumerate(links):
            for stop in (a, b):
                if stop not in self.stops:
                    raise ConfigError(f"link names unknown stop {stop!r}", ("links", i))
            if not 0 <= seconds < math.inf:
                raise ConfigError(f"link {a}->{b}: traversal time {seconds} is not a finite "
                                  "number of seconds >= 0", ("links", i))
            self._adj[self.index[a]].append((self.index[b], int(math.ceil(seconds))))

    @classmethod
    def euclidean(cls, stops, speed: float) -> "TravelNetwork":
        return cls._metric(stops, speed, lambda a, b: math.hypot(a.x - b.x, a.y - b.y))

    @classmethod
    def manhattan(cls, stops, speed: float) -> "TravelNetwork":
        return cls._metric(stops, speed, lambda a, b: abs(a.x - b.x) + abs(a.y - b.y))

    @classmethod
    def graph(cls, stops, links) -> "TravelNetwork":
        return cls(stops, links)

    @classmethod
    def _metric(cls, stops, speed: float, distance) -> "TravelNetwork":
        """The complete graph of ceil'd ``distance / speed`` legs; faults as in the module docstring."""
        if not speed > 0:
            raise ConfigError(f"a metric network needs a positive speed (m/s), not {speed}",
                              "speed")
        stops = list(stops)
        legs = [(a, b, distance(a, b) / speed) for a in stops for b in stops if a is not b]
        for a, b, seconds in legs:
            if not math.isfinite(seconds):
                at_fault = "speed"
                if math.isinf(distance(a, b)):  # the later of the two stops
                    at_fault = ("stops", max(i for i, s in enumerate(stops) if s is a or s is b))
                raise ConfigError(f"leg {a.id}->{b.id} at {speed} m/s is not a finite "
                                  "number of seconds", at_fault)
        return cls(stops, [(a.id, b.id, seconds) for a, b, seconds in legs])

    def stop_ids(self) -> list[StopId]:
        return list(self.ids)

    def travel_time(self, a: StopId, b: StopId) -> int:
        """Seconds to travel from ``a`` to ``b`` (0 when a == b).  A stop fault raises as
        :meth:`check_known` (``a`` first, keyed by the stop) or :meth:`check_reachable` does."""
        try:
            seconds = self.row(self.index[a])[self.index[b]]
        except KeyError:  # only an index lookup misses
            self.check_known((stop, stop) for stop in (a, b))
        if seconds is None:
            raise _unreached(a, b)
        return seconds

    def row(self, source: int) -> list[int | None]:
        """Seconds from stop ``ids[source]`` to every stop, by index.

        ``None`` marks a stop with no path from the source (graph mode
        only).  The row is shared: callers must not modify it.
        """
        row = self._rows[source]
        if row is None:
            row = self._rows[source] = self._shortest_paths(source)
        return row

    @cached_property
    def strongly_connected(self) -> bool:
        """Whether every stop reaches every other one.

        Computed once, from the links: every stop is reached from stop 0
        and reaches stop 0 back.  A euclidean or manhattan network links
        every ordered pair, so it always is; so is a network of one stop.
        """
        forward = [[b for b, _ in out] for out in self._adj]
        reverse: list[list[int]] = [[] for _ in self.ids]
        for a, out in enumerate(forward):
            for b in out:
                reverse[b].append(a)
        for adjacent in (forward, reverse):
            seen = [i == 0 for i in range(len(self.ids))]
            todo = [0]
            while todo:
                for b in adjacent[todo.pop()]:
                    if not seen[b]:
                        seen[b] = True
                        todo.append(b)
            if not all(seen):
                return False
        return True

    def check_known(self, named) -> None:
        """Raise ``ConfigError`` naming ``at`` for the first ``(at, stop)`` off the
        network, without the context of a failed index lookup a caller handles."""
        for at, stop in named:
            if stop not in self.index:
                raise ConfigError(f"unknown stop {stop!r}", at) from None

    def check_reachable(self, stops) -> None:
        """Raise ``ConfigError`` naming ``("network", b)`` for the first pair of ``stops``,
        by id, whose stop b cannot be reached from its stop a.  Every stop is resolved
        first, on every network, so an unknown one raises ``KeyError`` before any row
        is read and before any missing leg."""
        indices = sorted({self.index[stop] for stop in stops})  # index order is id order
        for a in [] if self.strongly_connected else indices:
            row = self.row(a)
            for b in indices:
                if row[b] is None:
                    raise _unreached(self.ids[a], self.ids[b])

    def _shortest_paths(self, source: int) -> list[int | None]:
        dist: list[int | None] = [None] * len(self.ids)
        dist[source] = 0
        heap: list[tuple[int, int]] = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u]:
                nd = d + w
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist


def _unreached(a: StopId, b: StopId) -> ConfigError:
    """The fault of a stop ``b`` that stop ``a`` cannot reach."""
    return ConfigError(f"stop {b} cannot be reached from stop {a}", ("network", b))


@dataclass(frozen=True)
class Region:
    """A geofenced service area plus its fixed-route gateway stations."""

    member_stops: frozenset[StopId]
    gateway_stations: frozenset[StopId] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "member_stops", frozenset(self.member_stops))
        object.__setattr__(self, "gateway_stations", frozenset(self.gateway_stations))
        overlap = sorted(self.member_stops & self.gateway_stations)
        if overlap:
            raise ConfigError(f"stops cannot be both member and gateway: {', '.join(overlap)}",
                              *overlap)


def classify_trip(request: TripRequest, region: Region) -> TripType:
    """Classify a request by where its endpoints sit relative to the region.

    in->in is an intra-region trip, in->gateway is an outbound connector,
    gateway->in is an inbound connector.  Anything else is not a
    shuttle-serviceable trip and raises ``ValueError``.
    """
    p_in = request.pickup in region.member_stops
    d_in = request.dropoff in region.member_stops
    p_gw = request.pickup in region.gateway_stations
    d_gw = request.dropoff in region.gateway_stations
    if not (p_in or p_gw):
        raise ValueError(f"request {request.id}: pickup {request.pickup} is outside the region and its gateways")
    if not (d_in or d_gw):
        raise ValueError(f"request {request.id}: dropoff {request.dropoff} is outside the region and its gateways")
    if p_in and d_in:
        return TripType.INTRA_REGION
    if p_in and d_gw:
        return TripType.OUTBOUND_CONNECTOR
    if p_gw and d_in:
        return TripType.INBOUND_CONNECTOR
    raise ValueError(f"request {request.id}: gateway-to-gateway trips are not shuttle-serviceable")
