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
  A link time that is not a finite number of seconds >= 0 raises
  :class:`~odshuttle.errors.LegTimeError` naming the link's position.

A repeated stop id raises :class:`~odshuttle.errors.ConfigError` naming
its position, and a link to an unknown stop ``UnknownStopError(stop)``.

Stops are numbered by sorted id (``index``/``ids``), so comparing index
sequences orders them as the id sequences would.  Travel times live in
one ``list`` row per source stop, indexed by destination and filled on
first use by one Dijkstra run (:meth:`TravelNetwork.row`), which marks
unreachable stops ``None``.  Networks are immutable after construction
and filling a row is idempotent, so concurrent readers are fine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, LegTimeError, UnknownStopError, UnreachableStopError
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
        self.ids: tuple[StopId, ...] = tuple(sorted(self.stops))
        self.index: dict[StopId, int] = {stop: i for i, stop in enumerate(self.ids)}
        self._rows: list[list[int | None] | None] = [None] * len(self.ids)
        self._adj: list[list[tuple[int, int]]] = [[] for _ in self.ids]
        for i, (a, b, seconds) in enumerate(links):
            for stop in (a, b):
                if stop not in self.stops:
                    raise UnknownStopError(stop)
            if not 0 <= seconds < math.inf:
                raise LegTimeError(f"link {a}->{b}: traversal time {seconds} is not a finite "
                                   "number of seconds >= 0", a, b, link=i)
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
        """The complete graph of ceil'd ``distance / speed`` legs.

        Raises :class:`LegTimeError` (a ``ValueError``) for a speed that is
        not positive or a leg that is not a finite number of seconds.
        """
        if not speed > 0:
            raise LegTimeError(f"a metric network needs a positive speed (m/s), not {speed}")
        stops = list(stops)
        legs = [(a, b, distance(a, b) / speed) for a in stops for b in stops if a is not b]
        for a, b, seconds in legs:
            if not math.isfinite(seconds):
                at_fault = (a.id, b.id) if math.isinf(distance(a, b)) else ()
                raise LegTimeError(f"leg {a.id}->{b.id} at {speed} m/s is not a finite "
                                   "number of seconds", *at_fault)
        return cls(stops, [(a.id, b.id, seconds) for a, b, seconds in legs])

    def stop_ids(self) -> list[StopId]:
        return list(self.ids)

    def travel_time(self, a: StopId, b: StopId) -> int:
        """Seconds to travel from ``a`` to ``b`` (0 when a == b)."""
        if a not in self.index:
            raise UnknownStopError(a)
        if b not in self.index:
            raise UnknownStopError(b)
        seconds = self.row(self.index[a])[self.index[b]]
        if seconds is None:
            raise UnreachableStopError(f"no path from {a} to {b}")
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
