"""Travel-time oracle between stops, region membership and trip typing.

Three network modes:

* ``euclidean`` / ``manhattan`` -- travel time is metric distance over a
  constant shuttle speed, rounded up to whole seconds.  Rounding the
  float distance up can make a detour one second shorter than the
  direct trip, so the triangle inequality holds only to within 1 s.
* ``graph`` -- directed links with traversal seconds; travel time is the
  shortest-path time (Dijkstra), so the triangle inequality holds by
  construction.

Stops are numbered by sorted id (``index``/``ids``), so comparing index
sequences orders them as the id sequences would.  Travel times live in
one ``list`` row per source stop, indexed by destination and filled on
first use (:meth:`TravelNetwork.row`); graph mode fills a row with one
Dijkstra run and marks unreachable stops ``None``.  Networks are
immutable after construction and filling a row is idempotent, so
concurrent readers are fine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

from .errors import UnknownStopError, UnreachableStopError
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
    """Immutable stop set plus a travel-time oracle.

    Use the :meth:`euclidean`, :meth:`manhattan` or :meth:`graph`
    constructors rather than ``__init__`` directly.
    """

    def __init__(self, stops, mode: str, speed: float | None = None, links=None):
        stop_list = list(stops)
        ids = [s.id for s in stop_list]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate stop ids: {', '.join(dupes)}")
        self.stops: dict[StopId, Stop] = {s.id: s for s in stop_list}
        self.mode = mode
        self.speed = speed
        self.ids: tuple[StopId, ...] = tuple(sorted(self.stops))
        self.index: dict[StopId, int] = {stop: i for i, stop in enumerate(self.ids)}
        self._rows: list[list[int | None] | None] = [None] * len(self.ids)
        self._adj: list[list[tuple[int, int]]] = [[] for _ in self.ids]

        if mode in (EUCLIDEAN, MANHATTAN):
            if speed is None or speed <= 0:
                raise ValueError(f"{mode} mode needs a positive speed (m/s)")
            if links:
                raise ValueError(f"{mode} mode takes no links")
        elif mode == GRAPH:
            for a, b, seconds in links or ():
                if a not in self.stops or b not in self.stops:
                    raise UnknownStopError(f"link {a}->{b}: unknown stop")
                if seconds < 0:
                    raise ValueError(f"link {a}->{b}: negative traversal time")
                self._adj[self.index[a]].append((self.index[b], int(math.ceil(seconds))))
        else:
            raise ValueError(f"unknown network mode {mode!r}")

    @classmethod
    def euclidean(cls, stops, speed: float) -> "TravelNetwork":
        return cls(stops, EUCLIDEAN, speed=speed)

    @classmethod
    def manhattan(cls, stops, speed: float) -> "TravelNetwork":
        return cls(stops, MANHATTAN, speed=speed)

    @classmethod
    def graph(cls, stops, links) -> "TravelNetwork":
        return cls(stops, GRAPH, links=links)

    def has_stop(self, stop: StopId) -> bool:
        return stop in self.stops

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
            row = self._rows[source] = self._fill(source)
        return row

    def _fill(self, source: int) -> list[int | None]:
        if self.mode == GRAPH:
            return self._shortest_paths(source)
        a = self.stops[self.ids[source]]
        points = [self.stops[stop] for stop in self.ids]
        if self.mode == EUCLIDEAN:
            return [math.ceil(math.hypot(a.x - b.x, a.y - b.y) / self.speed) for b in points]
        return [math.ceil((abs(a.x - b.x) + abs(a.y - b.y)) / self.speed) for b in points]

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
        overlap = self.member_stops & self.gateway_stations
        if overlap:
            raise ValueError(f"stops cannot be both member and gateway: {sorted(overlap)}")


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
