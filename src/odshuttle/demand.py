"""Seeded synthetic demand for a shuttle region.

Arrivals follow a non-homogeneous Poisson process over a piecewise-
constant hourly rate, realized by thinning: candidate arrivals are drawn
at the peak rate and accepted with probability rate(t)/peak.  Each
accepted arrival draws a trip type from the configured mix and samples
endpoints from spatial weights so that the request classifies as drawn.

Everything is driven by one ``random.Random(seed)`` with a fixed draw
order, so a seed fully determines the request list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .network import Region, TripType
from .types import TripRequest

RATE_EPS = 1e-12


@dataclass(frozen=True)
class DemandProfile:
    """Arrival intensity, trip-type mix and endpoint weights.

    ``rates`` are ``(start_second, end_second, requests_per_hour)``
    pieces that may not overlap (each end is exclusive, so adjacent
    pieces are fine); gaps between pieces mean zero demand.  ``mix``
    orders as (intra-region, outbound connector, inbound connector) and
    must sum to 1.  Stop weights default to uniform over the region's
    sets.
    """

    rates: tuple[tuple[int, int, float], ...]
    mix: tuple[float, float, float] = (1.0, 0.0, 0.0)
    member_weights: dict[str, float] = field(default_factory=dict)
    gateway_weights: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(tuple(p) for p in self.rates))
        object.__setattr__(self, "mix", tuple(self.mix))
        object.__setattr__(self, "member_weights", dict(self.member_weights))
        object.__setattr__(self, "gateway_weights", dict(self.gateway_weights))
        for start, end, per_hour in self.rates:
            if per_hour < 0:
                raise ValueError(f"negative arrival rate on [{start}, {end})")
            if end <= start:
                raise ValueError(f"empty rate interval [{start}, {end})")
        ordered = sorted(self.rates)
        for (start, end, _), (later, later_end, _) in zip(ordered, ordered[1:]):
            if later < end:
                raise ValueError(f"rate intervals [{start}, {end}) and "
                                 f"[{later}, {later_end}) overlap")
        if len(self.mix) != 3 or any(f < 0 for f in self.mix):
            raise ValueError("mix needs three non-negative fractions")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ValueError(f"mix fractions sum to {sum(self.mix)}, not 1")

    def rate_at(self, t: float) -> float:
        for start, end, per_hour in self.rates:
            if start <= t < end:
                return per_hour
        return 0.0

    def peak_rate(self) -> float:
        return max((per_hour for _, _, per_hour in self.rates), default=0.0)


def _weighted_choice(rng: random.Random, items: list[str], weights: dict[str, float]) -> str:
    if not weights:
        return items[int(rng.random() * len(items)) % len(items)]
    total = sum(weights.get(s, 1.0) for s in items)
    target = rng.random() * total
    acc = 0.0
    for s in items:
        acc += weights.get(s, 1.0)
        if target < acc:
            return s
    return items[-1]


def check_drawable(profile: DemandProfile, region: Region) -> None:
    """Raise ``ValueError`` when a nonzero mix fraction has no stops to draw
    from: intra trips need two member stops, connectors a member stop and
    a gateway."""
    intra, outbound, inbound = profile.mix
    if intra > 0 and len(region.member_stops) < 2:
        raise ValueError("intra-region demand needs at least two member stops")
    if (outbound > 0 or inbound > 0) and not (region.member_stops and region.gateway_stations):
        raise ValueError("connector demand needs member stops and gateway stations")


def generate_demand(profile: DemandProfile, region: Region, horizon: int) -> list[TripRequest]:
    """Materialize a request list over [0, horizon), sorted by request time.

    Raises ``ValueError`` when the region cannot supply the mix
    (:func:`check_drawable`).
    """
    check_drawable(profile, region)
    members = sorted(region.member_stops)
    gateways = sorted(region.gateway_stations)
    intra, outbound, inbound = profile.mix

    rng = random.Random(profile.seed)
    peak = profile.peak_rate()
    requests: list[TripRequest] = []
    if peak <= RATE_EPS or horizon <= 0:
        return requests

    peak_per_second = peak / 3600.0
    t = 0.0
    n = 0
    while True:
        t += rng.expovariate(peak_per_second)
        if t >= horizon:
            break
        if rng.random() * peak > profile.rate_at(t):
            continue  # thinned out
        roll = rng.random()
        if roll < intra:
            trip_type = TripType.INTRA_REGION
        elif roll < intra + outbound:
            trip_type = TripType.OUTBOUND_CONNECTOR
        else:
            trip_type = TripType.INBOUND_CONNECTOR

        if trip_type is TripType.INTRA_REGION:
            pickup = _weighted_choice(rng, members, profile.member_weights)
            rest = [s for s in members if s != pickup]
            dropoff = _weighted_choice(rng, rest, profile.member_weights)
        elif trip_type is TripType.OUTBOUND_CONNECTOR:
            pickup = _weighted_choice(rng, members, profile.member_weights)
            dropoff = _weighted_choice(rng, gateways, profile.gateway_weights)
        else:
            pickup = _weighted_choice(rng, gateways, profile.gateway_weights)
            dropoff = _weighted_choice(rng, members, profile.member_weights)

        n += 1
        requests.append(
            TripRequest(
                id=f"r{n:06d}",
                pickup=pickup,
                dropoff=dropoff,
                request_time=int(t),
                passengers=1,
            )
        )
    requests.sort(key=lambda r: (r.request_time, r.id))
    return requests
