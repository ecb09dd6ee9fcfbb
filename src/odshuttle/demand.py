"""Seeded synthetic demand for a shuttle region.

Arrivals follow a non-homogeneous Poisson process over a piecewise-
constant hourly rate, realized by thinning: candidate arrivals are drawn
at the peak rate and accepted with probability rate(t)/peak.  Each
accepted arrival rolls the configured mix for an origin set and a
destination set -- members to members (intra-region), members to
gateways (outbound) or gateways to members (inbound) -- then draws its
pickup from the origins and its drop-off from the destinations other
than the pickup, both by the spatial weights.  The trip type is not
kept: :func:`~odshuttle.network.classify_trip` reads it off the stops.

Everything is driven by one ``random.Random(seed)`` with a fixed draw
order, so a seed fully determines the request list.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from .errors import ConfigError
from .network import Region
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
    sets; a stop weighted 0 is never drawn.  Each set's weights must sum
    to a finite number, or no draw could compare against the sum.
    A bad value raises ``ConfigError`` naming its field, ``(field, stop)``
    for a negative weight, or ``("rates", i)`` for the first piece that is
    negative, empty or overlaps an earlier one.
    """

    rates: tuple[tuple[int, int, float], ...]
    mix: tuple[float, float, float] = (1.0, 0.0, 0.0)
    member_weights: dict[str, float] = field(default_factory=dict)
    gateway_weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(tuple(p) for p in self.rates))
        object.__setattr__(self, "mix", tuple(self.mix))
        object.__setattr__(self, "member_weights", dict(self.member_weights))
        object.__setattr__(self, "gateway_weights", dict(self.gateway_weights))
        earlier = []  # the pieces before piece i, sorted; none overlaps another
        for i, piece in enumerate(self.rates):
            start, end, per_hour = piece
            if per_hour < 0:
                raise ConfigError(f"negative arrival rate on [{start}, {end})", ("rates", i))
            if end <= start:
                raise ConfigError(f"empty rate interval [{start}, {end})", ("rates", i))
            # Only the pieces just below and just above it in sorted order can overlap it.
            at = bisect.bisect(earlier, piece)
            for other in earlier[max(at - 1, 0):at + 1]:
                if other[0] < end and start < other[1]:
                    (a, a_end, _), (b, b_end, _) = sorted((other, piece))
                    raise ConfigError(f"rate intervals [{a}, {a_end}) and [{b}, {b_end}) overlap",
                                      ("rates", i))
            earlier.insert(at, piece)
        if len(self.mix) != 3 or any(f < 0 for f in self.mix):
            raise ConfigError("mix needs three non-negative fractions", "mix")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ConfigError(f"mix fractions sum to {sum(self.mix)}, not 1", "mix")
        for kind in ("member", "gateway"):
            name = f"{kind}_weights"
            weights = getattr(self, name)
            for stop, weight in weights.items():
                if weight < 0:
                    raise ConfigError(f"stop weights must be >= 0: {kind} {stop} has {weight}",
                                      (name, stop))
            total = sum(weight for _, weight in sorted(weights.items()))  # a draw's order
            if not math.isfinite(total):
                raise ConfigError(f"{kind} weights sum to {total}, not a finite number", name)

    def rate_at(self, t: float) -> float:
        for start, end, per_hour in self.rates:
            if start <= t < end:
                return per_hour
        return 0.0

    def peak_rate(self) -> float:
        return max((per_hour for _, _, per_hour in self.rates), default=0.0)


def _weighted_choice(rng: random.Random, items: list[str], weights: dict[str, float]) -> str:
    """One of ``items`` with odds by weight (1 when unlisted); one ``rng.random()`` call."""
    if not weights:  # uniform: the same pick as the loop below, without summing
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
    a gateway, counting only stops with a positive weight."""
    intra, outbound, inbound = profile.mix
    members = [s for s in region.member_stops if profile.member_weights.get(s, 1.0) > 0]
    gateways = [s for s in region.gateway_stations if profile.gateway_weights.get(s, 1.0) > 0]
    if intra > 0 and len(members) < 2:
        raise ValueError("intra-region demand needs two member stops of positive weight")
    if (outbound > 0 or inbound > 0) and not (members and gateways):
        raise ValueError("connector demand needs a member stop and a gateway of positive weight")


def generate_demand(profile: DemandProfile, region: Region, horizon: int,
                    seed: int) -> list[TripRequest]:
    """Materialize a request list over [0, horizon), sorted by request time.

    Raises ``ValueError`` when the region cannot supply the mix
    (:func:`check_drawable`).
    """
    check_drawable(profile, region)
    members = (sorted(region.member_stops), profile.member_weights)
    gateways = (sorted(region.gateway_stations), profile.gateway_weights)
    intra, outbound, _ = profile.mix
    # The origin and destination sets of each trip kind: intra, outbound, inbound.
    kinds = ((members, members), (members, gateways), (gateways, members))

    rng = random.Random(seed)
    peak = profile.peak_rate()
    requests: list[TripRequest] = []
    if peak <= RATE_EPS or horizon <= 0:
        return requests

    peak_per_second = peak / 3600.0
    t = 0.0
    while True:
        t += rng.expovariate(peak_per_second)
        if t >= horizon:
            break
        if rng.random() * peak > profile.rate_at(t):
            continue  # thinned out
        roll = rng.random()  # intra below intra, outbound below intra + outbound, else inbound
        origins, (stops, weights) = kinds[(roll >= intra) + (roll >= intra + outbound)]
        pickup = _weighted_choice(rng, *origins)
        dropoff = _weighted_choice(rng, [s for s in stops if s != pickup], weights)
        # Arrivals come in time order, so the list is sorted by (time, id).
        requests.append(TripRequest(id=f"r{len(requests) + 1:06d}", pickup=pickup,
                                    dropoff=dropoff, request_time=int(t), passengers=1))
    return requests
