"""Rolling-horizon shuttle service simulation and fixed-route baseline.

The on-demand side is a deterministic loop over dispatch ticks, one
every ``dispatch_interval`` seconds (30 s by default) up to the horizon.
At each tick ``now`` every request placed at or before ``now`` joins the
queue of not-yet-committed requests; then one dispatch pass runs over
that queue plus every shuttle's committed state, and selected plans hand
each shuttle a fresh stop sequence.  A request placed exactly at a tick
is dispatched by it.  While the queue is empty the loop jumps straight
to the first tick at or after the next request: a pass over an empty
queue does nothing.  Requests placed after the last tick stay pending.

One function, ``advance``, moves a shuttle: it runs the shuttle's
arrivals due by a given time, each at its own time.  A pass advances each
shuttle with an arrival due by ``now`` as it reads the fleet, so a
shuttle arriving exactly at a tick is at its stop for that pass; after
the last tick every shuttle is advanced to the horizon.  An arrival
touches only its own shuttle, its busy seconds and the requests it owes,
so handling it late, in any order across shuttles, changes nothing.

Requests missed in an interval stay queued for the next one; requests
queued beyond ``max_defer`` are abandoned.  Once a request enters a
selected plan it belongs to that shuttle for good -- later passes may
re-sequence the shuttle's stops but never move the request elsewhere.

Shuttles are only observable at stops.  The simulator holds each
shuttle as the ``ShuttleState`` the dispatcher reads (the stop currently
headed for, the arrival time there, the requests it owes) plus the rest
of its committed stop sequence; it is moving exactly while stops remain.
Arriving at the next stop of that sequence, a shuttle alights everyone
due there, then boards everyone it owes who waits there: the visit rule
costing priced the sequence with.  Arriving anywhere else (a heading
stop that a new sequence skips) does nothing.  Every state change builds
a new ``ShuttleState``, so its checks (capacity among them) run at every
visit, and a sequence that runs out while requests are still owed stops
the run.  Idle shuttles hold position and are shown to the dispatcher as
arriving "now": a copy of the state with only ``arrival_time`` changed
(``ShuttleState.retimed``).  That copy is the one change that re-runs no
checks, as none of them reads the time and an idle shuttle owes nothing.

A selected plan is committed to the state it was priced from, owing the
plan's requests too, and its sequence replaces the shuttle's remaining
stops: a moving shuttle finishes its current leg first, and an idle one
stands at its stop at ``now``, where its next ``advance`` starts.

The baseline models the fixed-route alternative analytically: walk to
the nearest served stop, wait for the next scheduled departure
(schedule anchored at t = 0), ride between stops at the route's uniform
inter-stop time, walk to the destination.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice

from .demand import DemandProfile, check_drawable, generate_demand
from .enumeration import enumerate_plans
from .errors import ConfigError
from .network import Region, TravelNetwork, TripType, classify_trip
from .reporting import SummaryStats, summarize
from .solver import DEFAULT_MISS_PENALTY, DispatchProblem, solve_dispatch
from .types import ShuttleState, StopId, TripRequest

@dataclass(frozen=True)
class FixedRoute:
    """A conventional bus line kept for the baseline comparison."""

    name: str
    one_way_minutes: float
    headway_minutes: float
    shape: str  # "two_way" or "circular"
    served_stops: tuple[StopId, ...]

    def __post_init__(self):
        object.__setattr__(self, "served_stops", tuple(self.served_stops))
        # The baseline rides up to len(stops) - 1 segments of the one-way time.
        longest_ride = self.one_way_minutes * 60.0 * max(len(self.served_stops) - 1, 1)
        if not 0 < longest_ride < math.inf:
            raise ValueError(f"route {self.name}: one-way time must be positive and finite")
        if not 1 <= self.headway_minutes * 60 < math.inf:  # departures run on whole seconds
            raise ValueError(f"route {self.name}: headway must be at least 1 s and finite")
        if self.shape not in ("two_way", "circular"):
            raise ValueError(f"route {self.name}: shape must be two_way or circular")
        if len(self.served_stops) != len(set(self.served_stops)):
            raise ValueError(f"route {self.name}: served stops repeat")


def min_fleet_fixed_routes(routes) -> int:
    """Vehicles needed to hold every route's headway, two-way routes doubled."""
    routes = list(routes)
    if not routes:
        raise ValueError("no routes given")
    total = 0
    for route in routes:
        per_direction = math.ceil(route.one_way_minutes / route.headway_minutes)
        total += per_direction * (2 if route.shape == "two_way" else 1)
    return total


def cost_reduction(buses: int, shuttles: int) -> float:
    """Percent operating-cost change replacing ``buses`` with ``shuttles``."""
    if buses <= 0:
        raise ConfigError("buses must be positive", "buses")
    if shuttles < 0:
        raise ConfigError("shuttles must be >= 0", "shuttles")
    return (buses - shuttles) / buses * 100.0


@dataclass
class TripRecord:
    """Lifecycle of one request through either service."""

    id: str
    request_time: int
    trip_type: str = "intra"
    pickup_time: int | None = None
    dropoff_time: int | None = None
    status: str = "pending"  # completed | abandoned | pending

    @property
    def waiting(self) -> int | None:
        return None if self.pickup_time is None else self.pickup_time - self.request_time

    @property
    def trip_time(self) -> int | None:
        return None if self.dropoff_time is None else self.dropoff_time - self.request_time


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run needs; see docs/README for the file schema."""

    horizon: int
    fleet_size: int
    network: TravelNetwork
    dispatch_interval: int = 30
    shuttle_capacity: int = 8
    max_requests_per_plan: int = 3
    miss_penalty: int = DEFAULT_MISS_PENALTY
    max_defer: int = 1800
    seed: int = 0
    max_requests_per_tick: int = 8
    max_outstanding: int | None = 8
    waiting_per_passenger: bool = False
    region: Region | None = None
    demand_profile: DemandProfile | None = None
    demand_requests: tuple[TripRequest, ...] | None = None
    demand_types: dict[str, str] = field(default_factory=dict)
    fleet_start: tuple[StopId, ...] = ()
    walk_speed: float = 1.3
    routes: tuple[FixedRoute, ...] = ()
    bin_seconds: int = 900

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1", "horizon")
        if self.dispatch_interval < 1:
            raise ConfigError("dispatch_interval must be >= 1", "dispatch_interval")
        if self.fleet_size < 1:
            raise ConfigError("fleet_size must be >= 1", "fleet_size")
        if self.shuttle_capacity < 1:
            raise ConfigError("shuttle_capacity must be >= 1", "shuttle_capacity")
        if self.max_requests_per_plan < 1:
            raise ConfigError("max_requests_per_plan must be >= 1", "max_requests_per_plan")
        if self.miss_penalty < 0:
            raise ConfigError("miss_penalty must be >= 0", "miss_penalty")
        if self.max_defer <= self.dispatch_interval:
            raise ConfigError("max_defer must exceed dispatch_interval",
                              "max_defer", "dispatch_interval")
        if self.max_requests_per_tick < 1:
            raise ConfigError("max_requests_per_tick must be >= 1", "max_requests_per_tick")
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ConfigError("max_outstanding must be >= 1", "max_outstanding")
        if self.bin_seconds < 60:
            raise ConfigError("bin_seconds must be >= 60", "bin_seconds")
        stops = self.network.stops.values()
        longest_walk = max((math.hypot(a.x - b.x, a.y - b.y) for a in stops for b in stops),
                           default=0.0)
        if not (self.walk_speed > 0 and math.isfinite(longest_walk / self.walk_speed)):
            raise ConfigError("walk_speed must be positive and time every walk between stops "
                              "in a finite number of seconds", "walk_speed")
        if not self.network.index:
            raise ConfigError("the network has no stops", "network")
        self._check_stops(self.demand_requests or (), "demand_requests")
        if self.demand_profile is not None:
            if self.region is None:
                raise ConfigError("a demand profile needs a region to draw from", "region")
            check_drawable(self.demand_profile, self.region)

    def _check_stops(self, requests, key: str) -> None:
        """Raise ``ConfigError`` naming ``("routes", i)``, ``("region", s)``,
        ``("fleet_start", i)`` or ``(key, i)`` for a stop outside the network, or
        ``("network", b)`` if stop b cannot be reached from a stop a shuttle may
        be sent to: a start stop, a region stop or a stop of ``requests``."""
        index, region = self.network.index, self.region
        region_stops = sorted(region.member_stops | region.gateway_stations) if region else []
        named = [(("routes", i), s) for i, route in enumerate(self.routes)
                 for s in route.served_stops]
        named += [(("region", s), s) for s in region_stops]
        named += [(("fleet_start", i), s) for i, s in enumerate(self.fleet_start)]
        named += [((key, i), s) for i, r in enumerate(requests)  # requests may be many: the bad only
                  for s in (r.pickup, r.dropoff) if s not in index]
        for at, stop in named:
            if stop not in index:
                raise ConfigError(f"unknown stop {stop!r}", at)
        stops = sorted({*self.start_stops(), *region_stops,
                        *(s for r in requests for s in (r.pickup, r.dropoff))})
        for a in stops:
            row = self.network.row(index[a])
            for b in stops:
                if row[index[b]] is None:
                    raise ConfigError(f"stop {b} cannot be reached from stop {a}", ("network", b))

    def resolve_requests(self) -> list[TripRequest]:
        """The demand stream: explicit list if configured, else generated."""
        if self.demand_requests is not None:
            return [r for r in self.demand_requests if r.request_time < self.horizon]
        if self.demand_profile is None:
            return []
        return generate_demand(self.demand_profile, self.region, self.horizon, self.seed)

    def start_stops(self) -> list[StopId]:
        if self.fleet_start:
            pool = list(self.fleet_start)
        elif self.region is not None and self.region.member_stops:
            pool = [sorted(self.region.member_stops)[0]]
        else:
            pool = [self.network.stop_ids()[0]]
        return [pool[i % len(pool)] for i in range(self.fleet_size)]

    def trip_type_of(self, request: TripRequest) -> str:
        declared = self.demand_types.get(request.id)
        if declared:
            return declared
        if self.region is not None:
            try:
                return classify_trip(request, self.region).value
            except ValueError:
                pass
        return TripType.INTRA_REGION.value


@dataclass
class ScenarioResult:
    records: list[TripRecord]
    summary: SummaryStats


def _demand(config: ScenarioConfig, requests) -> tuple[list[TripRequest], dict[str, TripRecord]]:
    """``requests`` (else the configured stream) before the horizon, by (time, id),
    and a fresh record per id in that order.  Given ``requests`` pass the config's
    stop rule (``_check_stops``); a repeated id raises ``ValueError``."""
    if requests is None:
        requests = config.resolve_requests()
    else:
        requests = list(requests)
        config._check_stops(requests, "requests")
    demand = sorted((r for r in requests if r.request_time < config.horizon),
                    key=lambda r: (r.request_time, r.id))
    records: dict[str, TripRecord] = {}
    for r in demand:
        if r.id in records:
            raise ValueError(f"duplicate request id in demand: {r.id}")
        records[r.id] = TripRecord(id=r.id, request_time=r.request_time,
                                   trip_type=config.trip_type_of(r))
    return demand, records


def run_scenario(config: ScenarioConfig, requests=None) -> ScenarioResult:
    """Simulate the on-demand service; deterministic for a given config."""
    network, horizon, interval = config.network, config.horizon, config.dispatch_interval
    demand, records = _demand(config, requests)

    # Each shuttle is the state the dispatcher reads, the rest of its
    # committed stop sequence and its busy seconds; it is moving exactly
    # while stops remain.
    capacity = config.shuttle_capacity
    states = {f"s{i:03d}": ShuttleState(f"s{i:03d}", start, 0, capacity=capacity)
              for i, start in enumerate(config.start_stops())}
    order = sorted(states)
    visits = {vid: deque() for vid in order}
    busy = dict.fromkeys(order, 0)

    # Placed, not yet committed.  Requests join in demand order, (time, id),
    # and leave without reordering the rest, so the queue stays in that order.
    queue: dict[str, TripRequest] = {}

    def advance(vid: str, until: int) -> ShuttleState:
        """Run the shuttle's arrivals due at or before ``until``, each at its own time."""
        state, stops = states[vid], visits[vid]
        while stops and state.arrival_time <= until:
            stop = state.heading_stop
            pickups, dropoffs = state.pending_pickups, state.pending_dropoffs
            # No visit waits for a rider: a request joins the queue once its
            # time has come, and a plan committed at a tick visits at it or later.
            t = state.arrival_time
            if stops[0] == stop:  # a planned visit: alight, then board
                stops.popleft()
                dropped = {r for r in dropoffs if r.dropoff == stop}
                picked = {r for r in pickups if r.pickup == stop}
                for r in dropped:
                    records[r.id].dropoff_time = t
                    records[r.id].status = "completed"
                for r in picked:
                    records[r.id].pickup_time = t
                pickups, dropoffs = pickups - picked, (dropoffs - dropped) | picked
            if stops:  # leave for the next visit
                arrival = t + network.travel_time(stop, stops[0])
                busy[vid] += max(0, min(arrival, horizon) - t)
                stop, t = stops[0], arrival
            # The new state's own checks (capacity among them) run at every visit.
            state = states[vid] = ShuttleState(vid, stop, t, pickups, dropoffs, capacity)
        if not stops and (state.pending_pickups or state.pending_dropoffs):
            owed = sorted(r.id for r in state.pending_pickups | state.pending_dropoffs)
            raise AssertionError(f"plan for {vid} leaves requests unserved: {owed}")
        return state

    def dispatch(now: int):
        for rid, r in list(queue.items()):
            if now - r.request_time > config.max_defer:
                records[rid].status = "abandoned"
                del queue[rid]
        if not queue:
            return
        batch = list(islice(queue.values(), config.max_requests_per_tick))
        fleet = []
        for vid in order:
            state = states[vid]
            if visits[vid] and state.arrival_time <= now:
                state = advance(vid, now)
            if not visits[vid]:  # idle: standing at its stop now
                state = state.retimed(now)
            fleet.append(state)
        plan_set = enumerate_plans(
            fleet,
            batch,
            config.max_requests_per_plan,
            network,
            max_outstanding=config.max_outstanding,
            per_passenger=config.waiting_per_passenger,
        )
        problem = DispatchProblem(
            requests=tuple(batch),
            plan_set=plan_set,
            miss_penalty={r.id: config.miss_penalty for r in batch},
        )
        solution = solve_dispatch(problem)
        for vid, state in zip(order, fleet):
            plan = solution.selected[vid]
            if not plan.requests:
                continue
            for r in sorted(plan.requests, key=lambda r: r.id):
                if queue.pop(r.id, None) is None:
                    raise AssertionError(f"request {r.id} dispatched twice")
            # Commit to the state the plan was priced from: an idle shuttle
            # now stands at its stop at ``now``, a moving one keeps its leg.
            states[vid] = ShuttleState(vid, state.heading_stop, state.arrival_time,
                                       state.pending_pickups | plan.requests,
                                       state.pending_dropoffs, capacity)
            visits[vid] = deque(plan.sequence)

    placed = 0  # demand[:placed] has joined the queue
    now = interval
    while now <= horizon:
        while placed < len(demand) and demand[placed].request_time <= now:
            queue[demand[placed].id] = demand[placed]
            placed += 1
        dispatch(now)
        if not queue:
            if placed == len(demand):
                break
            # Nothing to dispatch before the next request: resume at the
            # first tick at or after its placement.
            now = (demand[placed].request_time - 1) // interval * interval
        now += interval
    for vid in order:
        advance(vid, horizon)

    ordered = list(records.values())
    utilization = sum(busy.values()) / (config.fleet_size * horizon)
    return ScenarioResult(
        records=ordered,
        summary=summarize(ordered, bin_seconds=config.bin_seconds, utilization=utilization),
    )


def _walk_seconds(network: TravelNetwork, a: StopId, b: StopId, speed: float) -> int:
    sa, sb = network.stops[a], network.stops[b]
    return int(math.ceil(math.hypot(sa.x - sb.x, sa.y - sb.y) / speed))


def _route_trip(route: FixedRoute, network, request, walk_speed):
    """(total, walk_to_stop, wait, ride, walk_from_stop) for one route, or None."""
    if not route.served_stops:
        return None
    board = min(route.served_stops,
                key=lambda s: (_walk_seconds(network, request.pickup, s, walk_speed), s))
    alight = min(route.served_stops,
                 key=lambda s: (_walk_seconds(network, request.dropoff, s, walk_speed), s))
    walk_in = _walk_seconds(network, request.pickup, board, walk_speed)
    walk_out = _walk_seconds(network, request.dropoff, alight, walk_speed)
    if board == alight:
        # Riding gains nothing; the trip is just the direct walk.
        direct = _walk_seconds(network, request.pickup, request.dropoff, walk_speed)
        return (direct, 0, 0, 0, direct)
    headway = int(round(route.headway_minutes * 60))
    at_stop = request.request_time + walk_in
    wait = (headway - at_stop % headway) % headway
    n = len(route.served_stops)
    i = route.served_stops.index(board)
    j = route.served_stops.index(alight)
    one_way = route.one_way_minutes * 60.0
    if route.shape == "circular":
        segments = (j - i) % n
        ride = int(math.ceil(segments * one_way / n))
    else:
        segments = abs(j - i)
        ride = int(math.ceil(segments * one_way / (n - 1)))
    total = walk_in + wait + ride + walk_out
    return (total, walk_in, wait, ride, walk_out)


def run_baseline(config: ScenarioConfig, requests=None) -> ScenarioResult:
    """Fixed-route alternative for the same demand, computed analytically."""
    demand, records = _demand(config, requests)
    for r in demand:
        rec = records[r.id]
        options = []
        for route in config.routes:
            found = _route_trip(route, config.network, r, config.walk_speed)
            if found is not None:
                options.append(found)
        if not options:
            rec.status = "abandoned"  # no reachable service
        else:
            total, walk_in, wait, ride, walk_out = min(options)
            rec.pickup_time = r.request_time + walk_in + wait
            rec.dropoff_time = rec.pickup_time + ride + walk_out
            rec.status = "completed"
    ordered = list(records.values())
    return ScenarioResult(records=ordered,
                          summary=summarize(ordered, bin_seconds=config.bin_seconds))


def sweep_fleet_sizes(config: ScenarioConfig, sizes) -> dict[int, SummaryStats]:
    """Run the scenario once per fleet size against one shared demand stream."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("no fleet sizes given")
    demand = config.resolve_requests()
    out: dict[int, SummaryStats] = {}
    for size in sizes:
        sized = replace(config, fleet_size=size)
        out[size] = run_scenario(sized, requests=demand).summary
    return out
