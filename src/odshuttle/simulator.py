"""Rolling-horizon shuttle service simulation and fixed-route baseline.

The on-demand side is a deterministic discrete-event loop: requests
arrive, a dispatch pass runs at a fixed cadence (30 s by default) over
the queue of not-yet-committed requests plus every shuttle's committed
state, and selected plans hand each shuttle a fresh stop sequence.
Requests missed in an interval stay queued for the next one; requests
queued beyond ``max_defer`` are abandoned.  Once a request enters a
selected plan it belongs to that shuttle for good -- later passes may
re-sequence the shuttle's stops but never move the request elsewhere.

Shuttles are only observable at stops: state is the stop currently
headed for and the arrival time there.  A moving shuttle finishes its
current leg before any new sequence takes effect.  Idle shuttles hold
position.

The baseline models the fixed-route alternative analytically: walk to
the nearest served stop, wait for the next scheduled departure
(schedule anchored at t = 0), ride between stops at the route's uniform
inter-stop time, walk to the destination.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

from .demand import DemandProfile, generate_demand
from .enumeration import enumerate_plans
from .network import Region, TravelNetwork, TripType, classify_trip
from .reporting import SummaryStats, summarize
from .solver import DispatchProblem, solve_dispatch
from .types import ShuttleState, StopId, TripRequest

ARRIVE, REQUEST, TICK = 0, 1, 2  # same-time event ordering


@dataclass(frozen=True)
class Event:
    """One queue entry; total order is (time, kind priority, insertion id)."""

    time: int
    priority: int
    seq: int
    kind: str
    subject: str = ""

    def sort_key(self):
        return (self.time, self.priority, self.seq)


class EventQueue:
    """Min-heap of events, popping in non-decreasing time with stable ties."""

    def __init__(self):
        self._heap: list[tuple[tuple[int, int, int], Event]] = []
        self._seq = 0

    def push(self, time: int, priority: int, kind: str, subject: str = "") -> Event:
        event = Event(time=time, priority=priority, seq=self._seq, kind=kind, subject=subject)
        self._seq += 1
        heapq.heappush(self._heap, (event.sort_key(), event))
        return event

    def pop(self) -> Event:
        return heapq.heappop(self._heap)[1]

    def __len__(self):
        return len(self._heap)


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
        if self.one_way_minutes <= 0:
            raise ValueError(f"route {self.name}: one-way time must be positive")
        if self.headway_minutes <= 0:
            raise ValueError(f"route {self.name}: headway must be positive")
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
        raise ValueError("buses must be positive")
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
    miss_penalty: int = 3600
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
            raise ValueError("horizon must be >= 1")
        if self.dispatch_interval < 1:
            raise ValueError("dispatch_interval must be >= 1")
        if self.fleet_size < 1:
            raise ValueError("fleet_size must be >= 1")
        if self.shuttle_capacity < 1:
            raise ValueError("shuttle_capacity must be >= 1")
        if self.max_requests_per_plan < 1:
            raise ValueError("max_requests_per_plan must be >= 1")
        if self.miss_penalty < 0:
            raise ValueError("miss_penalty must be >= 0")
        if self.max_defer <= self.dispatch_interval:
            raise ValueError("max_defer must exceed dispatch_interval")
        if self.max_requests_per_tick < 1:
            raise ValueError("max_requests_per_tick must be >= 1")
        if self.walk_speed <= 0:
            raise ValueError("walk_speed must be positive")
        for stop in self.fleet_start:
            if not self.network.has_stop(stop):
                raise ValueError(f"fleet start stop {stop} not in network")

    def resolve_requests(self) -> list[TripRequest]:
        """The demand stream: explicit list if configured, else generated."""
        if self.demand_requests is not None:
            return [r for r in self.demand_requests if r.request_time < self.horizon]
        if self.demand_profile is None:
            return []
        if self.region is None:
            raise ValueError("generating demand needs a region")
        profile = self.demand_profile
        if profile.seed == 0 and self.seed != 0:
            profile = replace(profile, seed=self.seed)
        return generate_demand(profile, self.region, self.horizon)

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


class _SimShuttle:
    __slots__ = ("id", "capacity", "location", "moving", "heading", "heading_arrival",
                 "schedule", "pending_pickups", "pending_dropoffs", "busy_seconds")

    def __init__(self, vid, start, capacity):
        self.id = vid
        self.capacity = capacity
        self.location = start
        self.moving = False
        self.heading = start
        self.heading_arrival = 0
        # Remaining visits as (stop, to_board, to_alight): execution replays
        # the committed plan's own staging rather than boarding whatever is
        # waiting at a stop, because an optimal sequence may pass a pickup
        # stop while full and only return for those riders later.
        self.schedule: list[tuple[StopId, frozenset, frozenset]] = []
        self.pending_pickups: set[TripRequest] = set()
        self.pending_dropoffs: set[TripRequest] = set()
        self.busy_seconds = 0

    def onboard(self) -> int:
        return sum(r.passengers for r in self.pending_dropoffs)

    def snapshot(self, now: int) -> ShuttleState:
        return ShuttleState(
            id=self.id,
            heading_stop=self.heading if self.moving else self.location,
            arrival_time=self.heading_arrival if self.moving else now,
            pending_pickups=frozenset(self.pending_pickups),
            pending_dropoffs=frozenset(self.pending_dropoffs),
            capacity=self.capacity,
        )

    def adopt_plan(self, sequence, new_requests):
        """Replace the remaining visit schedule by replaying ``sequence``."""
        self.pending_pickups.update(new_requests)
        awaiting_pickup = set(self.pending_pickups)
        awaiting_dropoff = set(self.pending_dropoffs)
        schedule = []
        for stop in sequence:
            picked = frozenset(r for r in awaiting_pickup if r.pickup == stop)
            dropped = frozenset(r for r in awaiting_dropoff if r.dropoff == stop)
            awaiting_pickup -= picked
            awaiting_dropoff = (awaiting_dropoff - dropped) | picked
            schedule.append((stop, picked, dropped))
        if awaiting_pickup or awaiting_dropoff:
            raise AssertionError(
                f"plan for {self.id} leaves requests unserved: "
                f"{sorted(r.id for r in awaiting_pickup | awaiting_dropoff)}"
            )
        self.schedule = schedule


def run_scenario(config: ScenarioConfig, requests=None) -> ScenarioResult:
    """Simulate the on-demand service; deterministic for a given config."""
    network = config.network
    demand = sorted(
        requests if requests is not None else config.resolve_requests(),
        key=lambda r: (r.request_time, r.id),
    )
    demand = [r for r in demand if r.request_time < config.horizon]

    shuttles = {
        f"s{i:03d}": _SimShuttle(f"s{i:03d}", start, config.shuttle_capacity)
        for i, start in enumerate(config.start_stops())
    }
    order = sorted(shuttles)

    records: dict[str, TripRecord] = {}
    by_id: dict[str, TripRequest] = {}
    queue: dict[str, TripRequest] = {}  # arrived, not yet committed
    committed: set[str] = set()

    events = EventQueue()
    for r in demand:
        if r.id in by_id:
            raise ValueError(f"duplicate request id in demand: {r.id}")
        events.push(r.request_time, REQUEST, "request", r.id)
        by_id[r.id] = r
    t = config.dispatch_interval
    while t <= config.horizon:
        events.push(t, TICK, "tick", "")
        t += config.dispatch_interval

    def start_next_leg(sim: _SimShuttle, now: int):
        if not sim.schedule:
            sim.moving = False
            return
        nxt = sim.schedule[0][0]
        arrival = now + network.travel_time(sim.location, nxt)
        sim.moving = True
        sim.heading = nxt
        sim.heading_arrival = arrival
        sim.busy_seconds += max(0, min(arrival, config.horizon) - now)
        events.push(arrival, ARRIVE, "arrive", sim.id)

    def handle_arrival(sim: _SimShuttle, now: int):
        stop = sim.heading
        sim.location = stop
        sim.moving = False
        depart = now
        if sim.schedule and sim.schedule[0][0] == stop:
            _, picked, dropped = sim.schedule.pop(0)
            for r in sorted(dropped, key=lambda r: r.id):
                sim.pending_dropoffs.discard(r)
                rec = records[r.id]
                rec.dropoff_time = now
                rec.status = "completed"
            for r in sorted(picked, key=lambda r: r.id):
                sim.pending_pickups.discard(r)
                sim.pending_dropoffs.add(r)
                records[r.id].pickup_time = max(now, r.request_time)
                depart = max(depart, r.request_time)
            if sim.onboard() > sim.capacity:
                raise AssertionError(f"shuttle {sim.id} overloaded at {stop}: "
                                     f"{sim.onboard()} > {sim.capacity}")
        start_next_leg(sim, depart)

    def dispatch(now: int):
        for rid in sorted(queue):
            if now - queue[rid].request_time > config.max_defer:
                records[rid].status = "abandoned"
                del queue[rid]
        if not queue:
            return
        batch = sorted(queue.values(), key=lambda r: (r.request_time, r.id))
        batch = batch[: config.max_requests_per_tick]
        states = [shuttles[vid].snapshot(now) for vid in order]
        plan_set = enumerate_plans(
            states,
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
        for vid in order:
            plan = solution.selected[vid]
            if not plan.requests:
                continue
            sim = shuttles[vid]
            for r in sorted(plan.requests, key=lambda r: r.id):
                if r.id in committed:
                    raise AssertionError(f"request {r.id} dispatched twice")
                committed.add(r.id)
                del queue[r.id]
            sim.adopt_plan(plan.sequence, plan.requests)
            if not sim.moving:
                start_next_leg(sim, now)

    while len(events):
        event = events.pop()
        if event.time > config.horizon:
            break
        if event.kind == "request":
            r = by_id[event.subject]
            records[r.id] = TripRecord(id=r.id, request_time=r.request_time,
                                       trip_type=config.trip_type_of(r))
            queue[r.id] = r
        elif event.kind == "arrive":
            handle_arrival(shuttles[event.subject], event.time)
        elif event.kind == "tick":
            dispatch(event.time)

    ordered = [records[r.id] for r in demand]
    busy = sum(s.busy_seconds for s in shuttles.values())
    utilization = busy / (config.fleet_size * config.horizon)
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
    demand = sorted(
        requests if requests is not None else config.resolve_requests(),
        key=lambda r: (r.request_time, r.id),
    )
    demand = [r for r in demand if r.request_time < config.horizon]
    records = []
    for r in demand:
        rec = TripRecord(id=r.id, request_time=r.request_time,
                         trip_type=config.trip_type_of(r))
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
        records.append(rec)
    return ScenarioResult(records=records,
                          summary=summarize(records, bin_seconds=config.bin_seconds))


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
