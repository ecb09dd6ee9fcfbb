"""Structured text formats: parse and write everything the CLI touches.

All line-oriented inputs share one syntax, read by one reader
(:func:`_lines`): ``#`` starts a comment, blank lines are skipped,
``[name]`` opens a section, and every other line is whitespace-separated
tokens whose first token is a keyword.  A grammar table lists, per
section, each keyword's argument types, the fewest arguments it takes
and whether its last argument repeats.  An unknown section or keyword,
a wrong argument count or a bad number fails at load time as a
``ParseError`` naming the file and line.

Scenario config sections::

    [scenario]   horizon / dispatch_interval / fleet_size / shuttle_capacity
                 max_requests_per_plan / miss_penalty / max_defer / seed
                 max_requests_per_tick / bin_seconds <int> ;
                 max_outstanding <int|none> ; waiting_per_passenger <bool> ;
                 fleet_start <stop> ... (shuttles cycle through the list)
    [network]    mode euclidean|manhattan|graph ; speed <m/s> (metric modes) ;
                 stop <id> <x> <y> ; link <from> <to> <seconds> (graph mode)
    [region]     member <id> ... ; gateway <id>
    [demand]     file <path> (pre-generated demand CSV, relative to the
                 config) or a profile, not both: rate <start> <end> <per_hour>,
                 mix <intra> <outbound> <inbound>,
                 member_weight/gateway_weight <id> <w>, seed <n>
                 (profile seed 0 inherits the scenario seed)
    [baseline]   walk_speed <m/s> ;
                 route <name> <one_way_min> <headway_min> <two_way|circular> <stop> ...

Dispatch instances (for ``solve``) use ``[params]``
(``max_requests_per_plan``, ``miss_penalty``), ``[network]``, ``[fleet]``
(``shuttle <id> <heading_stop> <arrival_s> <capacity>`` plus
``committed_pickup``/``committed_dropoff <shuttle> <request>``) and
``[requests]`` (``request <id> <t> <pickup> <dropoff> <passengers>``,
optional ``penalty <id> <cost>``).  Requests claimed by a
``committed_*`` line belong to that shuttle and leave the open set.
Route files (for ``fleetcalc``) hold ``route`` lines outside any section.

References are checked at load time too: every stop a request, shuttle,
region line or demand row names must be in the network, a weighted stop
must be a region member or gateway, and every shuttle or request a
``committed_*`` or ``penalty`` line names must be defined.  A value
rejected when its section is built (a repeated stop, an unknown mode, a
stop both member and gateway, an overlapping rate piece, a mix that does
not sum to 1, a setting out of range) is reported at its own line, not
the file's last.  A demand profile the region cannot draw from fails at
its ``mix`` line (the first ``rate`` line without a mix or a region).  In
graph mode every stop a shuttle may be sent to -- the start stops, the
region's stops and a demand file's stops -- must reach every other, or
the load fails at the unreachable stop's ``stop`` line; stops only the
walking baseline uses need no links.

Demand files are CSV: id,request_time,pickup,dropoff,passengers,trip_type,
where a trip_type is empty or one of intra, outbound and inbound.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import NamedTuple

from .demand import DemandProfile, check_drawable
from .errors import ConfigError, ParseError
from .network import EUCLIDEAN, GRAPH, MANHATTAN, Region, TravelNetwork, TripType
from .simulator import FixedRoute, ScenarioConfig, TripRecord
from .solver import DispatchProblem, DEFAULT_MISS_PENALTY
from .types import DispatchSolution, ShuttleState, Stop, TripRequest

# -- the grammar ------------------------------------------------------------------


def _real(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


def _flag(token: str) -> bool:
    lowered = token.lower()
    if lowered not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(token)
    return lowered in ("1", "true", "yes")


def _int_or_none(token: str) -> int | None:
    return None if token == "none" else int(token)


_EXPECTED = {int: "an integer", _real: "a finite number", _flag: "true or false",
             _int_or_none: "an integer or none"}


class _Args(NamedTuple):
    """One keyword's arguments: a type per argument, the fewest accepted, and
    whether the last type repeats for any further arguments."""

    types: tuple
    least: int
    repeat: bool


def _args(*types, least: int | None = None, repeat: bool = False) -> _Args:
    return _Args(types, len(types) if least is None else least, repeat)


_NETWORK = {
    "mode": _args(str),
    "speed": _args(_real),
    "stop": _args(str, _real, _real),
    "link": _args(str, str, _real),
}

_ROUTE = {"route": _args(str, _real, _real, str, str, least=4, repeat=True)}

_SCENARIO = {
    "scenario": {
        **{key: _args(int) for key in (
            "horizon", "dispatch_interval", "fleet_size", "shuttle_capacity",
            "max_requests_per_plan", "miss_penalty", "max_defer", "seed",
            "max_requests_per_tick", "bin_seconds")},
        "max_outstanding": _args(_int_or_none),
        "waiting_per_passenger": _args(_flag),
        "fleet_start": _args(str, repeat=True),
    },
    "network": _NETWORK,
    "region": {"member": _args(str, repeat=True), "gateway": _args(str)},
    "demand": {
        "file": _args(str),
        "rate": _args(int, int, _real),
        "mix": _args(_real, _real, _real),
        "member_weight": _args(str, _real),
        "gateway_weight": _args(str, _real),
        "seed": _args(int),
    },
    "baseline": {"walk_speed": _args(_real), **_ROUTE},
}

_INSTANCE = {
    "params": {"max_requests_per_plan": _args(int), "miss_penalty": _args(int)},
    "network": _NETWORK,
    "fleet": {
        "shuttle": _args(str, str, int, int),
        "committed_pickup": _args(str, str),
        "committed_dropoff": _args(str, str),
    },
    "requests": {"request": _args(str, int, str, str, int), "penalty": _args(str, int)},
}

# Route files have no sections: their lines sit in the unnamed section "".
_ROUTES = {"": _ROUTE}


class _Row(NamedTuple):
    line: int
    args: tuple


def _lines(text: str, path: str, grammar: dict) -> tuple[dict, int]:
    """Check every line of ``text`` against ``grammar`` and convert its arguments.

    Returns ``(rows, end)``: ``rows[section][keyword]`` lists the
    keyword's :class:`_Row` entries in file order (empty when absent),
    and ``end`` is the number of the file's last line.
    """
    rows = {section: {key: [] for key in keywords} for section, keywords in grammar.items()}
    section = ""
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in grammar:
                raise ParseError(path, line_no, f"unknown section [{section}]")
            continue
        if section not in grammar:
            raise ParseError(path, line_no, f"line outside any known section: {line}")
        key, *tokens = line.split()
        spec = grammar[section].get(key)
        if spec is None:
            raise ParseError(path, line_no, f"unknown {section or 'top-level'} keyword {key!r}")
        if len(tokens) < spec.least or (not spec.repeat and len(tokens) > len(spec.types)):
            count = f"at least {spec.least}" if spec.repeat else str(spec.least)
            noun = "argument" if spec.least == 1 else "arguments"
            raise ParseError(path, line_no, f"{key} takes {count} {noun}, got {len(tokens)}")
        types = spec.types + spec.types[-1:] * (len(tokens) - len(spec.types))
        args = []
        for kind, token in zip(types, tokens):
            try:
                args.append(kind(token))
            except ValueError:
                raise ParseError(path, line_no,
                                 f"{key}: expected {_EXPECTED[kind]}, got {token!r}") from None
        rows[section][key].append(_Row(line_no, tuple(args)))
    return rows, max(line_no, 1)


def _last(rows: list[_Row], default=None):
    """The single argument of a scalar keyword; a later line overrides an earlier one."""
    return rows[-1].args[0] if rows else default


def _all(rows: list[_Row]) -> list:
    """The arguments of every line of a list keyword, in file order."""
    return [arg for row in rows for arg in row.args]


# -- shared section builders --------------------------------------------------------


def _network(rows: dict, path: str, end: int) -> TravelNetwork:
    """Build a ``[network]`` section; scenario configs and instances share it.

    Each check names the line at fault: the repeated ``stop``, the
    ``mode`` or ``speed`` line, or the ``link``.  Graph mode takes no
    ``speed`` and metric modes take no ``link``.
    """
    if not rows["mode"]:
        raise ParseError(path, end, "network section never declared a mode")
    if not rows["stop"]:
        raise ParseError(path, end, "network has no stops")
    mode_row = rows["mode"][-1]
    mode = mode_row.args[0]
    stops: dict[str, Stop] = {}
    for row in rows["stop"]:
        if row.args[0] in stops:
            raise ParseError(path, row.line, f"duplicate stop id {row.args[0]}")
        stops[row.args[0]] = Stop(*row.args)
    speed_row = rows["speed"][-1] if rows["speed"] else None
    if mode == GRAPH:
        if rows["speed"]:
            raise ParseError(path, rows["speed"][0].line, "graph mode takes no speed")
        for row in rows["link"]:
            a, b, seconds = row.args
            for stop in (a, b):
                if stop not in stops:
                    raise ParseError(path, row.line, f"link names unknown stop {stop!r}")
            if seconds < 0:
                raise ParseError(path, row.line, f"link {a}->{b}: negative traversal time")
    elif mode in (EUCLIDEAN, MANHATTAN):
        if speed_row is None or speed_row.args[0] <= 0:
            raise ParseError(path, (speed_row or mode_row).line,
                             f"{mode} mode needs a positive speed (m/s)")
        if rows["link"]:
            raise ParseError(path, rows["link"][0].line, f"{mode} mode takes no links")
    else:
        raise ParseError(path, mode_row.line, f"unknown network mode {mode!r}")
    return TravelNetwork(stops.values(), mode, speed=_last(rows["speed"]),
                         links=[row.args for row in rows["link"]])


def _routes(rows: list[_Row], path: str) -> list[FixedRoute]:
    """Build ``route`` lines; scenario ``[baseline]`` and route files share it."""
    routes = []
    for row in rows:
        name, one_way, headway, shape, *stops = row.args
        try:
            routes.append(FixedRoute(name=name, one_way_minutes=one_way,
                                     headway_minutes=headway, shape=shape,
                                     served_stops=tuple(stops)))
        except ValueError as err:
            raise ParseError(path, row.line, str(err)) from None
    return routes


def _demand_profile(path: str, line_no: int, **fields) -> DemandProfile:
    try:
        return DemandProfile(**fields)
    except ValueError as err:
        raise ParseError(path, line_no, f"bad demand profile: {err}") from None


def _check_stops(network: TravelNetwork, path: str, line_no: int, *stops) -> None:
    for stop in stops:
        if not network.has_stop(stop):
            raise ParseError(path, line_no, f"unknown stop {stop!r}")


# -- demand ---------------------------------------------------------------------

DEMAND_HEADER = ["id", "request_time", "pickup", "dropoff", "passengers", "trip_type"]
TRIP_TYPES = tuple(t.value for t in TripType)


def parse_demand_csv(text: str, network: TravelNetwork,
                     path="<demand>") -> tuple[list[TripRequest], dict[str, str]]:
    """Requests and declared trip types of a demand CSV whose stops lie in ``network``."""
    reader = csv.DictReader(io.StringIO(text))
    requests, types, seen = [], {}, set()
    for row in reader:
        try:
            req = TripRequest(
                id=row["id"],
                pickup=row["pickup"],
                dropoff=row["dropoff"],
                request_time=int(row["request_time"]),
                passengers=int(row.get("passengers") or 1),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(path, reader.line_num, f"bad demand row: {err}") from None
        _check_stops(network, path, reader.line_num, req.pickup, req.dropoff)
        if req.id in seen:
            raise ParseError(path, reader.line_num, f"duplicate request id {req.id}")
        seen.add(req.id)
        requests.append(req)
        if row.get("trip_type"):
            if row["trip_type"] not in TRIP_TYPES:
                raise ParseError(path, reader.line_num, f"unknown trip type {row['trip_type']!r}"
                                 f" (expected one of {', '.join(TRIP_TYPES)})")
            types[req.id] = row["trip_type"]
    return requests, types


def write_demand_csv(requests, types: dict[str, str] | None = None) -> str:
    types = types or {}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(DEMAND_HEADER)
    for r in requests:
        writer.writerow([r.id, r.request_time, r.pickup, r.dropoff, r.passengers,
                         types.get(r.id, "")])
    return out.getvalue()


# -- scenario config --------------------------------------------------------------


def parse_scenario_text(text: str, path="<scenario>", base_dir: Path | None = None) -> ScenarioConfig:
    rows, end = _lines(text, path, _SCENARIO)
    scenario, region_rows, demand = rows["scenario"], rows["region"], rows["demand"]
    network = _network(rows["network"], path, end)

    scalars = {key: _last(found) for key, found in scenario.items()
               if found and key != "fleet_start"}
    if "horizon" not in scalars or "fleet_size" not in scalars:
        raise ParseError(path, end, "scenario section needs at least horizon and fleet_size")

    for row in scenario["fleet_start"]:
        _check_stops(network, path, row.line, *row.args)
    region = None
    if region_rows["member"] or region_rows["gateway"]:
        kind_of: dict[str, str] = {}
        for row, kind in sorted((row, kind) for kind in ("member", "gateway")
                                for row in region_rows[kind]):
            _check_stops(network, path, row.line, *row.args)
            for stop in row.args:
                if kind_of.setdefault(stop, kind) != kind:
                    raise ParseError(path, row.line,
                                     f"stop {stop} cannot be both member and gateway")
        region = Region(
            member_stops=_all(region_rows["member"]),
            gateway_stations=_all(region_rows["gateway"]),
        )
    for kind in ("member", "gateway"):
        allowed = _all(region_rows[kind])
        for row in demand[f"{kind}_weight"]:
            stop, _ = row.args
            if stop not in allowed:
                raise ParseError(path, row.line,
                                 f"{kind}_weight names {stop!r}, which is not a region {kind}")

    demand_requests = None
    demand_types: dict[str, str] = {}
    profile = None
    if demand["file"]:
        profile_lines = [row.line for key, found in demand.items() if key != "file"
                         for row in found]
        if profile_lines:
            raise ParseError(path, min(profile_lines),
                             "[demand] takes a file or a profile, not both")
        line_no = demand["file"][-1].line
        target = Path(base_dir or ".") / _last(demand["file"])
        try:
            demand_text = target.read_text()
        except OSError as err:
            raise ParseError(path, line_no, f"cannot read demand file: {err}") from None
        reqs, demand_types = parse_demand_csv(demand_text, network, path=str(target))
        demand_requests = tuple(reqs)
    elif demand["rate"]:
        # Each rate line is checked with the ones before it, so a bad or
        # overlapping piece names its own line and what fails after is the mix.
        rates = [row.args for row in demand["rate"]]
        for i, row in enumerate(demand["rate"]):
            _demand_profile(path, row.line, rates=rates[:i + 1])
        first_rate = demand["rate"][0].line
        mix = demand["mix"][-1] if demand["mix"] else _Row(first_rate, (1.0, 0.0, 0.0))
        profile = _demand_profile(
            path, mix.line,
            rates=rates,
            mix=mix.args,
            member_weights=dict(row.args for row in demand["member_weight"]),
            gateway_weights=dict(row.args for row in demand["gateway_weight"]),
            seed=_last(demand["seed"], 0),
        )
        if region is None:
            raise ParseError(path, first_rate, "a demand profile needs a [region] to draw from")
        try:
            check_drawable(profile, region)
        except ValueError as err:
            raise ParseError(path, mix.line, f"bad demand profile: {err}") from None

    try:
        config = ScenarioConfig(
            network=network,
            region=region,
            demand_profile=profile,
            demand_requests=demand_requests,
            demand_types=demand_types,
            fleet_start=tuple(_all(scenario["fleet_start"])),
            walk_speed=_last(rows["baseline"]["walk_speed"], 1.3),
            routes=tuple(_routes(rows["baseline"]["route"], path)),
            **scalars,
        )
    except ConfigError as err:
        settings = {**scenario, "walk_speed": rows["baseline"]["walk_speed"]}
        lines = [settings[name][-1].line for name in err.fields if settings.get(name)]
        raise ParseError(path, lines[0] if lines else end, f"bad scenario: {err}") from None
    if network.mode == GRAPH:
        # Every stop a shuttle may be sent to must reach every other, or the
        # run dies at the first leg that needs the missing path.
        stops = set(config.start_stops())
        if region is not None:
            stops |= region.member_stops | region.gateway_stations
        for r in demand_requests or ():
            stops |= {r.pickup, r.dropoff}
        line_of = {row.args[0]: row.line for row in rows["network"]["stop"]}
        for a in sorted(stops):
            row = network.row(network.index[a])
            for b in sorted(stops):
                if row[network.index[b]] is None:
                    raise ParseError(path, line_of[b], f"stop {b} cannot be reached from stop {a}")
    return config


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    return parse_scenario_text(path.read_text(), path=str(path), base_dir=path.parent)


# -- dispatch instances ------------------------------------------------------------


def parse_instance_text(text: str, path="<instance>"):
    """Returns (requests, shuttles, network, params) for the one-shot solver."""
    rows, end = _lines(text, path, _INSTANCE)
    network = _network(rows["network"], path, end)
    fleet = rows["fleet"]
    params = {
        "max_requests_per_plan": _last(rows["params"]["max_requests_per_plan"], 3),
        "miss_penalty": _last(rows["params"]["miss_penalty"], DEFAULT_MISS_PENALTY),
    }

    requests: dict[str, TripRequest] = {}
    for row in rows["requests"]["request"]:
        rid, request_time, pickup, dropoff, passengers = row.args
        if rid in requests:
            raise ParseError(path, row.line, f"duplicate request id {rid}")
        _check_stops(network, path, row.line, pickup, dropoff)
        try:
            requests[rid] = TripRequest(id=rid, request_time=request_time, pickup=pickup,
                                        dropoff=dropoff, passengers=passengers)
        except ValueError as err:
            raise ParseError(path, row.line, str(err)) from None
    penalties = {}
    for row in rows["requests"]["penalty"]:
        rid, cost = row.args
        if rid not in requests:
            raise ParseError(path, row.line, f"penalty for undefined request {rid}")
        penalties[rid] = cost

    shuttle_rows: dict[str, _Row] = {}
    for row in fleet["shuttle"]:
        sid, heading, _, _ = row.args
        if sid in shuttle_rows:
            raise ParseError(path, row.line, f"duplicate shuttle id {sid}")
        _check_stops(network, path, row.line, heading)
        shuttle_rows[sid] = row

    committed = {"committed_pickup": {}, "committed_dropoff": {}}
    claimed: set[str] = set()
    for kind, buckets in committed.items():
        for row in fleet[kind]:
            sid, rid = row.args
            if sid not in shuttle_rows:
                raise ParseError(path, row.line, f"{kind} names undefined shuttle {sid}")
            if rid not in requests:
                raise ParseError(path, row.line, f"committed request {rid} never defined")
            if rid in claimed:
                raise ParseError(path, row.line, f"request {rid} is committed twice")
            claimed.add(rid)
            buckets.setdefault(sid, set()).add(requests[rid])

    shuttles = []
    for sid, row in shuttle_rows.items():
        _, heading, arrival, capacity = row.args
        try:
            shuttles.append(ShuttleState(
                id=sid, heading_stop=heading, arrival_time=arrival, capacity=capacity,
                pending_pickups=committed["committed_pickup"].get(sid, set()),
                pending_dropoffs=committed["committed_dropoff"].get(sid, set()),
            ))
        except ValueError as err:
            raise ParseError(path, row.line, str(err)) from None
    open_requests = [r for rid, r in sorted(requests.items()) if rid not in claimed]
    params["penalties"] = penalties
    return open_requests, shuttles, network, params


def parse_routes_text(text: str, path="<routes>") -> list[FixedRoute]:
    rows, _ = _lines(text, path, _ROUTES)
    routes = _routes(rows[""]["route"], path)
    if not routes:
        raise ParseError(path, 1, "no route lines found")
    return routes


# -- outputs -------------------------------------------------------------------

TRIPS_HEADER = ["id", "request_time", "pickup_time", "dropoff_time",
                "waiting", "trip_time", "status", "trip_type"]


def write_trips_csv(records: list[TripRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRIPS_HEADER)
    for r in records:
        writer.writerow([
            r.id, r.request_time,
            "" if r.pickup_time is None else r.pickup_time,
            "" if r.dropoff_time is None else r.dropoff_time,
            "" if r.waiting is None else r.waiting,
            "" if r.trip_time is None else r.trip_time,
            r.status, r.trip_type,
        ])
    return out.getvalue()


def parse_trips_csv(text: str, path="<trips>") -> list[TripRecord]:
    """Read back the records of a ``trips.csv`` written by :func:`write_trips_csv`."""
    reader = csv.DictReader(io.StringIO(text))
    records = []
    for row in reader:
        try:
            records.append(TripRecord(
                id=row["id"],
                request_time=int(row["request_time"]),
                trip_type=row["trip_type"],
                pickup_time=int(row["pickup_time"]) if row["pickup_time"] else None,
                dropoff_time=int(row["dropoff_time"]) if row["dropoff_time"] else None,
                status=row["status"],
            ))
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(path, reader.line_num, f"bad trips row: {err}") from None
    return records


def write_summary_csv(summary) -> str:
    lines = ["section,key,value"]
    stats = [
        ("completed", summary.completed),
        ("abandoned", summary.abandoned),
        ("pending", summary.pending),
        ("mean_waiting", f"{summary.mean_waiting:.1f}"),
        ("median_waiting", f"{summary.median_waiting:.1f}"),
        ("p90_waiting", f"{summary.p90_waiting:.1f}"),
        ("mean_trip", f"{summary.mean_trip:.1f}"),
        ("median_trip", f"{summary.median_trip:.1f}"),
        ("p90_trip", f"{summary.p90_trip:.1f}"),
        ("bin_seconds", summary.bin_seconds),
    ]
    if summary.utilization is not None:
        stats.append(("utilization", f"{summary.utilization:.3f}"))
    lines += [f"stat,{key},{value}" for key, value in stats]
    lines += [f"bin,{start},{mean:.1f}" for start, mean in sorted(summary.bin_mean_trip.items())]
    return "\n".join(lines) + "\n"


def write_solution_text(problem: DispatchProblem, solution: DispatchSolution) -> str:
    out = [f"objective {solution.objective}"]
    for vid in sorted(solution.selected):
        plan = solution.selected[vid]
        ids = ",".join(plan.request_ids) or "-"
        seq = ",".join(plan.sequence) or "-"
        out.append(f"vehicle {vid} cost {plan.cost} requests {ids} sequence {seq}")
    for rid in sorted(solution.missed):
        out.append(f"missed {rid} {problem.penalty(rid)}")
    return "\n".join(out) + "\n"


def write_plans_text(plan_set) -> str:
    out = ["index vehicle cost requests sequence"]
    for vid, plans in plan_set.per_vehicle.items():
        for plan in plans:
            ids = ",".join(plan.request_ids) or "-"
            seq = ",".join(plan.sequence) or "-"
            out.append(f"{len(out) - 1} {vid} {plan.cost} {ids} {seq}")
    return "\n".join(out) + "\n"
