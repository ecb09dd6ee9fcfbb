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
                 member_weight/gateway_weight <id> <weight >= 0>
                 (the ``[scenario]`` seed seeds the profile's draw)
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

Two rules place every other error.  A later line overrides an earlier
one (a setting, ``mix``, ``speed``, ``walk_speed``, a stop's weight, a
request's ``penalty``), and only the value that takes effect is checked.
An object's error names the key at fault -- a setting, a stop, a stop's
weight or an item's position -- and the load fails at that key's line.
The loader checks only the file's own rules: a ``[demand]`` section takes
a file or a profile with a ``rate`` line, graph mode takes no ``speed``,
and every stop, shuttle and request an instance line or a demand-file row
names must be defined (route files have no network to check against).
Every stop a scenario section names is checked by the object that holds
the network, ``ScenarioConfig``, as are all rules that join its parts.

Demand files are CSV: id,request_time,pickup,dropoff,passengers,trip_type,
where a trip_type is empty or one of intra, outbound and inbound.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import NamedTuple

from .demand import DemandProfile
from .errors import ConfigError, LegTimeError, ParseError, UnknownStopError
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


def _at(path: str, err: ConfigError, line_of: dict, default: int) -> ParseError:
    """``err`` at the line of the first key it names that ``line_of`` maps."""
    line = next((line_of[key] for key in err.fields if key in line_of), default)
    return ParseError(path, line, str(err))


def _network(rows: dict, path: str, end: int) -> TravelNetwork:
    """Build a ``[network]`` section; scenario configs and instances share it.

    The ``mode`` line settles which of ``speed`` and ``link`` the section
    takes.  A network error names the line at fault: the repeated ``stop``,
    the ``link`` at fault, the ``speed`` line, or the later ``stop`` line
    of a pair whose distance overflows.
    """
    if not rows["mode"]:
        raise ParseError(path, end, "network section never declared a mode")
    if not rows["stop"]:
        raise ParseError(path, end, "network has no stops")
    mode_row = rows["mode"][-1]
    mode = mode_row.args[0]
    if mode == GRAPH:
        if rows["speed"]:
            raise ParseError(path, rows["speed"][0].line, "graph mode takes no speed")
    elif mode not in (EUCLIDEAN, MANHATTAN):
        raise ParseError(path, mode_row.line, f"unknown network mode {mode!r}")
    elif not rows["speed"]:
        raise ParseError(path, mode_row.line, f"{mode} mode needs a positive speed (m/s)")
    elif rows["link"]:
        raise ParseError(path, rows["link"][0].line, f"{mode} mode takes no links")
    stops = [Stop(*row.args) for row in rows["stop"]]
    try:
        if mode == GRAPH:
            return TravelNetwork.graph(stops, [row.args for row in rows["link"]])
        make = TravelNetwork.euclidean if mode == EUCLIDEAN else TravelNetwork.manhattan
        return make(stops, _last(rows["speed"]))
    except ConfigError as err:  # a repeated stop id
        raise _at(path, err, {("stops", i): row.line for i, row in enumerate(rows["stop"])},
                  end) from None
    except UnknownStopError as err:  # at the first link naming the stop
        line = next(row.line for row in rows["link"] if err.args[0] in row.args[:2])
        raise ParseError(path, line, f"link names unknown stop {err}") from None
    except LegTimeError as err:
        if err.link is not None:
            raise ParseError(path, rows["link"][err.link].line, str(err)) from None
        lines = [row.line for row in rows["stop"] if row.args[0] in err.stops]
        raise ParseError(path, max(lines, default=rows["speed"][-1].line), str(err)) from None


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


def _check_stops(network: TravelNetwork, path: str, line_no: int, *stops) -> None:
    for stop in stops:
        if stop not in network.index:
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

    settings = {**scenario, "walk_speed": rows["baseline"]["walk_speed"]}
    scalars = {key: _last(found) for key, found in settings.items()
               if found and key != "fleet_start"}
    if "horizon" not in scalars or "fleet_size" not in scalars:
        raise ParseError(path, end, "scenario section needs at least horizon and fleet_size")

    region = None
    region_lines = sorted(region_rows["member"] + region_rows["gateway"])
    if region_lines:
        try:
            region = Region(_all(region_rows["member"]), _all(region_rows["gateway"]))
        except ConfigError as err:  # at the last line naming a stop at fault
            raise _at(path, err, {stop: row.line for row in region_lines for stop in row.args},
                      end) from None

    # The line of each key a ConfigError may name; a region stop's is the first naming it.
    line_of = {name: found[-1].line for name, found in settings.items() if found}
    starts = [row.line for row in scenario["fleet_start"] for _ in row.args]
    line_of |= {("fleet_start", i): line for i, line in enumerate(starts)}
    line_of |= {("routes", i): row.line for i, row in enumerate(rows["baseline"]["route"])}
    line_of |= {("region", stop): row.line for row in reversed(region_lines) for stop in row.args}
    line_of |= {("network", row.args[0]): row.line for row in rows["network"]["stop"]}

    demand_requests = None
    demand_types: dict[str, str] = {}
    profile_args = None
    profile_lines = [row.line for key, found in demand.items() if key != "file" for row in found]
    if demand["file"]:
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
    elif profile_lines:
        if not demand["rate"]:
            raise ParseError(path, min(profile_lines), "a demand profile needs a rate line")
        rates, mixes = demand["rate"], demand["mix"]
        weights = {f"{kind}_weights": demand[f"{kind}_weight"] for kind in ("member", "gateway")}
        profile_args = {"rates": [row.args for row in rates],
                        **({"mix": mixes[-1].args} if mixes else {}),
                        **{name: dict(row.args for row in found) for name, found in weights.items()}}
        line_of |= {("rates", i): row.line for i, row in enumerate(rates)}
        line_of |= {"region": rates[0].line, "mix": (mixes[-1] if mixes else rates[0]).line}
        for name, found in weights.items():
            line_of |= {key: row.line for row in found for key in (name, (name, row.args[0]))}

    try:
        return ScenarioConfig(
            network=network,
            region=region,
            demand_profile=DemandProfile(**profile_args) if profile_args else None,
            demand_requests=demand_requests,
            demand_types=demand_types,
            fleet_start=tuple(_all(scenario["fleet_start"])),
            routes=tuple(_routes(rows["baseline"]["route"], path)),
            **scalars,
        )
    except ConfigError as err:
        raise _at(path, err, line_of, end) from None


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
    for key, least in (("max_requests_per_plan", 1), ("miss_penalty", 0)):
        if params[key] < least:
            raise ParseError(path, rows["params"][key][-1].line, f"{key} must be >= {least}")

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
    for rid, row in {row.args[0]: row for row in rows["requests"]["penalty"]}.items():
        if rid not in requests:
            raise ParseError(path, row.line, f"penalty for undefined request {rid}")
        if row.args[1] < 0:
            raise ParseError(path, row.line, f"penalty for {rid} must be >= 0")
        penalties[rid] = row.args[1]

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
