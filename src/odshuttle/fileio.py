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
weight or an item's position (a network stop or link, a route, a rate
piece) -- and the load fails at that key's line.  A ``ConfigError``
carries those keys, and one handler, :func:`_at`, maps them to lines.
The loader checks only the file's own rules: a ``[demand]`` section takes
a file or a profile with a ``rate`` line, graph mode takes no ``speed``,
and every shuttle and request an instance row names must be defined.  The
network states the stop rules (``check_known``, ``check_reachable``), for
an instance's rows and for ``ScenarioConfig``, which checks every rule
that joins a config's parts, a demand file's requests among them; a key
in the demand file fails at that file's row.
An instance holds no ``ScenarioConfig``, so its loader checks its
``[params]`` and ``penalty`` values itself, but against the config's bound
table (``simulator.LEAST``), and takes a missing param's default from the
config's field default.

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
from .errors import ConfigError, ParseError
from .network import EUCLIDEAN, GRAPH, MANHATTAN, Region, TravelNetwork
from .simulator import LEAST, TRIP_TYPES, FixedRoute, ScenarioConfig, TripRecord
from .solver import DispatchProblem
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
    """``err`` at the line of the first key it names that ``line_of`` maps; a
    ``(path, line)`` value places the key in another file."""
    line = next((line_of[key] for key in err.fields if key in line_of), default)
    if isinstance(line, tuple):
        path, line = line
    return ParseError(path, line, str(err))


def _network(rows: dict, path: str, end: int) -> TravelNetwork:
    """Build a ``[network]`` section; scenario configs and instances share it.

    The ``mode`` line settles which of ``speed`` and ``link`` the section
    takes.  A network error names the key at fault, and the load fails at
    its line: a ``stop`` (a repeat, or the later of a pair whose distance
    overflows), a ``link``, or the ``speed``.
    """
    if not rows["mode"]:
        raise ParseError(path, end, "network section never declared a mode")
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
    except ConfigError as err:
        line_of = {("stops", i): row.line for i, row in enumerate(rows["stop"])}
        line_of |= {("links", i): row.line for i, row in enumerate(rows["link"])}
        line_of |= {"speed": row.line for row in rows["speed"][-1:]}
        raise _at(path, err, line_of, end) from None


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


# -- demand ---------------------------------------------------------------------

DEMAND_HEADER = ["id", "request_time", "pickup", "dropoff", "passengers", "trip_type"]


def parse_demand_csv(text: str, path="<demand>") -> tuple[list[TripRequest], dict, list[int]]:
    """Requests, declared trip types by id and each request's line of a demand CSV.
    Only row syntax and ``TripRequest``'s own rules are checked here."""
    reader = csv.DictReader(io.StringIO(text))
    requests, types, lines = [], {}, []
    for row in reader:
        try:
            requests.append(TripRequest(
                id=row["id"],
                pickup=row["pickup"],
                dropoff=row["dropoff"],
                request_time=int(row["request_time"]),
                passengers=int(row.get("passengers") or 1),
            ))
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(path, reader.line_num, f"bad demand row: {err}") from None
        lines.append(reader.line_num)
        if row.get("trip_type"):
            types[row["id"]] = row["trip_type"]
    return requests, types, lines


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
        reqs, demand_types, demand_lines = parse_demand_csv(demand_text, path=str(target))
        demand_requests = tuple(reqs)
        line_of |= {("demand_requests", i): (str(target), n) for i, n in enumerate(demand_lines)}
        line_of |= {("demand_types", r.id): (str(target), n) for r, n in zip(reqs, demand_lines)}
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
    params = {key: _last(found, getattr(ScenarioConfig, key))
              for key, found in rows["params"].items()}
    for key, value in params.items():
        if value < LEAST[key]:
            raise ParseError(path, rows["params"][key][-1].line, f"{key} must be >= {LEAST[key]}")

    requests: dict[str, TripRequest] = {}
    for row in rows["requests"]["request"]:
        rid, request_time, pickup, dropoff, passengers = row.args
        if rid in requests:
            raise ParseError(path, row.line, f"duplicate request id {rid}")
        try:
            requests[rid] = TripRequest(id=rid, request_time=request_time, pickup=pickup,
                                        dropoff=dropoff, passengers=passengers)
        except ValueError as err:
            raise ParseError(path, row.line, str(err)) from None
    penalties = {}
    for rid, row in {row.args[0]: row for row in rows["requests"]["penalty"]}.items():
        if rid not in requests:
            raise ParseError(path, row.line, f"penalty for undefined request {rid}")
        if row.args[1] < LEAST["miss_penalty"]:
            raise ParseError(path, row.line, f"penalty for {rid} must be >= {LEAST['miss_penalty']}")
        penalties[rid] = row.args[1]

    shuttle_rows: dict[str, _Row] = {}
    for row in fleet["shuttle"]:
        sid = row.args[0]
        if sid in shuttle_rows:
            raise ParseError(path, row.line, f"duplicate shuttle id {sid}")
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
    # Each stop a row names, keyed by the row's line, where an unknown one fails;
    # in file order (a stable sort keeps a pickup before its drop-off).
    named = [(row.line, s) for row in rows["requests"]["request"] for s in row.args[2:4]]
    named += [(row.line, row.args[1]) for row in fleet["shuttle"]]
    named.sort(key=lambda pair: pair[0])
    try:
        network.check_known(named)
        network.check_reachable(s for _, s in named)
    except ConfigError as err:
        line_of = {line: line for line, _ in named}
        line_of |= {("network", row.args[0]): row.line for row in rows["network"]["stop"]}
        raise _at(path, err, line_of, end) from None
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
    """Read back the records of a ``trips.csv`` written by :func:`write_trips_csv`,
    failing at the first row no run writes."""
    reader = csv.DictReader(io.StringIO(text))
    records = []
    seen = set()
    for row in reader:
        try:
            record = TripRecord(
                id=row["id"],
                request_time=int(row["request_time"]),
                trip_type=row["trip_type"],
                pickup_time=int(row["pickup_time"]) if row["pickup_time"] else None,
                dropoff_time=int(row["dropoff_time"]) if row["dropoff_time"] else None,
                status=row["status"],
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(path, reader.line_num, f"bad trips row: {err}") from None
        if record.status not in ("completed", "abandoned", "pending"):
            raise ParseError(path, reader.line_num, f"unknown trip status {record.status!r}")
        if record.status == "completed" and None in (record.pickup_time, record.dropoff_time):
            raise ParseError(path, reader.line_num, "a completed trip needs both times")
        if record.status == "abandoned" and (record.pickup_time, record.dropoff_time) != (
                None, None):
            raise ParseError(path, reader.line_num, "an abandoned trip has no times")
        if record.pickup_time is None and record.dropoff_time is not None:
            raise ParseError(path, reader.line_num, "a drop-off needs a pickup")
        if record.trip_type not in TRIP_TYPES:
            raise ParseError(path, reader.line_num, f"unknown trip type {record.trip_type!r}")
        if record.id in seen:
            raise ParseError(path, reader.line_num, f"duplicate trip id {record.id!r}")
        seen.add(record.id)
        times = [t for t in (record.request_time, record.pickup_time, record.dropoff_time)
                 if t is not None]
        if record.request_time < 0 or times != sorted(times):
            raise ParseError(path, reader.line_num, "trip times must run 0 <= request <= "
                             "pickup <= drop-off")
        for column, value, rule in (("waiting", record.waiting, "pickup - request"),
                                    ("trip_time", record.trip_time, "drop-off - request")):
            if row.get(column) != ("" if value is None else str(value)):
                raise ParseError(path, reader.line_num, f"{column} must be {rule}, "
                                 "or empty without that time")
        records.append(record)
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


def write_solution_text(problem: DispatchProblem, solution: DispatchSolution, route) -> str:
    """The selection, one line per vehicle with its plan's stop route, then the missed.

    ``route(vehicle_id, plan)`` gives the route of a plan of that vehicle.
    """
    out = [f"objective {solution.objective}"]
    for vid in sorted(solution.selected):
        plan = solution.selected[vid]
        ids = ",".join(plan.request_ids) or "-"
        seq = ",".join(route(vid, plan)) or "-"
        out.append(f"vehicle {vid} cost {plan.cost} requests {ids} sequence {seq}")
    for rid in sorted(solution.missed):
        out.append(f"missed {rid} {problem.penalty(rid)}")
    return "\n".join(out) + "\n"


def write_plans_text(plan_set, route) -> str:
    """Every plan, one line each with its stop route from ``route(vehicle_id, plan)``."""
    out = ["index vehicle cost requests sequence"]
    for vid, plans in plan_set.per_vehicle.items():
        for plan in plans:
            ids = ",".join(plan.request_ids) or "-"
            seq = ",".join(route(vid, plan)) or "-"
            out.append(f"{len(out) - 1} {vid} {plan.cost} {ids} {seq}")
    return "\n".join(out) + "\n"
