"""Command-line entry points.

Subcommands:

* ``simulate <config>`` -- run the on-demand scenario, write trips.csv
  and summary.csv.
* ``baseline <config>`` -- run the fixed-route baseline for the same
  demand; ``--compare-with`` adds a comparison against a previously
  written on-demand trips file's summary.
* ``sweep <config> --sizes 5 10 20 30`` -- rerun one demand stream at
  several fleet sizes, write per-size summary rows.
* ``solve <instance>`` -- one-shot dispatch: enumerate plans, solve,
  write the selection; ``--dump-plans`` also writes the plan table.
* ``gen-demand <config>`` -- materialize the config's demand profile to
  a demand CSV.
* ``fleetcalc <routes-file> [--shuttles N]`` -- minimum fixed-route
  fleet, plus the cost change if replaced by N shuttles.

A malformed or unreadable input ends the command with one
``odshuttle: <message>`` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .enumeration import enumerate_plans, plan_route
from .errors import OdshuttleError
from .reporting import compare, comparison_csv, comparison_text, summarize
from .simulator import cost_reduction, min_fleet_fixed_routes, run_baseline, run_scenario, sweep_fleet_sizes
from .solver import DispatchProblem, solve_dispatch


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def cmd_simulate(args):
    config = fileio.load_scenario(args.config)
    result = run_scenario(config)
    out = Path(args.out_dir)
    _write(out / "trips.csv", fileio.write_trips_csv(result.records))
    _write(out / "summary.csv", fileio.write_summary_csv(result.summary))
    s = result.summary
    print(f"completed {s.completed}, abandoned {s.abandoned}, pending {s.pending}; "
          f"mean waiting {s.mean_waiting:.1f} s, mean trip {s.mean_trip:.1f} s")
    return 0


def cmd_baseline(args):
    config = fileio.load_scenario(args.config)
    result = run_baseline(config)
    out = Path(args.out_dir)
    _write(out / "baseline_trips.csv", fileio.write_trips_csv(result.records))
    _write(out / "baseline_summary.csv", fileio.write_summary_csv(result.summary))
    s = result.summary
    print(f"completed {s.completed}, unserved {s.abandoned}; "
          f"mean waiting {s.mean_waiting:.1f} s, mean trip {s.mean_trip:.1f} s")
    if args.compare_with:
        trips_path = Path(args.compare_with)
        ondemand_records = fileio.parse_trips_csv(trips_path.read_text(), str(trips_path))
        ondemand_summary = summarize(ondemand_records, bin_seconds=config.bin_seconds)
        cmp = compare(result.summary, ondemand_summary)
        _write(out / "comparison.csv", comparison_csv(cmp))
        _write(out / "comparison.txt", comparison_text(cmp))
        print(comparison_text(cmp), end="")
    return 0


def cmd_sweep(args):
    config = fileio.load_scenario(args.config)
    summaries = sweep_fleet_sizes(config, args.sizes)
    lines = ["fleet_size,completed,abandoned,pending,mean_waiting,mean_trip,p90_trip,utilization"]
    for size in args.sizes:
        s = summaries[size]
        util = "" if s.utilization is None else f"{s.utilization:.3f}"
        lines.append(f"{size},{s.completed},{s.abandoned},{s.pending},"
                     f"{s.mean_waiting:.1f},{s.mean_trip:.1f},{s.p90_trip:.1f},{util}")
    text = "\n".join(lines) + "\n"
    _write(Path(args.out_dir) / "sweep_summary.csv", text)
    print(text, end="")
    return 0


def cmd_solve(args):
    path = Path(args.instance)
    requests, shuttles, network, params = fileio.parse_instance_text(path.read_text(), str(path))
    plan_set = enumerate_plans(shuttles, requests, params["max_requests_per_plan"], network)
    penalties = {r.id: params["penalties"].get(r.id, params["miss_penalty"]) for r in requests}
    problem = DispatchProblem(requests=tuple(requests), plan_set=plan_set,
                              miss_penalty=penalties)
    solution = solve_dispatch(problem)
    # Plans carry no route: each printed plan is routed for its vehicle.
    state = {v.id: v for v in shuttles}

    def route(vid, plan):
        return plan_route(state[vid], plan, network)

    text = fileio.write_solution_text(problem, solution, route)
    if args.out:
        _write(Path(args.out), text)
    print(text, end="")
    if args.dump_plans:
        _write(Path(args.dump_plans), fileio.write_plans_text(plan_set, route))
    return 0


def cmd_gen_demand(args):
    config = fileio.load_scenario(args.config)
    requests = config.resolve_requests()
    types = {r.id: config.trip_type_of(r) for r in requests}
    _write(Path(args.out), fileio.write_demand_csv(requests, types))
    print(f"{len(requests)} requests over {config.horizon} s")
    return 0


def cmd_fleetcalc(args):
    routes = fileio.parse_routes_text(Path(args.routes).read_text(), args.routes)
    buses = min_fleet_fixed_routes(routes)
    print(f"minimum fixed-route fleet: {buses}")
    if args.shuttles is not None:
        change = cost_reduction(buses, args.shuttles)
        print(f"replacing with {args.shuttles} shuttles: {change:.1f}% cost reduction")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odshuttle",
                                     description="On-demand shuttle dispatch and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the on-demand scenario")
    p.add_argument("config")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="run the fixed-route baseline")
    p.add_argument("config")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--compare-with", help="on-demand trips.csv to compare against")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep", help="rerun one demand stream at several fleet sizes")
    p.add_argument("config")
    p.add_argument("--sizes", nargs="+", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("solve", help="one-shot dispatch from an instance file")
    p.add_argument("instance")
    p.add_argument("--out")
    p.add_argument("--dump-plans")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen-demand", help="materialize the demand profile to CSV")
    p.add_argument("config")
    p.add_argument("--out", default="demand.csv")
    p.set_defaults(func=cmd_gen_demand)

    p = sub.add_parser("fleetcalc", help="minimum fleet for fixed routes")
    p.add_argument("routes")
    p.add_argument("--shuttles", type=int)
    p.set_defaults(func=cmd_fleetcalc)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad or unreadable input is reported in one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OdshuttleError, OSError) as err:
        print(f"odshuttle: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
