"""One benchmark run of one scenario, in a fresh process.

    python3 perfbench/child.py --config CFG --out DIR --mode plain|traced
                               [--expect TRIPS_SHA256 SUMMARY_SHA256]

Runs the public pipeline ``fileio.parse_scenario_text`` ->
``ScenarioConfig.resolve_requests`` -> ``simulator.run_scenario`` ->
``simulator.run_baseline`` -> ``fileio.write_trips_csv`` /
``write_summary_csv`` and prints one JSON object on stdout.

First and last the child times a fixed computation (``reference_s``),
so that the harness can scale its timings by the host's speed during
the run.  ``setup_s`` runs from after the first of these to the demand
list: the import of odshuttle, the parse and the demand generation.

``plain`` mode only timestamps the ``enumerate_plans`` call and the
``solve_dispatch`` return of each dispatch pass.  ``traced`` mode wraps
the layer entry points from outside (see ``tracer.py``), audits every
solve with ``solver.check_solution``, and writes the spans to
``DIR/spans.jsonl``.

A failed run still prints JSON, with ``ok`` false and the error class.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailure(Exception):
    """An output or invariant check failed; ``kind`` classifies it."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


def classify(err: BaseException) -> str:
    if isinstance(err, RunFailure):
        return err.kind
    if isinstance(err, RecursionError):
        return "recursion"
    if isinstance(err, AssertionError):
        return "invariant"
    if type(err).__name__ == "InstanceTooLargeError":
        return "instance_too_large"
    return "exception"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Stop:
    __slots__ = ("name", "load", "links")

    def __init__(self, name: int, load: int):
        self.name, self.load, self.links = name, load, []


def reference_s() -> float:
    """Wall seconds of a fixed computation in the program's style.

    Attribute reads, small tuple sorts and dict updates, as in sequencing
    and plan enumeration, so a host that runs the program slower runs
    this slower by about as much.  Its objects are few, so that it does
    not raise the child's peak resident set.  The
    collector is off, so that collecting the program's objects does not
    land in the sample.
    """
    stops = [_Stop(i, i * 7 % 13) for i in range(1000)]
    for i, stop in enumerate(stops):
        stop.links = [stops[(i * 31 + k) % 1000] for k in range(4)]
    gc.disable()
    try:
        began = time.perf_counter()
        seen: dict = {}
        total = 0
        for i in range(20000):
            stop = stops[i * 17 % 1000]
            route = tuple(sorted((s.load, s.name) for s in stop.links))
            key = (stop.name % 101, route[0])
            seen[key] = seen.get(key, 0) + route[-1][0]
            total += len(seen) + stop.load
        elapsed = time.perf_counter() - began
    finally:
        gc.enable()
    assert total == 19620500, total  # the same work every time
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident set of this process since its exec.

    ``ru_maxrss`` would not do: Linux carries the parent's peak across
    the fork and exec that started this process, so it reads at least
    the harness's own size.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def install_pass_timer(simulator):
    """Time each dispatch pass: ``enumerate_plans`` call to ``solve_dispatch`` return."""
    clock = time.perf_counter
    passes: list[float] = []
    plans = [0]
    started = [0.0]
    enumerate_plans, solve_dispatch = simulator.enumerate_plans, simulator.solve_dispatch

    def timed_enumerate(*args, **kwargs):
        started[0] = clock()
        plan_set = enumerate_plans(*args, **kwargs)
        plans[0] += len(plan_set.plans)
        return plan_set

    def timed_solve(*args, **kwargs):
        solution = solve_dispatch(*args, **kwargs)
        passes.append((clock() - started[0]) * 1000.0)
        return solution

    simulator.enumerate_plans = timed_enumerate
    simulator.solve_dispatch = timed_solve
    return passes, plans


def run(config_path: Path, out_dir: Path, mode: str, expect) -> dict:
    references = [reference_s()]
    setup_began = time.perf_counter()
    from odshuttle import fileio, simulator

    tracer = None
    if mode == "traced":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    passes, plans = install_pass_timer(simulator)

    config = fileio.parse_scenario_text(config_path.read_text(), path=str(config_path),
                                        base_dir=config_path.parent)
    requests = config.resolve_requests()
    setup_s = time.perf_counter() - setup_began

    t0 = time.perf_counter()
    result = simulator.run_scenario(config, requests)
    run_s = time.perf_counter() - t0
    simulator.run_baseline(config, requests)

    trips = fileio.write_trips_csv(result.records)
    summary = fileio.write_summary_csv(result.summary)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trips.csv").write_text(trips)
    (out_dir / "summary.csv").write_text(summary)

    s = result.summary
    if s.completed + s.abandoned + s.pending != len(requests) or len(result.records) != len(requests):
        raise RunFailure("conservation",
                         f"{s.completed} completed + {s.abandoned} abandoned + {s.pending} pending"
                         f" over {len(result.records)} records != {len(requests)} requests")
    hashes = [sha256(trips), sha256(summary)]
    if expect and hashes != list(expect):
        raise RunFailure("hash_mismatch", f"trips/summary sha256 {hashes} != recorded {list(expect)}")

    report = {
        "ok": True,
        "setup_s": setup_s,
        "run_s": run_s,
        "pass_ms": passes,
        "requests": len(requests),
        "dispatch_passes": len(passes),
        "plans_in": plans[0],
        "trips_sha256": hashes[0],
        "summary_sha256": hashes[1],
        "svc_mean_wait_s": s.mean_waiting,
        "svc_mean_trip_s": s.mean_trip,
        "svc_served_frac": s.completed / len(requests) if requests else 1.0,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        if layers["solver.audit_violations"]:
            raise RunFailure("audit", f"{layers['solver.audit_violations']} solution audit violations")
        tracer.write_spans(out_dir / "spans.jsonl")
        report["layers"] = layers
    report["peak_rss_mb"] = peak_rss_mb()
    references.append(reference_s())  # after the peak is read, so it cannot raise it
    report["reference_s"] = references
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--expect", nargs=2, metavar=("TRIPS", "SUMMARY"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    try:
        report = run(args.config, args.out, args.mode, args.expect)
    except Exception as err:  # one failing run is reported, never fatal to the harness
        traceback.print_exc()
        report = {"ok": False, "error_class": classify(err),
                  "error": f"{type(err).__name__}: {err}"[:500]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
