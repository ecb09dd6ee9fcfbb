"""Dispatch benchmark for odshuttle.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A seed stands for a sequence of demand draws of the workload's scenario
(draw ``k`` uses scenario seed ``1000*N + k``); see ``workloads.py`` for
the scenarios and why each was chosen.  Every simulation runs in a fresh
single-threaded child process (``child.py``), one at a time, so one host
core carries the load and nothing else of the harness runs meanwhile.
This is a batch simulator: demand arrives on the simulated clock, so
there is no open or closed request loop.

Each workload has a fixed number of draws per seed (``WORKLOADS`` in
``workloads.py``).  ``--trace 0`` makes one pass over them, and further
whole passes while another fits in ``--seconds``; with a single pass it
runs draw 0 again to check that it repeats.  Every timing thus comes
from the same inputs for a seed, however fast the program is.  ``run_s``
is the mean over the runs, the host time a draw of this size takes;
the other timings are medians.  Both spread the seed-to-seed variation
of the work and the host's short speed swings over many samples; for
the draw times, which vary about symmetrically with the demand, the
mean varies less from seed to seed than the median.

A shared host's speed also drifts by up to a quarter between runs a
minute apart, which no median within one run removes.  So each child
times a fixed pure-Python computation (``child.reference_s``) first and
last, and every host timing of the run is scaled by ``REFERENCE_S`` over
the mean of those samples: the timings are seconds on a host where the
reference takes ``REFERENCE_S``.  The raw timings and the reference's
mean are printed beside them.

``--trace 1`` runs draws 0 to ``TRACED_DRAWS - 1`` untraced
and then traced, plus a second traced run of draw 0, and reports the
per-layer metrics.

Every run is checked: request conservation, the sha256 of ``trips.csv``
and ``summary.csv`` against ``fingerprints.json`` when that draw is
recorded there, and otherwise against the other runs of the same draw.
Traced runs also audit each solve with ``solver.check_solution`` and
must repeat the deterministic counters exactly.  A run that fails is
classified and counted in ``failed``; it never aborts the benchmark.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the program's sources
beside this directory the benchmark exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import nearest_rank
from workloads import WHY, WORKLOADS, scenario_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"
TRACED_DRAWS = 6
REFERENCE_S = 0.030  # about what a 2.1 GHz Xeon vCPU of a busy shared host reads
HARD_LIMIT_S = 170.0  # a run must end within 180 s

# Counters that must repeat exactly between runs of one draw.
COUNTERS = ("requests", "dispatch_passes", "plans_in")
LAYER_COUNTERS = ("costing.calls", "costing.distinct_calls", "network.travel_time_calls",
                  "enumeration.plans", "solver.plans_in", "simulator.dispatch_passes")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "dispatch_p50_ms": "ms", "dispatch_p90_ms": "ms",
    "peak_rss_mb": "MB", "svc_mean_wait_s": "sim_s", "svc_mean_trip_s": "sim_s",
    "svc_served_frac": "fraction",
}
LAYER_UNITS = {
    "simulator.self_s": "s", "simulator.dispatch_passes": "count", "simulator.baseline_s": "s",
    "enumeration.self_s": "s", "enumeration.plans": "count",
    "enumeration.plans_per_pass_max": "count",
    "costing.self_s": "s", "costing.calls": "count", "costing.distinct_calls": "count",
    "costing.distinct_ratio": "ratio", "costing.feasible_ratio": "ratio",
    "costing.call_p50_us": "us", "costing.call_p99_us": "us",
    "network.travel_time_calls": "count", "network.lookups_per_costing_call": "count",
    "solver.self_s": "s", "solver.calls": "count", "solver.call_p50_ms": "ms",
    "solver.call_max_ms": "ms", "solver.plans_in": "count", "solver.audit_violations": "count",
    "demand.generate_s": "s", "fileio.parse_s": "s", "fileio.write_s": "s",
    "fileio.bytes_out": "bytes", "reporting.summarize_s": "s", "trace.overhead_frac": "ratio",
}


class Abort(Exception):
    """The benchmark cannot run here at all; no result is printed."""


class Bench:
    """One benchmark invocation: its children, their results and their failures."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []  # (draw seed, class, message)
        self.hashes: dict[int, list[str]] = {}
        self.counters: dict[int, dict] = {}
        recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
        self.recorded = recorded.get(workload, {})

    def draw(self, k: int) -> int:
        return self.seed * 1000 + k

    def scale(self, reports: list[dict]) -> float:
        """Host timings of ``reports`` times this are seconds at ``REFERENCE_S``."""
        samples = [s for r in reports for s in r["reference_s"]]
        return REFERENCE_S / statistics.fmean(samples) if samples else 1.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, draw: int, mode: str) -> dict | None:
        """Run one child; return its report, or None after recording a failure."""
        out = OUT / self.workload / str(draw)
        out.mkdir(parents=True, exist_ok=True)
        config = out / "scenario.cfg"
        config.write_text(scenario_text(ROOT, self.workload, draw))
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config),
               "--out", str(out), "--mode", mode]
        expect = self.recorded.get(str(draw))
        if expect:
            cmd += ["--expect", *expect]
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return self.fail(draw, "timeout", f"{mode} run passed the {HARD_LIMIT_S:.0f} s limit")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self.fail(draw, "crash", f"exit {proc.returncode}: {proc.stderr[-500:]}")
        if not report["ok"]:
            return self.fail(draw, report["error_class"], report["error"])

        hashes = [report["trips_sha256"], report["summary_sha256"]]
        if self.hashes.setdefault(draw, hashes) != hashes:
            return self.fail(draw, "hash_mismatch",
                             f"{mode} output sha256 differs from an earlier run of this draw")
        counters = {k: report[k] for k in COUNTERS}
        counters.update({k: report["layers"][k] for k in LAYER_COUNTERS if "layers" in report})
        seen = self.counters.setdefault(draw, {})
        if any(seen[k] != counters[k] for k in seen.keys() & counters.keys()):
            return self.fail(draw, "counter_mismatch", f"{mode} counters {counters} != earlier {seen}")
        seen.update(counters)
        report["draw"] = draw
        return report

    def fail(self, draw: int, kind: str, message: str) -> None:
        self.failures.append((draw, kind, message))
        print(f"FAILED {self.workload} draw {draw}: {kind}: {message}", file=sys.stderr)
        return None

    def out_of_time(self, typical: float) -> bool:
        return self.elapsed() + typical > HARD_LIMIT_S


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def mean_or_zero(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(bench: Bench) -> tuple[dict, list[str]]:
    """Whole untraced passes over the fixed draws while another pass fits."""
    draws = WORKLOADS[bench.workload][2]
    reports: list[dict] = []
    fixed: list[dict] = []  # the first pass; later passes repeat its simulated results
    rounds = 0
    last = 0.0
    while not bench.out_of_time(last):
        pass_began = time.perf_counter()
        for k in range(draws):
            began = time.perf_counter()
            report = bench.child(bench.draw(k), "plain")
            last = time.perf_counter() - began
            if report is not None:
                reports.append(report)
                if rounds == 0:
                    fixed.append(report)
            if bench.out_of_time(last):
                break
        rounds += 1
        if bench.elapsed() + (time.perf_counter() - pass_began) > bench.seconds:
            break
    if rounds == 1 and not bench.out_of_time(last):
        bench.child(bench.draw(0), "plain")  # must repeat hashes and counters

    scale = bench.scale(reports)
    passes = sorted(ms * scale for r in reports for ms in r["pass_ms"])
    metrics = {
        "setup_s": median_or_zero([r["setup_s"] for r in reports]) * scale,
        "run_s": mean_or_zero([r["run_s"] for r in reports]) * scale,
        "dispatch_p50_ms": nearest_rank(passes, 0.50),
        "dispatch_p90_ms": nearest_rank(passes, 0.90),
        "peak_rss_mb": median_or_zero([r["peak_rss_mb"] for r in reports]),
        "svc_mean_wait_s": mean_or_zero([r["svc_mean_wait_s"] for r in fixed]),
        "svc_mean_trip_s": mean_or_zero([r["svc_mean_trip_s"] for r in fixed]),
        "svc_served_frac": mean_or_zero([r["svc_served_frac"] for r in fixed]),
    }
    n, d = len(reports), len(fixed)
    raw = sorted(ms for r in reports for ms in r["pass_ms"])
    notes = {
        "setup_s": (f"median of {n} runs (import, parse, demand generation); raw "
                    f"{median_or_zero([r['setup_s'] for r in reports]):.4f}"),
        "run_s": (f"mean of {n} runs of {d} draws in {rounds} pass(es); raw "
                  f"{mean_or_zero([r['run_s'] for r in reports]):.4f}; per draw median "
                  f"{median_or_zero([r['requests'] for r in reports]):.0f} requests, "
                  f"{median_or_zero([r['dispatch_passes'] for r in reports]):.0f} dispatch passes"),
        "dispatch_p50_ms": (f"{len(passes)} passes, enumerate_plans call to solve_dispatch "
                            f"return; raw {nearest_rank(raw, 0.50):.4f}"),
        "dispatch_p90_ms": (f"{len(passes)} passes, {len(passes) - round(0.9 * len(passes))} "
                            f"beyond p90; raw {nearest_rank(raw, 0.90):.4f}"),
        "peak_rss_mb": f"median of {n} child processes",
        "svc_mean_wait_s": f"simulated; mean over the {d} draws",
        "svc_mean_trip_s": f"simulated; mean over the {d} draws",
        "svc_served_frac": f"simulated; completed / requests, mean over the {d} draws",
    }
    lines = [f"  host timings are scaled to a {REFERENCE_S * 1000:.0f} ms reference; it read "
             f"{REFERENCE_S * 1000 / scale:.2f} ms (mean of {2 * n}), so the scale is {scale:.4f}"]
    lines += [f"  {name:<17} {value:>12.4f} {END_TO_END_UNITS[name]:<8} {notes[name]}"
              for name, value in metrics.items()]
    lines.append(f"  {'error_rate':<17} {len(bench.failures) / max(1, bench.attempted):>12.4f} "
                 f"{'fraction':<8} {len(bench.failures)} failed / {bench.attempted} attempted")
    for r in fixed:
        lines.append(f"  draw {r['draw']}: raw run_s {r['run_s']:.4f} s; "
                     + ", ".join(f"{c} {r[c]}" for c in COUNTERS)
                     + f"; trips {r['trips_sha256'][:12]} summary {r['summary_sha256'][:12]}")
    return metrics, lines


def per_layer(bench: Bench) -> tuple[dict, list[str]]:
    """Fixed draws untraced then traced, plus a traced repeat of the first draw."""
    plain: list[dict] = []
    traced: list[dict] = []
    last = 0.0
    for k in range(TRACED_DRAWS):
        began = time.perf_counter()
        for mode, kept in (("plain", plain), ("traced", traced)):
            report = bench.child(bench.draw(k), mode)
            if report is not None:
                kept.append(report)
        last = time.perf_counter() - began
        if bench.out_of_time(last):
            break
    if not bench.out_of_time(last):
        bench.child(bench.draw(0), "traced")  # must repeat hashes and counters

    scale = bench.scale(plain + traced)
    metrics = {name: median_or_zero([r["layers"][name] for r in traced])
               * (scale if LAYER_UNITS[name] in ("s", "ms", "us") else 1.0)
               for name in LAYER_UNITS if name != "trace.overhead_frac"}
    plain_s = median_or_zero([r["run_s"] for r in plain]) * scale
    traced_s = median_or_zero([r["run_s"] for r in traced]) * scale
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
    lines = [f"  {name:<34} {value:>14.4f} {LAYER_UNITS[name]}" for name, value in metrics.items()]
    lines.insert(0, f"  per-layer values are medians over {len(traced)} traced draws; times are "
                    f"scaled by {scale:.4f} to a {REFERENCE_S * 1000:.0f} ms host reference")
    lines.append(f"  traced run_s {traced_s:.4f} s vs untraced {plain_s:.4f} s (medians)")
    for r in traced:
        lines.append(f"  draw {r['draw']}: raw run_s {r['run_s']:.4f} s; "
                     + ", ".join(f"{c} {r['layers'][c]}" for c in LAYER_COUNTERS))
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Bench]:
    bench = Bench(workload, seed, seconds)
    metrics, lines = (per_layer if trace else end_to_end)(bench)
    print(f"{workload} seed {seed} ({'traced' if trace else 'untraced'}): {WHY[workload]}")
    print("\n".join(lines))
    for draw, kind, message in bench.failures:
        print(f"  failed draw {draw}: {kind}: {message}")
    return metrics, bench


def preflight(workloads):
    missing = [p for p in [ROOT / "src" / "odshuttle" / "__init__.py"]
               + [ROOT / "scenarios" / WORKLOADS[w][0] for w in workloads] if not p.is_file()]
    if missing:
        raise Abort("benchmark inputs missing: " + ", ".join(str(p) for p in missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        preflight(workloads)
        results = [(w, *run_workload(w, args.seed, args.seconds, bool(args.trace)))
                   for w in workloads]
    except Abort as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    prefix = len(workloads) > 1
    metrics = {(f"{w}.{name}" if prefix else name): {"value": value, "unit": units[name]}
               for w, values, _ in results for name, value in values.items()}
    attempted = sum(b.attempted for _, _, b in results)
    failed = sum(len(b.failures) for _, _, b in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
