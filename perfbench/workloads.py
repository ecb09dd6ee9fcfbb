"""Benchmark workloads: scenario configs derived from the bundled ones.

Each workload edits a bundled scenario (``scenarios/*.cfg``) line by
line and sets its ``seed`` from the benchmark's ``--seed``, so the same
seed always yields the same config text and hence the same demand.  The
program itself only ever sees the generated config file.

Why each workload exists, and which layer it loads, is recorded in
``WHY`` (and mirrored in ``BENCHMARK.json``).
"""

from __future__ import annotations

from pathlib import Path

WHY = {
    "peak_stress": "4x the bundled peak rate held 45 min on 20 shuttles: sequencing branch and "
                   "bound (costing) dominates; shows sequencing bounds, warm starts, dedup",
    "wide_fleet": "40 shuttles, many idle and identical, one request per plan: the "
                  "set-partitioning solver leads; shows solver search and symmetry work",
    "sparse_week": "a week at 12 req/h on 5 shuttles: ~20k ticks and ~20k tiny sequencing "
                   "calls, so per-tick simulator and per-call costing overhead set its time",
}


def _edit(text: str, section: str, key: str, lines: list[str]) -> str:
    """Replace the ``key`` lines of ``[section]`` by ``lines``, placed where the first was."""
    out: list[str] = []
    current = ""
    placed = False
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and stripped.split()[:1] == [key]:
            if not placed:
                out.extend(lines)
                placed = True
            continue
        out.append(raw)
    if not placed:
        raise ValueError(f"no {key!r} line in [{section}] to replace")
    return "\n".join(out) + "\n"


def _set(text: str, section: str, **values) -> str:
    for key, value in values.items():
        text = _edit(text, section, key, [f"{key} {value}"])
    return text


def peak_stress(base: str, seed: int) -> str:
    # Four times the bundled 80 req/h peak, held for 45 min: the fleet stays
    # saturated, so every pass sequences full intakes.  Intake 3 rather
    # than the bundled 6 keeps single solves from running for seconds,
    # which made run time swing with the seed.
    text = _set(base, "scenario", fleet_size=20, max_requests_per_tick=3, seed=seed)
    return _steady(text, rate=4 * 80, demand_s=2700, drain_s=900)


def wide_fleet(base: str, seed: int) -> str:
    # 40 shuttles start idle and identical at m11, and idle shuttles
    # gather at drop-off stops: many tied vehicles, where the solver's
    # search is widest.  Tied shuttles make some passes slow: with 100
    # shuttles 5% of passes took 0.4-0.7 s, so run time swung 3x between
    # draws; with 50, 9-10% took 45-130 ms against ~11 ms for the rest, so
    # p90 sat on that step and jumped with the seed.  With 40, ~6% do.
    text = _set(base, "scenario", fleet_size=40, fleet_start="m11",
                max_requests_per_plan=1, max_requests_per_tick=2, seed=seed)
    return _steady(text, rate=240, demand_s=1800, drain_s=900)


def sparse_week(base: str, seed: int) -> str:
    text = _set(base, "scenario", seed=seed)
    return _steady(text, rate=12, demand_s=168 * 3600, drain_s=1800)


def _steady(text: str, rate: float, demand_s: int, drain_s: int) -> str:
    """One constant demand rate for ``demand_s``, then ``drain_s`` without demand."""
    text = _set(text, "scenario", horizon=demand_s + drain_s)
    return _edit(text, "demand", "rate", [f"rate 0 {demand_s} {rate:g}"])


# workload name -> (bundled config it derives from, generator, fixed draws per
# seed).  The draw counts make one pass over the fixed draws take 20-40 s
# on a shared 2-vCPU host, depending on its speed at the time.
WORKLOADS = {
    "peak_stress": ("peakdemand.cfg", peak_stress, 14),
    "wide_fleet": ("peakdemand.cfg", wide_fleet, 30),
    "sparse_week": ("lowridership.cfg", sparse_week, 22),
}


def scenario_text(root: Path, workload: str, seed: int) -> str:
    """Config text of ``workload`` for ``seed``, from ``root/scenarios``."""
    base_name, generate, _ = WORKLOADS[workload]
    base = (root / "scenarios" / base_name).read_text()
    return generate(base, seed)
