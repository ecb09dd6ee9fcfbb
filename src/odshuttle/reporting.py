"""Aggregation of trip records into comparison metrics.

Summaries cover completed trips only; abandoned trips show up as counts.
Percentiles use the nearest-rank rule on sorted values, which keeps
integer-second inputs integer.  Time bins key on the request time.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate service quality for one run."""

    completed: int
    abandoned: int
    pending: int
    mean_waiting: float
    median_waiting: float
    p90_waiting: float
    mean_trip: float
    median_trip: float
    p90_trip: float
    bin_seconds: int
    bin_mean_trip: dict[int, float] = field(default_factory=dict)
    utilization: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "bin_mean_trip", dict(self.bin_mean_trip))


def nearest_rank(sorted_values, fraction: float):
    """Value at the nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * fraction // 1))  # ceil(n * q)
    return sorted_values[int(rank) - 1]


def summarize(records, bin_seconds: int = 900,
              utilization: float | None = None) -> SummaryStats:
    """Aggregate trip records; ``bin_seconds`` must be at least 60."""
    if bin_seconds < 60:
        raise ValueError("bin_seconds must be >= 60")
    completed = [r for r in records if r.status == "completed"]
    abandoned = sum(1 for r in records if r.status == "abandoned")
    pending = sum(1 for r in records if r.status == "pending")

    waits = sorted(r.waiting for r in completed)
    trips = sorted(r.trip_time for r in completed)
    bins: dict[int, list[int]] = {}
    for r in completed:
        bins.setdefault((r.request_time // bin_seconds) * bin_seconds, []).append(r.trip_time)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return SummaryStats(
        completed=len(completed),
        abandoned=abandoned,
        pending=pending,
        mean_waiting=mean(waits),
        median_waiting=nearest_rank(waits, 0.5),
        p90_waiting=nearest_rank(waits, 0.9),
        mean_trip=mean(trips),
        median_trip=nearest_rank(trips, 0.5),
        p90_trip=nearest_rank(trips, 0.9),
        bin_seconds=bin_seconds,
        bin_mean_trip={k: mean(v) for k, v in sorted(bins.items())},
        utilization=utilization,
    )


@dataclass(frozen=True)
class Comparison:
    """Side-by-side of a baseline summary and an on-demand summary."""

    base_mean_trip: float
    ondemand_mean_trip: float
    delta_seconds: float
    delta_percent: float | None
    base_mean_waiting: float
    ondemand_mean_waiting: float
    bin_seconds: int
    bins: tuple[tuple[int, float | None, float | None], ...]


def compare(base: SummaryStats, ondemand: SummaryStats) -> Comparison:
    """Mean deltas plus a per-bin series; bins present on one side only are flagged None."""
    if base.bin_seconds != ondemand.bin_seconds:
        raise ValueError(
            f"bin mismatch: {base.bin_seconds} vs {ondemand.bin_seconds} seconds"
        )
    delta = ondemand.mean_trip - base.mean_trip
    percent = (delta / base.mean_trip * 100.0) if base.mean_trip else None
    keys = sorted(set(base.bin_mean_trip) | set(ondemand.bin_mean_trip))
    bins = tuple(
        (k, base.bin_mean_trip.get(k), ondemand.bin_mean_trip.get(k)) for k in keys
    )
    return Comparison(
        base_mean_trip=base.mean_trip,
        ondemand_mean_trip=ondemand.mean_trip,
        delta_seconds=delta,
        delta_percent=percent,
        base_mean_waiting=base.mean_waiting,
        ondemand_mean_waiting=ondemand.mean_waiting,
        bin_seconds=base.bin_seconds,
        bins=bins,
    )


def comparison_csv(cmp: Comparison) -> str:
    """Comma-separated table: overall rows, then one row per time bin."""
    lines = ["section,key,base,ondemand,delta"]
    lines.append(f"overall,mean_trip,{cmp.base_mean_trip:.1f},{cmp.ondemand_mean_trip:.1f},"
                 f"{cmp.delta_seconds:.1f}")
    pct = "" if cmp.delta_percent is None else f"{cmp.delta_percent:.1f}"
    lines.append(f"overall,mean_trip_percent,,,{pct}")
    lines.append(f"overall,mean_waiting,{cmp.base_mean_waiting:.1f},"
                 f"{cmp.ondemand_mean_waiting:.1f},"
                 f"{cmp.ondemand_mean_waiting - cmp.base_mean_waiting:.1f}")
    for start, base_mean, ondemand_mean in cmp.bins:
        if base_mean is None or ondemand_mean is None:
            b = "" if base_mean is None else f"{base_mean:.1f}"
            o = "" if ondemand_mean is None else f"{ondemand_mean:.1f}"
            lines.append(f"bin,{start},{b},{o},incomparable")
        else:
            lines.append(f"bin,{start},{base_mean:.1f},{ondemand_mean:.1f},"
                         f"{ondemand_mean - base_mean:.1f}")
    return "\n".join(lines) + "\n"


def comparison_text(cmp: Comparison) -> str:
    pct = "n/a" if cmp.delta_percent is None else f"{cmp.delta_percent:+.1f}%"
    lines = [
        "Trip time comparison (baseline vs on-demand)",
        f"  mean trip time: {cmp.base_mean_trip:.1f} s -> {cmp.ondemand_mean_trip:.1f} s "
        f"({cmp.delta_seconds:+.1f} s, {pct})",
        f"  mean waiting:   {cmp.base_mean_waiting:.1f} s -> {cmp.ondemand_mean_waiting:.1f} s",
        f"  time bins ({cmp.bin_seconds} s):",
    ]
    for start, base_mean, ondemand_mean in cmp.bins:
        b = "-" if base_mean is None else f"{base_mean:7.1f}"
        o = "-" if ondemand_mean is None else f"{ondemand_mean:7.1f}"
        lines.append(f"    t={start:>6}  base {b}  ondemand {o}")
    return "\n".join(lines) + "\n"
