"""Out-of-program tracing for the benchmark's traced runs.

``install`` replaces layer entry points at the name their caller looks
up, so the program under test is unchanged:

=============================================  ==============
wrapped name                                   span
=============================================  ==============
``odshuttle.simulator.run_scenario``           simulator
``odshuttle.simulator.run_baseline``           baseline
``odshuttle.simulator.enumerate_plans``        enumeration
``odshuttle.enumeration.optimal_sequence``     costing
``odshuttle.simulator.solve_dispatch``         solver (+ audit)
``odshuttle.simulator.summarize``              reporting
``odshuttle.simulator.generate_demand``        demand
``odshuttle.fileio.parse_scenario_text``       fileio.parse
``odshuttle.fileio.write_*_csv``               fileio.write
=============================================  ==============

``TravelNetwork.travel_time`` is counted, not spanned: it runs ~10^6
times per run.  The tracer's own work per sequencing call (the
deduplication key, the feasibility count) runs in a ``trace`` span and
the audit in an ``audit`` span, so neither is charged to a layer's self
time.  Spans are ``[name, start, end, parent_index]`` lists
kept in memory and written out once at the end.  A span's self time is
its duration minus the durations of its direct children; children of
one span never overlap because the program is single-threaded.
"""

from __future__ import annotations

import json
import time


def nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    k = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(k) - 1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.travel_calls = 0
        self.costing_lookups = 0
        self.costing_keys: set = set()
        self.costing_feasible = 0
        self.plans = 0
        self.plans_per_pass_max = 0
        self.plans_in = 0
        self.audit_violations = 0
        self.bytes_out = 0

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs once it closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[i]
        return totals

    def layer_metrics(self) -> dict:
        self_s = self.self_times()
        costing_us = sorted(d * 1e6 for d in self.durations("costing"))
        solver_ms = sorted(d * 1e3 for d in self.durations("solver"))
        calls = len(costing_us)
        return {
            "simulator.self_s": self_s.get("simulator", 0.0),
            "simulator.dispatch_passes": len(solver_ms),
            "simulator.baseline_s": sum(self.durations("baseline")),
            "enumeration.self_s": self_s.get("enumeration", 0.0),
            "enumeration.plans": self.plans,
            "enumeration.plans_per_pass_max": self.plans_per_pass_max,
            "costing.self_s": self_s.get("costing", 0.0),
            "costing.calls": calls,
            "costing.distinct_calls": len(self.costing_keys),
            "costing.distinct_ratio": len(self.costing_keys) / calls if calls else 1.0,
            "costing.feasible_ratio": self.costing_feasible / calls if calls else 1.0,
            "costing.call_p50_us": nearest_rank(costing_us, 0.50),
            "costing.call_p99_us": nearest_rank(costing_us, 0.99),
            "network.travel_time_calls": self.travel_calls,
            "network.lookups_per_costing_call": self.costing_lookups / calls if calls else 0.0,
            "solver.self_s": self_s.get("solver", 0.0),
            "solver.calls": len(solver_ms),
            "solver.call_p50_ms": nearest_rank(solver_ms, 0.50),
            "solver.call_max_ms": solver_ms[-1] if solver_ms else 0.0,
            "solver.plans_in": self.plans_in,
            "solver.audit_violations": self.audit_violations,
            "demand.generate_s": sum(self.durations("demand")),
            "fileio.parse_s": sum(self.durations("fileio.parse")),
            "fileio.write_s": sum(self.durations("fileio.write")),
            "fileio.bytes_out": self.bytes_out,
            "reporting.summarize_s": sum(self.durations("reporting")),
        }

    def write_spans(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start - origin,
                                      "end": end - origin, "parent": parent}) + "\n")


def install(tracer: Tracer):
    """Wrap the odshuttle layer entry points in ``tracer`` spans and counters."""
    from odshuttle import enumeration, fileio, network, simulator, solver

    travel_time = network.TravelNetwork.travel_time

    def counted_travel_time(self, a, b):
        tracer.travel_calls += 1
        return travel_time(self, a, b)

    network.TravelNetwork.travel_time = counted_travel_time

    optimal_sequence = tracer.span("costing", enumeration.optimal_sequence)

    def bookkeeping(v, new_requests, per_passenger, lookups, found):
        tracer.costing_lookups += lookups
        # Keyed on the shuttle's state without its id: the deduplication headroom.
        tracer.costing_keys.add((v.heading_stop, v.arrival_time, v.pending_pickups,
                                 v.pending_dropoffs, v.capacity, frozenset(new_requests),
                                 per_passenger))
        tracer.costing_feasible += found is not None

    # In its own span, so the tracer's work is not charged to enumeration.
    bookkeeping = tracer.span("trace", bookkeeping)

    def costing(v, new_requests, net, per_passenger=False):
        before = tracer.travel_calls
        found = optimal_sequence(v, new_requests, net, per_passenger)
        bookkeeping(v, new_requests, per_passenger, tracer.travel_calls - before, found)
        return found

    enumeration.optimal_sequence = costing

    def after_enumerate(args, plan_set):
        tracer.plans += len(plan_set.plans)
        tracer.plans_per_pass_max = max(tracer.plans_per_pass_max, len(plan_set.plans))

    audit = tracer.span("audit", solver.check_solution)

    def after_solve(args, solution):
        problem = args[0]
        tracer.plans_in += len(problem.plan_set.plans)
        tracer.audit_violations += len(audit(problem, solution))

    def after_write(args, text):
        tracer.bytes_out += len(text.encode())

    simulator.run_scenario = tracer.span("simulator", simulator.run_scenario)
    simulator.run_baseline = tracer.span("baseline", simulator.run_baseline)
    simulator.enumerate_plans = tracer.span("enumeration", simulator.enumerate_plans,
                                            after_enumerate)
    simulator.solve_dispatch = tracer.span("solver", simulator.solve_dispatch, after_solve)
    simulator.summarize = tracer.span("reporting", simulator.summarize)
    simulator.generate_demand = tracer.span("demand", simulator.generate_demand)
    fileio.parse_scenario_text = tracer.span("fileio.parse", fileio.parse_scenario_text)
    fileio.write_trips_csv = tracer.span("fileio.write", fileio.write_trips_csv, after_write)
    fileio.write_summary_csv = tracer.span("fileio.write", fileio.write_summary_csv, after_write)
