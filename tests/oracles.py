"""Independent reference implementations used only by the test suite.

These deliberately share no search machinery with the package: the
sequencing oracle is a plain exhaustive recursion over every
precedence-feasible stop ordering, with no pruning, no bound, and no
shortcutting of drop-off tails, and the dispatch oracle tries every
one-plan-per-vehicle selection, sharing no code with the solver: it
indexes the requests and builds its solution itself.  The fixed-route
oracle scans every served stop of every route for each request.  Slow
but unarguable.
"""

from __future__ import annotations

import math
from itertools import product

from odshuttle.errors import InstanceTooLargeError
from odshuttle.solver import DispatchProblem
from odshuttle.types import DispatchSolution


def exhaustive_best_sequence(v, new_requests, network, per_passenger=False):
    """Minimum total waiting over all feasible stop sequences, by full enumeration.

    Returns ``(waiting_seconds, sequence)`` with the lexicographically
    smallest sequence among optima, or ``None`` when every ordering
    violates capacity.  Semantics mirror the domain rules: a visit
    applies every due pickup and drop-off at that stop, passengers
    alight before boarding, and a shuttle arriving before a request's
    placement time waits there (no negative waiting).
    """
    new = frozenset(new_requests)
    best: list = [None]

    def recurse(stop, now, awaiting_pickup, awaiting_dropoff, waiting, onboard, seq):
        if not awaiting_pickup and not awaiting_dropoff:
            candidate = (waiting, seq)
            if best[0] is None or candidate < best[0]:
                best[0] = candidate
            return
        stops = sorted(
            {r.pickup for r in awaiting_pickup} | {r.dropoff for r in awaiting_dropoff}
        )
        for s in stops:
            picked = frozenset(r for r in awaiting_pickup if r.pickup == s)
            dropped = frozenset(r for r in awaiting_dropoff if r.dropoff == s)
            load = (
                onboard
                - sum(r.passengers for r in dropped)
                + sum(r.passengers for r in picked)
            )
            if load > v.capacity:
                continue
            arrival = now + network.travel_time(stop, s)
            w = waiting
            depart = arrival
            for r in picked:
                w += max(0, arrival - r.request_time) * (r.passengers if per_passenger else 1)
                if r.request_time > depart:
                    depart = r.request_time
            recurse(
                s,
                depart,
                awaiting_pickup - picked,
                (awaiting_dropoff - dropped) | picked,
                w,
                load,
                seq + (s,),
            )

    recurse(
        v.heading_stop,
        v.arrival_time,
        v.pending_pickups | new,
        v.pending_dropoffs,
        0,
        v.onboard,
        (),
    )
    return best[0]


def shortest_path_by_enumeration(stops, links, a, b, max_hops=None):
    """Min travel seconds from a to b by enumerating simple paths (tiny graphs only)."""
    if a == b:
        return 0
    adjacency: dict = {}
    for u, v, w in links:
        adjacency.setdefault(u, []).append((v, w))
    if max_hops is None:
        max_hops = len(stops)
    best: list = [None]

    def walk(node, seen, total):
        if best[0] is not None and total >= best[0]:
            return
        if node == b:
            best[0] = total
            return
        if len(seen) > max_hops:
            return
        for nxt, w in adjacency.get(node, []):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, total + w)

    walk(a, {a}, 0)
    return best[0]


def brute_force_dispatch(problem: DispatchProblem, guard: int = 10**6) -> DispatchSolution:
    """Testing oracle: try every one-plan-per-vehicle selection outright."""
    per_vehicle = problem.plan_set.per_vehicle
    combos = 1
    for plans in per_vehicle.values():
        combos *= len(plans)
    if combos > guard:
        raise InstanceTooLargeError(f"{combos} plan selections exceed the {guard} guard")

    req_ids = [r.id for r in problem.requests]
    bit_of = {rid: 1 << i for i, rid in enumerate(req_ids)}
    options = [[(plan, sum(bit_of[r.id] for r in plan.requests)) for plan in plans]
               for plans in per_vehicle.values()]
    penalties = [problem.penalty(rid) for rid in req_ids]
    best_key = None
    best_state = None
    for selection in product(*options):
        covered = 0
        cost = 0
        ok = True
        for plan, mask in selection:
            if mask & covered:
                ok = False
                break
            covered |= mask
            cost += plan.cost
        if not ok:
            continue
        missed = [r for r in range(len(req_ids)) if not covered & (1 << r)]
        cost += sum(penalties[r] for r in missed)
        key = (cost, len(missed))
        if best_key is None or key < best_key:
            # product() runs through each vehicle's plans in list order,
            # vehicles in id order, so the first hit of a (cost, missed)
            # value is the tie-broken optimum.
            best_key = key
            best_state = (selection, missed)
    selection, missed = best_state
    return DispatchSolution(
        selected={v: plan for v, (plan, _) in zip(per_vehicle, selection)},
        missed=frozenset(req_ids[r] for r in missed),
        objective=best_key[0],
    )


def walk_seconds(config, a, b):
    """Whole seconds, rounded up, to walk straight from stop ``a`` to stop ``b``."""
    sa, sb = config.network.stops[a], config.network.stops[b]
    return int(math.ceil(math.hypot(sa.x - sb.x, sa.y - sb.y) / config.walk_speed))


def reference_baseline(config, requests):
    """Fixed-route outcome of each request placed before the horizon, by id:
    ``(status, pickup_time, dropoff_time)``.

    Per route with served stops, walk to the served stop nearest the
    pickup and from the one nearest the drop-off (least walk, then least
    id), wait for the next departure of the schedule anchored at t = 0 and
    ride the segments between them; boarding where one would alight is
    the direct walk.  The least (total, walk in, wait, ride, walk out)
    over the routes wins; a request with no route is abandoned.
    """
    out = {}
    for r in requests:
        if r.request_time >= config.horizon:
            continue
        options = []
        for route in config.routes:
            stops = route.served_stops
            if not stops:
                continue
            walk_in, board = min((walk_seconds(config, r.pickup, s), s) for s in stops)
            walk_out, alight = min((walk_seconds(config, r.dropoff, s), s) for s in stops)
            if board == alight:
                direct = walk_seconds(config, r.pickup, r.dropoff)
                options.append((direct, 0, 0, 0, direct))
                continue
            headway = int(round(route.headway_minutes * 60))
            wait = -(r.request_time + walk_in) % headway
            n = len(stops)
            i, j = stops.index(board), stops.index(alight)
            one_way = route.one_way_minutes * 60.0
            if route.shape == "circular":
                ride = int(math.ceil((j - i) % n * one_way / n))
            else:
                ride = int(math.ceil(abs(j - i) * one_way / (n - 1)))
            options.append((walk_in + wait + ride + walk_out, walk_in, wait, ride, walk_out))
        if options:
            _, walk_in, wait, ride, walk_out = min(options)
            pickup = r.request_time + walk_in + wait
            out[r.id] = ("completed", pickup, pickup + ride + walk_out)
        else:
            out[r.id] = ("abandoned", None, None)
    return out
