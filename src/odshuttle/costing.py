"""Optimal pickup/drop-off sequencing for one shuttle.

Given a shuttle's committed work and a set of newly assigned requests,
this module finds the least total passenger waiting (seconds between a
request being placed and its pickup) and the stop route that realizes
it.  :func:`optimal_cost` returns the waiting alone, which is all the
dispatch program reads of a plan; :func:`optimal_sequence` also returns
the route, which only a plan that is committed or printed needs
(:func:`odshuttle.enumeration.plan_route`).  The route search packs its
state straight from the :class:`ShuttleState`: stops are network indices, the
outstanding pickups and drop-offs are bitmasks over the requests, and
travel times are read from the network's per-stop rows, which keeps
per-node cost low enough for the simulator's per-tick fan-out.

The route search is a depth-first branch and bound.  A branch is cut
when its waiting so far plus a lower bound on the waiting still to come
exceeds the incumbent.  The bound charges each outstanding pickup j,
from a node that leaves stop s at time t,
``max(0, t + tt(s, pickup_j) - request_time_j)`` (times party size when
weighting per passenger).  The bound never overestimates, so the search
stays exact: travel times are shortest paths, so any chain of legs from
s to pickup_j takes at least ``tt(s, pickup_j)``, and idling for a
future-dated request only adds time.  The cut is strict (``>``), so
every sequence that ties the optimum is still reached and the tie-break
below holds.  No search here tests a child's waiting: it adds only its
parent bound's terms for its pickups, so stays within that bound, which
passed; a child making every pickup closes at it, leaving siblings none.

Every stop fault is the network's ``ConfigError``.  On a network that
is not strongly connected, a call first applies the loaders' reach rule
(:meth:`TravelNetwork.check_reachable`) to its stops: one that another
cannot reach raises for the first such pair by id, even where a route
could avoid the missing leg, so no search here meets one.  An unknown
stop misses an index lookup (the reach rule's own, which comes before
any leg); one handler around every lookup then raises
:meth:`TravelNetwork.check_known`'s fault for the call's stops.

Three behaviors beyond the basic search:

* Capacity is tracked per search state.  At a stop, alighting happens
  before boarding; a visit that would leave more passengers aboard than
  seats is infeasible.  If no sequence survives, the assignment itself
  is infeasible.
* Once every pickup is done, all remaining drop-off orders cost the
  same (zero added waiting), so such branches close immediately by
  appending the outstanding drop-off stops in id order.
* A shuttle with no committed work and one new request has one
  sequence, ``(pickup, dropoff)``, priced in closed form without the
  search: the lateness at the pickup, ``max(0, arrival_time +
  tt(heading, pickup) - request_time)``, times the party size when
  weighting per passenger, or ``None`` for a party over capacity.  It
  is the commonest call under sparse demand.

Ties between equal-cost sequences resolve to the lexicographically
smallest stop-id sequence, so results never depend on set iteration
order.  Nor do errors: an unknown stop is the first met taking the
heading stop, then the requests by id (pickup, then drop-off), and it
wins over a missing leg.

:func:`optimal_cost` needs no tie-break, and where two conditions hold
it prices without the route search.  (a) Capacity cannot bind: the
riders aboard plus every pickup's party fit the seats.  (b) No pickup is
dated in the future: every pickup's request time is at or before the
shuttle's arrival time t0 at its heading stop.  By (a) a visit that only
drops riders off never helps: it adds no waiting, and by the triangle
inequality of shortest paths, skipping it reaches every later stop no
later.  So the least waiting is the best order of the distinct
pickup stops alone, drop-offs after.  By (b) no lateness clips at 0 and
the shuttle never idles, so that waiting splits into a constant and a
time-free latency: ``sum_j w_j * (t0 - request_time_j)`` plus the least,
over orders of the distinct pickup stops, of ``sum_s W_s * d_s``.  Here
``W_s`` is the summed waiting weight of the pickups at stop ``s`` and
``d_s`` the seconds the order takes from the heading stop to ``s``.
One pickup stop has one order.  With more, the latency depends only on
the heading stop and the ``(s, W_s)`` pairs, so it is searched once per
network and kept in ``TravelNetwork.latencies``; the search uses the
route search's bound without request times and cuts on ``>=``.  The
simulator always meets (b): a request is queued once placed, and a
shuttle reaches its heading stop no earlier than now.

That price is the sum of two packs, so a dispatch pass that prices every
shuttle state against the same request subsets reads each subset's
requests once, not once per state (:mod:`odshuttle.enumeration`).
:func:`pack_pickups` packs requests as pickups: ``W_s`` per pickup stop,
``sum(request_time_j * w_j)``, ``sum(w_j)``, the party sizes and the
latest request time.  :func:`pack_state` packs a shuttle: its heading
stop, the same for its committed pickups, and their parties plus the
riders as its load.  :func:`packed_cost`, the only time-free pricing,
adds them: the constant is ``t0 * sum(w_j) - sum(request_time_j * w_j)``,
the latency one row read for one pickup stop and the memo for more, and
(a) and (b) are read off the load and the latest request time.
:func:`optimal_cost` packs its own arguments and calls it.  A call that
fails either condition, such as a ``solve`` instance with a pickup dated
after t0, goes to the route search (an idle shuttle with one request to
its closed form), and so does a call with a pack that met a stop off
the network, where the route search's handler names that stop.  Each
call checks an overlap with the committed requests, then the reach rule,
before it prices.  So :func:`optimal_cost` returns exactly
``optimal_sequence(...)[0]`` (or ``None``) and raises exactly what that
raises.
"""

from __future__ import annotations

import math
from itertools import chain

from .network import TravelNetwork
from .types import ShuttleState, StopId

_NO_REQUESTS: frozenset = frozenset()
_NO_PICKUPS = ((), 0, 0, 0, 0)  # the pack of no requests


def optimal_sequence(
    v: ShuttleState, new_requests, network: TravelNetwork, per_passenger: bool = False
) -> tuple[int, tuple[StopId, ...]] | None:
    """Minimum-waiting stop sequence serving the shuttle's old and new work.

    Returns ``(total_waiting_seconds, sequence)`` or ``None`` when no
    capacity-respecting sequence exists.  The sequence starts after the
    shuttle's current heading stop (a first element equal to it means
    "act there on arrival").  ``per_passenger`` weights each request's
    waiting by its party size.  A new request already committed to the
    shuttle is a ``ValueError``; a stop off the network, or one that
    another stop of the call cannot reach, raises as the module docstring
    says.
    """
    return _optimum(v, new_requests, network, per_passenger, True)


def optimal_cost(
    v: ShuttleState, new_requests, network: TravelNetwork, per_passenger: bool = False
) -> int | None:
    """``optimal_sequence(...)[0]``, or ``None``, without the tie-broken route.

    Raises what :func:`optimal_sequence` raises.  It packs its arguments
    and prices them with :func:`packed_cost` (module docstring).
    """
    new = frozenset(new_requests)
    return packed_cost(v, pack_state(v, network, per_passenger), new,
                       pack_pickups(new, network, per_passenger), network, per_passenger)


def pack_pickups(requests, network: TravelNetwork, per_passenger: bool = False):
    """The time-free pack of ``requests`` as pickups, or ``None`` when a stop of
    theirs is off the network: ``(weights, sum_tw, sum_w, passengers, latest)``.

    ``weights`` is ``((s1, W1), (s2, W2), ...)``: each pickup stop's index,
    ascending, with the summed waiting weight ``W_s`` of the requests picked
    up there.  ``sum_tw`` sums ``request_time * w`` and ``sum_w`` sums ``w``
    over the requests, ``passengers`` their party sizes, and ``latest`` is
    their latest request time (0 for none).
    """
    if not requests:
        return _NO_PICKUPS
    index = network.index
    weights: dict[int, int] = {}
    sum_tw = sum_w = passengers = latest = 0
    try:
        for r in requests:
            s = index[r.pickup]
            index[r.dropoff]
            w = r.passengers if per_passenger else 1
            weights[s] = weights.get(s, 0) + w
            sum_tw += r.request_time * w
            sum_w += w
            passengers += r.passengers
            if r.request_time > latest:
                latest = r.request_time
    except KeyError:
        return None
    return tuple(sorted(weights.items())), sum_tw, sum_w, passengers, latest


def pack_state(v: ShuttleState, network: TravelNetwork, per_passenger: bool = False):
    """``v``'s pack for :func:`packed_cost`, or ``None`` when a stop of ``v`` is off
    the network: ``(start, committed, weights, sum_tw, sum_w, load, latest)``.

    ``start`` is the heading stop's index and ``committed`` the requests owed
    (pickups and riders).  ``weights``, ``sum_tw``, ``sum_w`` and ``latest`` are
    :func:`pack_pickups`' of the committed pickups, and ``load`` is their party
    sizes plus the riders aboard.
    """
    index = network.index
    if v.heading_stop not in index:
        return None
    if not (v.pending_pickups or v.pending_dropoffs):
        return index[v.heading_stop], _NO_REQUESTS, (), 0, 0, 0, 0
    pickups = pack_pickups(v.pending_pickups, network, per_passenger)
    if pickups is None:
        return None
    weights, sum_tw, sum_w, load, latest = pickups
    for r in v.pending_dropoffs:
        if r.dropoff not in index:
            return None
        load += r.passengers
    return (index[v.heading_stop], v.pending_pickups | v.pending_dropoffs, weights, sum_tw,
            sum_w, load, latest)


def packed_cost(v: ShuttleState, state, new: frozenset, pickups, network: TravelNetwork,
                per_passenger: bool = False) -> int | None:
    """``optimal_cost(v, new, network, per_passenger)`` from ``state``, ``v``'s
    :func:`pack_state`, and ``pickups``, ``new``'s :func:`pack_pickups`.

    Where capacity cannot bind and no pickup is due after the shuttle's
    arrival time, the two packs give the waiting: ``now * sum_w - sum_tw``
    plus the time-free latency of the merged pickup stops (module
    docstring).  Anything else, a missing pack included, goes to the route
    search, which raises each fault as :func:`optimal_sequence` does.
    """
    if state is None or pickups is None:
        return _optimum(v, new, network, per_passenger, False)
    start, committed, weights, sum_tw, sum_w, load, latest = state
    if committed:
        if not new.isdisjoint(committed):
            raise _committed(v, new)
    elif not new:
        return 0
    if not network.strongly_connected:
        # The loaders' reach rule, applied to the call's stops (module docstring).
        network.check_reachable(_reach_stops(v, new))
    new_weights, new_tw, new_w, passengers, new_latest = pickups
    now = v.arrival_time
    if latest > now or new_latest > now or load + passengers > v.capacity:
        return _optimum(v, new, network, per_passenger, False)
    if weights:  # merge the new pickups' stops into the committed ones
        merged = dict(weights)
        for s, w in new_weights:
            merged[s] = merged.get(s, 0) + w
        weights = tuple(sorted(merged.items()))
    else:
        weights = new_weights
    base = now * (sum_w + new_w) - sum_tw - new_tw
    if len(weights) > 1:
        return base + _latency(network, start, weights)
    if weights:  # one pickup stop: no order to choose
        ((s, w),) = weights
        return base + network.row(start)[s] * w
    return 0


def _committed(v: ShuttleState, new: frozenset) -> ValueError:
    """The error for new requests already committed to ``v``."""
    overlap = ", ".join(sorted(r.id for r in new
                               if r in v.pending_pickups or r in v.pending_dropoffs))
    return ValueError(f"requests already committed to shuttle {v.id}: {overlap}")


def _reach_stops(v: ShuttleState, new: frozenset):
    """The call's stops: the heading stop, the riders' drop-offs and both stops of
    every pickup, committed or new."""
    return chain((v.heading_stop,), (r.dropoff for r in v.pending_dropoffs),
                 *((r.pickup, r.dropoff) for r in chain(v.pending_pickups, new)))


def _optimum(v: ShuttleState, new_requests, network: TravelNetwork, per_passenger: bool,
             route: bool):
    """The least waiting by the route search, with its route when ``route`` is set,
    or ``None``; an idle shuttle with one new request takes the closed form."""
    new = frozenset(new_requests)
    idle = not (v.pending_pickups or v.pending_dropoffs)
    if idle:
        if not new:
            return (0, ()) if route else 0
    elif not (new.isdisjoint(v.pending_pickups) and new.isdisjoint(v.pending_dropoffs)):
        raise _committed(v, new)
    index = network.index
    try:  # every stop lookup; the search below reads only the indices packed here
        if not network.strongly_connected:
            # The loaders' reach rule, applied to the call's stops (module docstring).
            network.check_reachable(_reach_stops(v, new))
        if idle and len(new) == 1:
            # One sequence is possible: price it in closed form (module docstring).
            (r,) = new
            leg = network.row(index[v.heading_stop])[index[r.pickup]]
            index[r.dropoff]
            if r.passengers > v.capacity:
                return None
            late = v.arrival_time + leg - r.request_time
            cost = (late if late > 0 else 0) * (r.passengers if per_passenger else 1)
            return (cost, (r.pickup, r.dropoff)) if route else cost
        start = index[v.heading_stop]
        # Per request bit j: pickup and drop-off stop, request time, party size
        # and waiting weight.  Pickups take the low bits; riders aboard only
        # need a drop-off stop and pax.
        pick_stop: list[int] = []
        drop_stop: list[int] = []
        due: list[int] = []
        pax: list[int] = []
        weight: list[int] = []
        for pickups in (v.pending_pickups, new):
            for r in pickups:
                pick_stop.append(index[r.pickup])
                drop_stop.append(index[r.dropoff])
                due.append(r.request_time)
                pax.append(r.passengers)
                weight.append(r.passengers if per_passenger else 1)
        for r in v.pending_dropoffs:
            drop_stop.append(index[r.dropoff])
            pax.append(r.passengers)
    except KeyError:
        network.check_known(_named_stops(v, new))
        raise
    capacity = v.capacity
    root_pick = (1 << len(pick_stop)) - 1
    root_drop = (1 << len(drop_stop)) - 1 - root_pick
    onboard = sum(pax[len(pick_stop):])
    at: dict[int, list[int]] = {}  # stop -> [pick bits, drop bits] due there
    for j, s in enumerate(pick_stop):
        at.setdefault(s, [0, 0])[0] |= 1 << j
    for j, s in enumerate(drop_stop):
        at.setdefault(s, [0, 0])[1] |= 1 << j
    # Involved stops ascending, so drop-off tails come out sorted.
    stops = [(s, bits[0], bits[1], network.row(s)) for s, bits in sorted(at.items())]
    best_w = math.inf
    best_seq: tuple[int, ...] | None = None

    # (bound, stop, row, time, pick_mask, drop_mask, waiting, onboard, path)
    stack = [(0, start, network.row(start), v.arrival_time, root_pick, root_drop, 0, onboard, ())]
    while stack:
        bound, _, row, now, pick_mask, drop_mask, waiting, onboard, path = stack.pop()
        if bound > best_w:
            continue
        children = []
        for s, pick_s, drop_s, row_s in stops:
            picked = pick_mask & pick_s
            dropped = drop_mask & drop_s
            if not (picked or dropped):
                continue
            load = onboard
            bits = dropped
            while bits:
                low = bits & -bits
                load -= pax[low.bit_length() - 1]
                bits ^= low
            bits = picked
            while bits:
                low = bits & -bits
                load += pax[low.bit_length() - 1]
                bits ^= low
            if load > capacity:
                continue
            arrival = now + row[s]
            w = waiting
            depart = arrival
            bits = picked
            while bits:
                low = bits & -bits
                j = low.bit_length() - 1
                if arrival > due[j]:
                    w += (arrival - due[j]) * weight[j]
                if due[j] > depart:
                    depart = due[j]
                bits ^= low
            rest = pick_mask ^ picked
            drops = (drop_mask ^ dropped) | picked
            if not rest:
                # Only drop-offs remain: order is cost-free, close the branch.
                seq = path + (s,) + _drop_tail(stops, drops)
                if w < best_w or seq < best_seq:  # w <= best_w here
                    best_w, best_seq = w, seq
                continue
            # Each outstanding pickup j is reached no earlier than
            # depart + tt(s, pickup_j) (see the module docstring).
            bound = w
            bits = rest
            while bits:
                low = bits & -bits
                j = low.bit_length() - 1
                late = depart + row_s[pick_stop[j]] - due[j]
                if late > 0:
                    bound += late * weight[j]
                bits ^= low
            if bound > best_w:
                continue
            children.append((bound, s, row_s, depart, rest, drops, w, load, path + (s,)))
        # Explore lowest bound first: reversed so the stack pops ascending (bound, stop).
        children.sort(reverse=True)
        stack += children

    if best_seq is None:
        return None
    return (best_w, tuple(network.ids[s] for s in best_seq)) if route else best_w


def _named_stops(v: ShuttleState, new) -> list:
    """The call's stops, each keyed by itself, for :meth:`TravelNetwork.check_known`
    (which raises once an index lookup of one missed): the heading stop, then the
    requests by id, each pickup before its drop-off (a rider's drop-off only)."""
    trips = sorted([(r.id, r.pickup, r.dropoff) for r in chain(v.pending_pickups, new)]
                   + [(r.id, r.dropoff) for r in v.pending_dropoffs])
    return [(stop, stop) for stop in chain((v.heading_stop,), *(trip[1:] for trip in trips))]


def _latency(network: TravelNetwork, start: int, weights: tuple) -> int:
    """Least ``sum(W_s * d_s)`` over the orders of the pickup stops.

    ``weights`` holds each distinct pickup stop, ascending, with its summed
    waiting weight ``W_s``; ``d_s`` is the seconds the order takes from
    ``start`` to ``s``.  The result depends on nothing else, so it is kept
    in ``network.latencies`` under the key ``(start, weights)``.
    """
    key = (start, weights)
    latency = network.latencies.get(key)
    if latency is None:
        row = network.row
        latency = network.latencies[key] = _least_latency(
            row(start), [(s, row(s), w) for s, w in weights])
    return latency


def _least_latency(row, picks) -> int:
    """Least latency over the orders of the pickup stops ``picks``.

    ``picks`` holds ``(stop, row, W)`` per distinct pickup stop; the
    shuttle leaves ``row``'s stop at time 0, and reaching ``stop`` at
    time t adds ``W * t``.  Reach is not checked: :func:`_optimum` has
    checked that every pickup stop reaches every other.
    """
    best = math.inf
    # (bound, position in picks, row, time, outstanding positions as a bit
    # mask, latency)
    stack = [(0, -1, row, 0, (1 << len(picks)) - 1, 0)]
    while stack:
        bound, _, row, now, rest, latency = stack.pop()
        if bound >= best:
            continue
        children = []
        for i, (s, row_s, weight) in enumerate(picks):
            if not rest >> i & 1:
                continue
            arrival = now + row[s]
            w = latency + arrival * weight
            left = rest ^ (1 << i)
            if not left:
                best = w
                continue
            # Each outstanding stop t is reached no earlier than
            # arrival + tt(s, t) (see the module docstring).
            bound = w
            for k, (t, _, weight_t) in enumerate(picks):
                if left >> k & 1:
                    bound += (arrival + row_s[t]) * weight_t
            if bound < best:
                children.append((bound, i, row_s, arrival, left, w))
        # Lowest bound first: reversed so the stack pops ascending (bound, i).
        children.sort(reverse=True)
        stack += children
    return best


def _drop_tail(stops, drops: int) -> tuple[int, ...]:
    """The drop-off stops of ``drops`` in index order."""
    return tuple(s for s, _, drop_s, _ in stops if drops & drop_s)
