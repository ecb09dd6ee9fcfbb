"""Optimal pickup/drop-off sequencing for one shuttle.

Given a shuttle's committed work and a set of newly assigned requests,
this module finds the stop sequence minimizing total passenger waiting
(seconds between a request being placed and its pickup) via depth-first
branch and bound.  Search state is a :class:`TravelSearchNode`.

A branch is cut when its waiting so far plus a lower bound on the
waiting still to come exceeds the incumbent.  The bound charges each
outstanding pickup j, from a node that leaves stop s at time t,
``max(0, t + tt(s, pickup_j) - 1 - request_time_j)`` (times party size
when weighting per passenger).  The bound never overestimates, so the
search stays exact: any chain of legs from s to pickup_j takes at least
``tt(s, pickup_j) - 1`` seconds, and idling for a future-dated request
only adds time.  Graph times are
shortest paths, so there the chain takes at least ``tt`` itself; the
second of slack is for euclidean and manhattan times, whose rounding up
of float distances can make a detour one second shorter than the direct
leg (never more, for times far below 2**50 s).  The cut is strict
(``>``), so every sequence that ties the optimum is still reached and the
tie-break below holds.

Two behaviors beyond the basic search:

* Capacity is tracked per node.  At a stop, alighting happens before
  boarding; an extension that would leave more passengers aboard than
  seats is infeasible.  If no sequence survives, the assignment itself
  is infeasible.
* Once every pickup is done, all remaining drop-off orders cost the
  same (zero added waiting), so such branches close immediately by
  appending the outstanding drop-off stops in id order; each leg of
  that tail must be drivable, else :class:`UnreachableStopError`.

Ties between equal-cost sequences resolve to the lexicographically
smallest stop-id sequence, so results never depend on set iteration
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityExceededError, UnknownStopError, UnreachableStopError
from .network import TravelNetwork
from .types import ShuttleState, StopId, TripRequest


@dataclass(frozen=True)
class TravelSearchNode:
    """One state of the sequencing search.

    ``stop``/``time`` say where and when the shuttle is;
    ``awaiting_pickup`` and ``awaiting_dropoff`` are the outstanding
    request sets, and ``waiting`` the seconds of passenger waiting
    accumulated so far.  ``onboard``/``capacity`` track seat usage and
    ``path`` records the stops chosen on the way to this node.
    """

    stop: StopId
    time: int
    awaiting_pickup: frozenset[TripRequest]
    awaiting_dropoff: frozenset[TripRequest]
    waiting: int
    onboard: int
    capacity: int
    path: tuple[StopId, ...] = ()

    def is_terminal(self) -> bool:
        return not self.awaiting_pickup and not self.awaiting_dropoff


def create_root_node(v: ShuttleState, new_requests) -> TravelSearchNode:
    """Root of the search: the shuttle's committed state plus the new requests."""
    new = frozenset(new_requests)
    already = v.pending_pickups | v.pending_dropoffs
    overlap = new & already
    if overlap:
        ids = ", ".join(sorted(r.id for r in overlap))
        raise ValueError(f"requests already committed to shuttle {v.id}: {ids}")
    return TravelSearchNode(
        stop=v.heading_stop,
        time=v.arrival_time,
        awaiting_pickup=v.pending_pickups | new,
        awaiting_dropoff=v.pending_dropoffs,
        waiting=0,
        onboard=v.onboard,
        capacity=v.capacity,
    )


def _stop_actions(node: TravelSearchNode, stop: StopId):
    picked = [r for r in node.awaiting_pickup if r.pickup == stop]
    dropped = [r for r in node.awaiting_dropoff if r.dropoff == stop]
    return picked, dropped


def get_possible_next_stops(node: TravelSearchNode) -> set[StopId]:
    """Deduplicated pickup/drop-off stops still owed, minus capacity-infeasible ones.

    Empty exactly when the node is terminal or a dead end (the caller
    distinguishes the two via :meth:`TravelSearchNode.is_terminal`).
    """
    candidates = {r.pickup for r in node.awaiting_pickup}
    candidates |= {r.dropoff for r in node.awaiting_dropoff}
    feasible = set()
    for stop in candidates:
        picked, dropped = _stop_actions(node, stop)
        after = node.onboard - sum(r.passengers for r in dropped) + sum(r.passengers for r in picked)
        if after <= node.capacity:
            feasible.add(stop)
    return feasible


def extend_node(node: TravelSearchNode, stop: StopId, network: TravelNetwork,
                per_passenger: bool = False) -> TravelSearchNode:
    """Advance to ``stop``, applying every pickup and drop-off due there.

    Each pickup of request r adds ``max(0, arrival - request_time)``
    waiting (scaled by party size when ``per_passenger``); if the
    shuttle beats the request time (a future-dated carry-over), it
    idles at the stop until the passenger shows up.
    """
    picked, dropped = _stop_actions(node, stop)
    if not picked and not dropped:
        raise ValueError(f"stop {stop} has no pending action for this node")
    arrival = node.time + network.travel_time(node.stop, stop)
    onboard = node.onboard - sum(r.passengers for r in dropped) + sum(r.passengers for r in picked)
    if onboard > node.capacity:
        raise CapacityExceededError(
            f"visiting {stop} would load {onboard} > capacity {node.capacity}"
        )
    waiting = node.waiting
    depart = arrival
    for r in picked:
        waiting += max(0, arrival - r.request_time) * (r.passengers if per_passenger else 1)
        depart = max(depart, r.request_time)
    return TravelSearchNode(
        stop=stop,
        time=depart,
        awaiting_pickup=node.awaiting_pickup - frozenset(picked),
        awaiting_dropoff=(node.awaiting_dropoff - frozenset(dropped)) | frozenset(picked),
        waiting=waiting,
        onboard=onboard,
        capacity=node.capacity,
        path=node.path + (stop,),
    )


def optimal_sequence(
    v: ShuttleState, new_requests, network: TravelNetwork, per_passenger: bool = False
) -> tuple[int, tuple[StopId, ...]] | None:
    """Minimum-waiting stop sequence serving the shuttle's old and new work.

    Returns ``(total_waiting_seconds, sequence)`` or ``None`` when no
    capacity-respecting sequence exists.  The sequence starts after the
    shuttle's current heading stop (a first element equal to it means
    "act there on arrival").  ``per_passenger`` weights each request's
    waiting by its party size.
    """
    root = create_root_node(v, new_requests)
    return _search(root, network, per_passenger)


# -- search engine ---------------------------------------------------------
#
# The dataclass node above is the contract surface; the inner loop runs on
# packed tuples with stops as network indices, request sets as bitmasks
# and travel times read straight from the network's rows, which keeps
# per-node cost low enough for the simulator's per-tick fan-out.
# Transitions mirror extend_node exactly.


def _search(root: TravelSearchNode, network: TravelNetwork, per_passenger: bool = False):
    pickups, dropoffs = root.awaiting_pickup, root.awaiting_dropoff
    if not pickups and not dropoffs:
        return 0, ()
    index = network.index
    ids = network.ids
    # Per request bit j: pickup stop, request time, party size and waiting
    # weight.  Pickups take the low bits; riders aboard only need pax.
    pick_stop: list[int] = []
    due: list[int] = []
    pax: list[int] = []
    weight: list[int] = []
    at: dict[int, list[int]] = {}  # stop -> [pick bits, drop bits] due there
    try:
        start = index[root.stop]
        bit = 1
        for r in pickups:
            p = index[r.pickup]
            pick_stop.append(p)
            due.append(r.request_time)
            pax.append(r.passengers)
            weight.append(r.passengers if per_passenger else 1)
            at.setdefault(p, [0, 0])[0] |= bit
            at.setdefault(index[r.dropoff], [0, 0])[1] |= bit
            bit <<= 1
        root_pick = bit - 1
        for r in dropoffs:
            pax.append(r.passengers)
            at.setdefault(index[r.dropoff], [0, 0])[1] |= bit
            bit <<= 1
        root_drop = bit - 1 - root_pick
    except KeyError as err:
        raise UnknownStopError(err.args[0]) from None
    # Involved stops ascending, so drop-off tails come out sorted.
    stops = [(s, bits[0], bits[1], network.row(s)) for s, bits in sorted(at.items())]
    capacity = root.capacity
    best_w = math.inf
    best_seq: tuple[int, ...] | None = None

    if not root_pick:
        best_w, best_seq = 0, _drop_tail(stops, root_drop, start, network.row(start), ids)
        stack = []
    else:
        # (bound, stop, row, time, pick_mask, drop_mask, waiting, onboard, path)
        stack = [(0, start, network.row(start), root.time, root_pick, root_drop, 0,
                  root.onboard, ())]
    while stack:
        bound, stop, row, now, pick_mask, drop_mask, waiting, onboard, path = stack.pop()
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
            leg = row[s]
            if leg is None:
                raise UnreachableStopError(f"no path from {ids[stop]} to {ids[s]}")
            arrival = now + leg
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
            if w > best_w:
                continue
            rest = pick_mask ^ picked
            drops = (drop_mask ^ dropped) | picked
            if not rest:
                # Only drop-offs remain: order is cost-free, close the branch.
                seq = path + (s,) + _drop_tail(stops, drops, s, row_s, ids)
                if w < best_w or seq < best_seq:  # w <= best_w here
                    best_w, best_seq = w, seq
                continue
            # Each outstanding pickup j is reached no earlier than
            # depart + tt(s, pickup_j) - 1 (see the module docstring).
            bound = w
            bits = rest
            while bits:
                low = bits & -bits
                j = low.bit_length() - 1
                leg = row_s[pick_stop[j]]
                if leg is None:
                    raise UnreachableStopError(f"no path from {ids[s]} to {ids[pick_stop[j]]}")
                late = depart + leg - 1 - due[j]
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
    return best_w, tuple(ids[s] for s in best_seq)


def _drop_tail(stops, drops: int, stop: int, row, ids) -> tuple[int, ...]:
    """The drop-off stops of ``drops`` in index order, driven from ``stop``."""
    tail = []
    for s, _, drop_s, row_s in stops:
        if drops & drop_s:
            if row[s] is None:
                raise UnreachableStopError(f"no path from {ids[stop]} to {ids[s]}")
            tail.append(s)
            stop, row = s, row_s
    return tuple(tail)
