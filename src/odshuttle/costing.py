"""Optimal pickup/drop-off sequencing for one shuttle.

Given a shuttle's committed work and a set of newly assigned requests,
this module finds the stop sequence minimizing total passenger waiting
(seconds between a request being placed and its pickup) via depth-first
branch and bound.  Search state is a :class:`TravelSearchNode`; a branch
is cut as soon as its accumulated waiting exceeds the incumbent, which
is safe because waiting never decreases along a path.

Two behaviors beyond the basic search:

* Capacity is tracked per node.  At a stop, alighting happens before
  boarding; an extension that would leave more passengers aboard than
  seats is infeasible.  If no sequence survives, the assignment itself
  is infeasible.
* Once every pickup is done, all remaining drop-off orders cost the
  same (zero added waiting), so such branches close immediately by
  appending the outstanding drop-off stops in id order.

Ties between equal-cost sequences resolve to the lexicographically
smallest stop-id sequence, so results never depend on set iteration
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityExceededError
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
# packed tuples with request sets as bitmasks, which keeps per-node cost low
# enough for the simulator's per-tick fan-out.  Transitions mirror
# extend_node exactly.


def _search(root: TravelSearchNode, network: TravelNetwork, per_passenger: bool = False):
    reqs = sorted(root.awaiting_pickup | root.awaiting_dropoff, key=lambda r: r.id)
    n = len(reqs)
    if n == 0:
        return 0, ()
    index = {r: i for i, r in enumerate(reqs)}
    pax = [r.passengers for r in reqs]
    rt = [r.request_time for r in reqs]

    pick_bits_at: dict[StopId, int] = {}
    drop_bits_at: dict[StopId, int] = {}
    for r in root.awaiting_pickup:
        pick_bits_at[r.pickup] = pick_bits_at.get(r.pickup, 0) | (1 << index[r])
    for r in reqs:
        drop_bits_at[r.dropoff] = drop_bits_at.get(r.dropoff, 0) | (1 << index[r])
    drop_stop = [r.dropoff for r in reqs]

    root_pick = 0
    for r in root.awaiting_pickup:
        root_pick |= 1 << index[r]
    root_drop = 0
    for r in root.awaiting_dropoff:
        root_drop |= 1 << index[r]

    travel = network.travel_time
    capacity = root.capacity
    best_w: int | None = None
    best_seq: tuple[StopId, ...] | None = None

    # (stop, time, pick_mask, drop_mask, waiting, onboard, path)
    stack = [(root.stop, root.time, root_pick, root_drop, 0, root.onboard, ())]
    while stack:
        stop, now, pick_mask, drop_mask, waiting, onboard, path = stack.pop()
        if best_w is not None and waiting > best_w:
            continue
        if pick_mask == 0:
            # Only drop-offs remain: order is cost-free, close the branch.
            tail = sorted({drop_stop[i] for i in _bit_indices(drop_mask)})
            seq = path + tuple(tail)
            if best_w is None or waiting < best_w or (waiting == best_w and seq < best_seq):
                best_w, best_seq = waiting, seq
            continue

        candidates = set()
        bits = pick_mask
        while bits:
            low = bits & -bits
            candidates.add(reqs[low.bit_length() - 1].pickup)
            bits ^= low
        bits = drop_mask
        while bits:
            low = bits & -bits
            candidates.add(drop_stop[low.bit_length() - 1])
            bits ^= low

        children = []
        for s in candidates:
            picked = pick_mask & pick_bits_at.get(s, 0)
            dropped = drop_mask & drop_bits_at.get(s, 0)
            if not picked and not dropped:
                continue
            new_onboard = onboard
            for i in _bit_indices(dropped):
                new_onboard -= pax[i]
            for i in _bit_indices(picked):
                new_onboard += pax[i]
            if new_onboard > capacity:
                continue
            arrival = now + travel(stop, s)
            w = waiting
            depart = arrival
            for i in _bit_indices(picked):
                w += max(0, arrival - rt[i]) * (pax[i] if per_passenger else 1)
                if rt[i] > depart:
                    depart = rt[i]
            if best_w is not None and w > best_w:
                continue
            children.append(
                (w, s, depart, (pick_mask ^ picked), (drop_mask ^ dropped) | picked, new_onboard)
            )
        # Explore cheapest-first; reversed so the stack pops ascending (w, stop).
        children.sort(key=lambda c: (c[0], c[1]), reverse=True)
        for w, s, depart, pick2, drop2, onboard2 in children:
            stack.append((s, depart, pick2, drop2, w, onboard2, path + (s,)))

    if best_w is None:
        return None
    return best_w, best_seq


def _bit_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
