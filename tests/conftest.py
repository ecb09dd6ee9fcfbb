import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from odshuttle.network import TravelNetwork
from odshuttle.types import ShuttleState, Stop, TripRequest


@pytest.fixture
def line_network():
    """Four stops on a line, euclidean, 10 m/s: A-B-C-D at 400 m spacing."""
    stops = [Stop("A", 0, 0), Stop("B", 400, 0), Stop("C", 800, 0), Stop("D", 1200, 0)]
    return TravelNetwork.euclidean(stops, speed=10)


def make_grid_network(rng, n_stops, extent=2000.0, speed=10.0):
    stops = []
    for i in range(n_stops):
        stops.append(
            Stop(f"n{i:02d}", round(rng.uniform(0, extent), 1), round(rng.uniform(0, extent), 1))
        )
    return TravelNetwork.euclidean(stops, speed=speed)


def idle_fleet_instance(n_shuttles):
    """``n_shuttles`` identical idle shuttles (cap 3) and eight requests on an 8-stop grid."""
    rng = random.Random(31)
    network = make_grid_network(rng, 8)
    ids = network.stop_ids()
    requests = [TripRequest(id=f"r{i}", pickup=ids[i], dropoff=ids[(i + 3) % 8],
                            request_time=rng.randint(0, 100)) for i in range(8)]
    shuttles = [ShuttleState(id=f"v{i:04d}", heading_stop=ids[0], arrival_time=0, capacity=3)
                for i in range(n_shuttles)]
    return network, requests, shuttles


def twin_fleet_instance():
    """Twelve shuttles (cap 8) idle at m00 at time 0 on the 4x4 ``m`` grid of
    lowridership.cfg (600 m spacing, 9 m/s), each owing one pickup c<i> from
    m11 to m22, and eight requests.  The states differ only by request id."""
    stops = [Stop(f"m{i}{j}", 600 * j, 600 * i) for i in range(4) for j in range(4)]
    network = TravelNetwork.euclidean(stops, speed=9.0)
    ids = network.stop_ids()
    shuttles = [ShuttleState(id=f"v{i:02d}", heading_stop="m00", arrival_time=0, capacity=8,
                             pending_pickups={TripRequest(f"c{i}", "m11", "m22", 0)})
                for i in range(12)]
    requests = [TripRequest(f"r{k}", ids[(3 * k + 1) % 16], ids[(5 * k + 8) % 16], 0)
                for k in range(8)]
    return network, requests, shuttles


# Size table for randomized sequencing instances: (new, committed-pickup,
# committed-onboard) combos kept small enough that the exhaustive oracle
# stays tractable (at most 10 pickup/drop-off actions).
_SIZE_COMBOS = [
    (new, cp, cd)
    for new in range(5)
    for cp in range(3)
    for cd in range(3 - cp)
    if 2 * (new + cp) + cd <= 10
]


def random_costing_instance(rng):
    """A random shuttle + committed work + new requests on random geometry."""
    network = make_grid_network(rng, rng.randint(4, 9))
    ids = network.stop_ids()
    new_count, committed_pick, committed_drop = _SIZE_COMBOS[rng.randrange(len(_SIZE_COMBOS))]

    def pick_pair():
        a = rng.choice(ids)
        b = rng.choice([s for s in ids if s != a])
        return a, b

    seq = [0]

    def make_request(prefix):
        seq[0] += 1
        a, b = pick_pair()
        passengers = 2 if rng.random() < 0.2 else 1
        return TripRequest(
            id=f"{prefix}{seq[0]:02d}",
            pickup=a,
            dropoff=b,
            request_time=rng.randint(0, 200),
            passengers=passengers,
        )

    pending_pickups = frozenset(make_request("c") for _ in range(committed_pick))
    pending_dropoffs = frozenset(make_request("o") for _ in range(committed_drop))
    onboard = sum(r.passengers for r in pending_dropoffs)
    capacity = max(onboard, rng.choice([1, 2, 3, 8]))
    shuttle = ShuttleState(
        id="v01",
        heading_stop=rng.choice(ids),
        arrival_time=rng.randint(0, 120),
        pending_pickups=pending_pickups,
        pending_dropoffs=pending_dropoffs,
        capacity=capacity,
    )
    new_requests = frozenset(make_request("r") for _ in range(new_count))
    return shuttle, new_requests, network


def random_dispatch_problem(rng, max_vehicles=4, max_requests=8, max_cap=3, max_combos=120_000,
                            twins=False, overloaded=False, one_class=False):
    """Random dispatch instance sized so the brute-force oracle stays tractable.

    With ``twins``, about half the shuttles after the first copy the state
    of an earlier one under a new id (committed work renamed alike).

    With ``overloaded``, one or two shuttles are free and take at least
    five requests between them; every other shuttle already owes as many
    requests as ``max_outstanding`` allows, so its only plan is the empty
    one.  With ``one_class``, three or more shuttles all copy the first
    one's state, so their plan lists agree rank by rank: one large class.
    """
    import math
    from dataclasses import replace

    from odshuttle.enumeration import enumerate_plans
    from odshuttle.solver import DispatchProblem

    while True:
        if overloaded:
            n_free = rng.randint(1, 2)
            n_vehicles = n_free + rng.randint(0, max_vehicles)
            n_requests = rng.randint(max(5, 3 * n_free), max(5, 3 * n_free, max_requests))
        else:
            n_vehicles = rng.randint(3 if one_class else 1, max_vehicles)
            n_requests = rng.randint(0, max_requests)
        cap = rng.randint(1, max_cap)
        per_vehicle = sum(math.comb(n_requests, k) for k in range(0, min(cap, n_requests) + 1))
        if per_vehicle ** (n_free if overloaded else n_vehicles) <= max_combos:
            break

    network = make_grid_network(rng, rng.randint(4, 8))
    ids = network.stop_ids()

    def pick_pair():
        a = rng.choice(ids)
        b = rng.choice([s for s in ids if s != a])
        return a, b

    requests = []
    for i in range(n_requests):
        a, b = pick_pair()
        requests.append(TripRequest(id=f"r{i:02d}", pickup=a, dropoff=b,
                                    request_time=rng.randint(0, 100)))
    shuttles = []
    for i in range(n_vehicles):
        if overloaded and i >= n_free:
            owed = set()
            for k in range(cap):
                a, b = pick_pair()
                owed.add(TripRequest(id=f"cv{i}-{k}", pickup=a, dropoff=b,
                                     request_time=rng.randint(0, 50)))
            shuttles.append(ShuttleState(id=f"v{i:02d}", heading_stop=rng.choice(ids),
                                         arrival_time=rng.randint(0, 60),
                                         pending_pickups=owed, capacity=8))
            continue
        if shuttles and (one_class or twins and rng.random() < 0.5):
            twin = shuttles[0] if one_class else rng.choice(shuttles)
            shuttles.append(replace(
                twin, id=f"v{i:02d}",
                pending_pickups={replace(r, id=f"cv{i}") for r in twin.pending_pickups},
                pending_dropoffs={replace(r, id=f"cv{i}") for r in twin.pending_dropoffs},
            ))
            continue
        pending_pickups = set()
        pending_dropoffs = set()
        if rng.random() < 0.4:
            a, b = pick_pair()
            committed = TripRequest(id=f"cv{i}", pickup=a, dropoff=b,
                                    request_time=rng.randint(0, 50))
            (pending_pickups if rng.random() < 0.5 else pending_dropoffs).add(committed)
        shuttles.append(
            ShuttleState(
                id=f"v{i:02d}",
                heading_stop=rng.choice(ids),
                arrival_time=rng.randint(0, 60),
                pending_pickups=pending_pickups,
                pending_dropoffs=pending_dropoffs,
                capacity=rng.choice([2, 3, 8]),
            )
        )
    plan_set = enumerate_plans(shuttles, requests, cap, network,
                               max_outstanding=cap if overloaded else None)
    penalties = {r.id: rng.choice([0, 50, 200, 1000, 3600]) for r in requests}
    return DispatchProblem(requests=tuple(requests), plan_set=plan_set, miss_penalty=penalties)
