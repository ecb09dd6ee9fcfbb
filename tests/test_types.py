import pytest

from odshuttle.enumeration import plan_route
from odshuttle.types import AssignmentPlan, DispatchSolution, ShuttleState, Stop, TripRequest


def test_request_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        TripRequest(id="r1", pickup="A", dropoff="A", request_time=0)


def test_request_rejects_negative_time_and_zero_passengers():
    with pytest.raises(ValueError):
        TripRequest(id="r1", pickup="A", dropoff="B", request_time=-1)
    with pytest.raises(ValueError):
        TripRequest(id="r1", pickup="A", dropoff="B", request_time=0, passengers=0)


def test_stop_rejects_non_finite_coordinates():
    with pytest.raises(ValueError):
        Stop("A", float("nan"), 0.0)
    with pytest.raises(ValueError):
        Stop("A", 0.0, float("inf"))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Stop("", 0.0, 0.0), "stop id must be non-empty", id="stop-id"),
    pytest.param(lambda: TripRequest(id="", pickup="A", dropoff="B", request_time=0),
                 "request id must be non-empty", id="request-id"),
    pytest.param(lambda: ShuttleState(id="", heading_stop="A", arrival_time=0),
                 "shuttle id must be non-empty", id="shuttle-id"),
    pytest.param(lambda: ShuttleState(id="v1", heading_stop="A", arrival_time=0, capacity=0),
                 "shuttle v1: capacity must be >= 1", id="shuttle-capacity-0"),
    pytest.param(lambda: ShuttleState(id="v1", heading_stop="A", arrival_time=-1),
                 "shuttle v1: arrival_time must be >= 0", id="shuttle-negative-arrival"),
])
def test_value_objects_reject_empty_ids_and_no_seats(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_shuttle_onboard_derived_from_pending_dropoffs():
    r1 = TripRequest(id="r1", pickup="A", dropoff="B", request_time=0, passengers=2)
    r2 = TripRequest(id="r2", pickup="A", dropoff="C", request_time=0)
    v = ShuttleState(id="v1", heading_stop="A", arrival_time=0,
                     pending_pickups={r2}, pending_dropoffs={r1}, capacity=4)
    assert v.onboard == 2


def test_shuttle_rejects_overload_at_construction():
    riders = {TripRequest(id=f"r{i}", pickup="A", dropoff="B", request_time=0) for i in range(5)}
    with pytest.raises(ValueError):
        ShuttleState(id="v1", heading_stop="A", arrival_time=0,
                     pending_dropoffs=riders, capacity=4)


def test_shuttle_rejects_overlapping_pending_sets():
    r = TripRequest(id="r1", pickup="A", dropoff="B", request_time=0)
    with pytest.raises(ValueError):
        ShuttleState(id="v1", heading_stop="A", arrival_time=0,
                     pending_pickups={r}, pending_dropoffs={r})


def test_retimed_state_equals_constructed_state():
    # The simulator shows idle shuttles to the dispatcher this way, without
    # re-running the constructor; the copy must be indistinguishable.
    r = TripRequest(id="r1", pickup="A", dropoff="B", request_time=0)
    for owed in ({}, {"pending_pickups": {r}}, {"pending_dropoffs": {r}}):
        v = ShuttleState(id="v1", heading_stop="A", arrival_time=30, capacity=4, **owed)
        moved = v.retimed(90)
        built = ShuttleState(id="v1", heading_stop="A", arrival_time=90, capacity=4, **owed)
        assert moved == built and hash(moved) == hash(built)
        assert moved.arrival_time == 90 and v.arrival_time == 30
        assert moved.retimed(30) == v


def test_value_objects_still_freeze_any_iterable(line_network):
    r = TripRequest(id="r1", pickup="A", dropoff="B", request_time=0)
    v = ShuttleState(id="v1", heading_stop="A", arrival_time=0, pending_pickups=[r],
                     pending_dropoffs=set())
    assert type(v.pending_pickups) is frozenset and type(v.pending_dropoffs) is frozenset
    plan = AssignmentPlan(requests=[r], cost=5)
    idle = ShuttleState(id="v2", heading_stop="A", arrival_time=0)
    assert plan.requests == frozenset({r}) and plan_route(idle, plan, line_network) == ("A", "B")
    assert hash(plan) == hash(AssignmentPlan(requests=frozenset({r}), cost=5))
    solution = DispatchSolution(selected={}, missed={"r1"}, objective=0)
    assert type(solution.missed) is frozenset and solution.missed == {"r1"}
