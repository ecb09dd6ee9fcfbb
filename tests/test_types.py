import pytest

from odshuttle.types import ShuttleState, Stop, TripRequest


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
