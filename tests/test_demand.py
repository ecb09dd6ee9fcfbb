import math
import statistics
from dataclasses import replace

import pytest

from odshuttle.demand import DemandProfile, generate_demand
from odshuttle.network import Region, TripType, classify_trip

REGION = Region(member_stops={"A", "B", "C", "D"}, gateway_stations={"G1", "G2"})


def flat_profile(per_hour, horizon=3600, mix=(1.0, 0.0, 0.0), seed=1, **kw):
    return DemandProfile(rates=((0, horizon, per_hour),), mix=mix, seed=seed, **kw)


def test_zero_rate_yields_no_requests():
    profile = DemandProfile(rates=((0, 3600, 0.0),), seed=3)
    assert generate_demand(profile, REGION, 3600) == []


def test_poisson_mean_over_many_seeds():
    # 60/hour over one hour: the seed-averaged count estimates 60 with
    # standard error sqrt(60/1000).
    counts = []
    for seed in range(1000):
        profile = flat_profile(60.0, seed=seed)
        counts.append(len(generate_demand(profile, REGION, 3600)))
    se = math.sqrt(60.0 / len(counts))
    assert abs(statistics.mean(counts) - 60.0) <= 3 * se


def test_degenerate_mix_all_intra():
    profile = flat_profile(40.0, mix=(1.0, 0.0, 0.0))
    for r in generate_demand(profile, REGION, 3600):
        assert classify_trip(r, REGION) is TripType.INTRA_REGION


def test_generated_requests_classify_for_all_types():
    profile = flat_profile(120.0, mix=(0.5, 0.3, 0.2), seed=9)
    requests = generate_demand(profile, REGION, 3600)
    seen = {classify_trip(r, REGION) for r in requests}
    assert seen == {TripType.INTRA_REGION, TripType.OUTBOUND_CONNECTOR,
                    TripType.INBOUND_CONNECTOR}


def test_same_seed_identical_output():
    profile = flat_profile(50.0, mix=(0.6, 0.2, 0.2), seed=77)
    a = generate_demand(profile, REGION, 3600)
    b = generate_demand(profile, REGION, 3600)
    assert a == b
    different = generate_demand(replace(profile, seed=78), REGION, 3600)
    assert a != different


def test_arrival_times_within_horizon_sorted():
    profile = flat_profile(100.0, seed=5)
    requests = generate_demand(profile, REGION, 1800)
    assert all(0 <= r.request_time < 1800 for r in requests)
    times = [r.request_time for r in requests]
    assert times == sorted(times)


def test_piecewise_rates_concentrate_arrivals():
    profile = DemandProfile(rates=((0, 1800, 5.0), (1800, 3600, 100.0)), seed=11)
    requests = generate_demand(profile, REGION, 3600)
    late = sum(1 for r in requests if r.request_time >= 1800)
    assert late > len(requests) * 0.8


def test_rate_gap_means_zero_demand():
    profile = DemandProfile(rates=((0, 600, 200.0), (1200, 1800, 200.0)), seed=2)
    requests = generate_demand(profile, REGION, 1800)
    assert requests
    assert not any(600 <= r.request_time < 1200 for r in requests)


def test_spatial_weights_shift_sampling():
    heavy = flat_profile(200.0, seed=4, member_weights={"A": 50.0, "B": 1.0, "C": 1.0, "D": 1.0})
    requests = generate_demand(heavy, REGION, 3600)
    share = sum(1 for r in requests if r.pickup == "A") / len(requests)
    assert share > 0.5


def test_intra_mix_needs_two_member_stops():
    tiny = Region(member_stops={"A"}, gateway_stations={"G1"})
    with pytest.raises(ValueError):
        generate_demand(flat_profile(10.0), tiny, 3600)


def test_connector_mix_needs_gateways():
    no_gates = Region(member_stops={"A", "B"}, gateway_stations=set())
    profile = flat_profile(10.0, mix=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError):
        generate_demand(profile, no_gates, 3600)


def test_mix_must_sum_to_one():
    with pytest.raises(ValueError):
        DemandProfile(rates=((0, 10, 1.0),), mix=(0.5, 0.2, 0.2))


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        DemandProfile(rates=((0, 10, -1.0),))


def test_overlapping_rates_rejected():
    with pytest.raises(ValueError, match="overlap"):
        DemandProfile(rates=((0, 3600, 10.0), (1800, 3600, 80.0)))
    adjacent = DemandProfile(rates=((1800, 3600, 80.0), (0, 1800, 10.0)))
    assert (adjacent.rate_at(1799), adjacent.rate_at(1800)) == (10.0, 80.0)
