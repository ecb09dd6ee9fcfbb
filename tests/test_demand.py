import hashlib
import math
import random
import statistics
from pathlib import Path

import pytest

from odshuttle.demand import DemandProfile, check_drawable, generate_demand
from odshuttle.errors import ConfigError
from odshuttle.fileio import load_scenario, write_demand_csv
from odshuttle.network import Region, TripType, classify_trip

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

REGION = Region(member_stops={"A", "B", "C", "D"}, gateway_stations={"G1", "G2"})


def flat_profile(per_hour, horizon=3600, mix=(1.0, 0.0, 0.0), **kw):
    return DemandProfile(rates=((0, horizon, per_hour),), mix=mix, **kw)


def test_zero_rate_yields_no_requests():
    profile = DemandProfile(rates=((0, 3600, 0.0),))
    assert generate_demand(profile, REGION, 3600, 3) == []


def test_poisson_mean_over_many_seeds():
    # 60/hour over one hour: the seed-averaged count estimates 60 with
    # standard error sqrt(60/1000).
    counts = []
    for seed in range(1000):
        counts.append(len(generate_demand(flat_profile(60.0), REGION, 3600, seed)))
    se = math.sqrt(60.0 / len(counts))
    assert abs(statistics.mean(counts) - 60.0) <= 3 * se


def test_degenerate_mix_all_intra():
    profile = flat_profile(40.0, mix=(1.0, 0.0, 0.0))
    for r in generate_demand(profile, REGION, 3600, 1):
        assert classify_trip(r, REGION) is TripType.INTRA_REGION


def test_generated_requests_classify_for_all_types():
    profile = flat_profile(120.0, mix=(0.5, 0.3, 0.2))
    requests = generate_demand(profile, REGION, 3600, 9)
    seen = {classify_trip(r, REGION) for r in requests}
    assert seen == {TripType.INTRA_REGION, TripType.OUTBOUND_CONNECTOR,
                    TripType.INBOUND_CONNECTOR}


def test_same_seed_identical_output():
    profile = flat_profile(50.0, mix=(0.6, 0.2, 0.2))
    a = generate_demand(profile, REGION, 3600, 77)
    b = generate_demand(profile, REGION, 3600, 77)
    assert a == b
    different = generate_demand(profile, REGION, 3600, 78)
    assert a != different


def test_arrival_times_within_horizon_sorted():
    requests = generate_demand(flat_profile(100.0), REGION, 1800, 5)
    assert all(0 <= r.request_time < 1800 for r in requests)
    times = [r.request_time for r in requests]
    assert times == sorted(times)


def test_piecewise_rates_concentrate_arrivals():
    profile = DemandProfile(rates=((0, 1800, 5.0), (1800, 3600, 100.0)))
    requests = generate_demand(profile, REGION, 3600, 11)
    late = sum(1 for r in requests if r.request_time >= 1800)
    assert late > len(requests) * 0.8


def test_rate_gap_means_zero_demand():
    profile = DemandProfile(rates=((0, 600, 200.0), (1200, 1800, 200.0)))
    requests = generate_demand(profile, REGION, 1800, 2)
    assert requests
    assert not any(600 <= r.request_time < 1200 for r in requests)


def test_spatial_weights_shift_sampling():
    heavy = flat_profile(200.0, member_weights={"A": 50.0, "B": 1.0, "C": 1.0, "D": 1.0})
    requests = generate_demand(heavy, REGION, 3600, 4)
    share = sum(1 for r in requests if r.pickup == "A") / len(requests)
    assert share > 0.5


def test_intra_mix_needs_two_member_stops():
    tiny = Region(member_stops={"A"}, gateway_stations={"G1"})
    with pytest.raises(ValueError):
        generate_demand(flat_profile(10.0), tiny, 3600, 1)


def test_connector_mix_needs_gateways():
    no_gates = Region(member_stops={"A", "B"}, gateway_stations=set())
    profile = flat_profile(10.0, mix=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError):
        generate_demand(profile, no_gates, 3600, 1)


def test_mix_must_sum_to_one():
    with pytest.raises(ValueError) as err:
        DemandProfile(rates=((0, 10, 1.0),), mix=(0.5, 0.2, 0.2))
    assert err.value.fields == ("mix",)


@pytest.mark.parametrize("mix", [(0.5, 0.5), (1.2, -0.2, 0.0)], ids=["two", "negative"])
def test_mix_needs_three_non_negative_fractions(mix):
    with pytest.raises(ConfigError, match="mix needs three non-negative fractions") as err:
        DemandProfile(rates=((0, 10, 1.0),), mix=mix)
    assert err.value.fields == ("mix",)


def test_negative_rate_rejected():
    with pytest.raises(ValueError) as err:
        DemandProfile(rates=((0, 10, -1.0),))
    assert err.value.fields == (("rates", 0),)


def test_overlapping_rates_rejected():
    with pytest.raises(ValueError, match="overlap") as err:
        DemandProfile(rates=((0, 3600, 10.0), (1800, 3600, 80.0)))
    assert err.value.fields == (("rates", 1),)
    adjacent = DemandProfile(rates=((1800, 3600, 80.0), (0, 1800, 10.0)))
    assert (adjacent.rate_at(1799), adjacent.rate_at(1800)) == (10.0, 80.0)


@pytest.mark.parametrize("rates, at, message", [
    # Sorted, [3000, 6000) sits between the other two and overlaps both; the
    # message names it and the earliest-starting piece it overlaps, in start order.
    (((0, 3600, 5), (5400, 7200, 5), (3000, 6000, 5)), 2,
     "rate intervals [0, 3600) and [3000, 6000) overlap"),
    (((0, 3600, 10.0), (1800, 5400, -1.0)), 1, "negative arrival rate on [1800, 5400)"),
])
def test_rate_error_names_first_bad_piece(rates, at, message):
    with pytest.raises(ValueError) as err:
        DemandProfile(rates=rates)
    assert err.value.fields == (("rates", at),)
    assert str(err.value) == message


def test_rate_at_matches_the_linear_rule():
    # Seeded random profiles with gaps and adjacent pieces, in any order, read
    # at every start and end, just around them, and before and after them all.
    rng = random.Random(20261019)
    for _ in range(200):
        pieces, t = [], rng.randint(-5, 5)
        for _ in range(rng.randint(0, 6)):
            t += rng.choice([0, 0, rng.randint(1, 50)])  # adjacent or after a gap
            end = t + rng.randint(1, 50)
            pieces.append((t, end, rng.choice([0.0, rng.uniform(0.1, 100.0)])))
            t = end
        rng.shuffle(pieces)
        profile = DemandProfile(rates=pieces)
        edges = {edge for start, end, _ in pieces for edge in (start, end)} or {0}
        times = [x + d for x in edges for d in (-1, -0.5, 0, 0.5)]
        times += [min(edges) - 100, max(edges) + 100, rng.uniform(-10, t + 10)]
        for x in times:
            linear = next((rate for start, end, rate in pieces if start <= x < end), 0.0)
            assert profile.rate_at(x) == linear, (pieces, x)


def test_weight_must_name_a_stop_of_its_set():
    for weights, fields in [({"member_weights": {"A": 1.0, "G1": 2.0}}, ("member_weights", "G1")),
                            ({"gateway_weights": {"Z": 1.0}}, ("gateway_weights", "Z"))]:
        with pytest.raises(ConfigError, match="which is not a region") as err:
            check_drawable(flat_profile(10.0, mix=(0.5, 0.5, 0.0), **weights), REGION)
        assert err.value.fields == (fields,)


def test_weighted_demand_is_pinned():
    # Every trip kind with member and gateway weights, one stop weighted 0,
    # on the bundled lowridership region.  The hash pins the draw order.
    region = load_scenario(SCENARIOS / "lowridership.cfg").region
    profile = DemandProfile(
        rates=((0, 5400, 40.0), (5400, 10800, 15.0)), mix=(0.5, 0.3, 0.2),
        member_weights={"m00": 3.0, "m11": 0.5, "m22": 0.0, "m33": 2.0},
        gateway_weights={"g01": 2.5, "g02": 0.5})
    requests = generate_demand(profile, region, 10800, 7)
    assert len(requests) == 88
    assert {classify_trip(r, region) for r in requests} == set(TripType)
    assert all("m22" not in (r.pickup, r.dropoff) for r in requests)
    assert hashlib.sha256(write_demand_csv(requests).encode()).hexdigest() == \
        "ecac1cc2eb0dd4115cfbaae149ce88a6cfae539c879301bed9de0f55f60fd42b"


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="stop weights must be >= 0") as err:
        flat_profile(10.0, member_weights={"B": 1.0, "A": -100.0})
    assert err.value.fields == (("member_weights", "A"),)
    with pytest.raises(ValueError, match="stop weights must be >= 0") as err:
        flat_profile(10.0, gateway_weights={"G1": -1.0})
    assert err.value.fields == (("gateway_weights", "G1"),)


def test_weights_whose_sum_overflows_rejected():
    # Each weight is finite, but a draw would scale its random number by an
    # infinite sum and never fall below a running total.
    with pytest.raises(ValueError, match="member weights sum to inf") as err:
        flat_profile(100.0, member_weights={"A": 1e308, "B": 1e308})
    assert err.value.fields == ("member_weights",)
    with pytest.raises(ValueError, match="gateway weights sum to inf") as err:
        flat_profile(100.0, mix=(0.0, 1.0, 0.0), gateway_weights={"G1": 1e308, "G2": 1e308})
    assert err.value.fields == ("gateway_weights",)
    # The largest finite sums still draw.
    profile = flat_profile(100.0, member_weights={"A": 8e307, "B": 8e307})
    assert {r.pickup for r in generate_demand(profile, REGION, 3600, 1)} == {"A", "B"}


@pytest.mark.parametrize("mix, weights", [
    pytest.param((1.0, 0.0, 0.0), {"member_weights": {"A": 0.0, "B": 0.0, "C": 0.0}},
                 id="intra-one-positive-member"),
    pytest.param((0.0, 1.0, 0.0), {"gateway_weights": {"G1": 0.0, "G2": 0.0}},
                 id="outbound-no-positive-gateway"),
    pytest.param((0.0, 0.0, 1.0), {"member_weights": dict.fromkeys("ABCD", 0.0)},
                 id="inbound-no-positive-member"),
])
def test_weights_that_cannot_be_drawn_fail(mix, weights):
    with pytest.raises(ValueError, match="of positive weight"):
        generate_demand(flat_profile(10.0, mix=mix, **weights), REGION, 3600, 1)


def test_zero_weight_stop_is_never_drawn():
    profile = flat_profile(200.0, mix=(0.5, 0.3, 0.2), member_weights={"A": 0.0, "B": 0.0},
                           gateway_weights={"G1": 0.0})
    requests = generate_demand(profile, REGION, 3600, 6)
    assert requests
    assert not {"A", "B", "G1"} & {stop for r in requests for stop in (r.pickup, r.dropoff)}
