import random

import pytest

from odshuttle.reporting import SummaryStats, compare, comparison_csv, comparison_text, summarize
from odshuttle.simulator import TripRecord


def completed(rid, request, pickup, dropoff):
    return TripRecord(id=rid, request_time=request, pickup_time=pickup,
                      dropoff_time=dropoff, status="completed")


def test_empty_records_zeroed():
    s = summarize([], bin_seconds=900)
    assert s.completed == s.abandoned == s.pending == 0
    assert s.mean_trip == 0.0 and s.mean_waiting == 0.0
    assert s.bin_mean_trip == {}


def test_mean_of_two_trips():
    records = [completed("a", 0, 10, 100), completed("b", 0, 10, 300)]
    s = summarize(records)
    assert s.mean_trip == 200.0


def test_percentiles_match_sort_oracle():
    rng = random.Random(6)
    for _ in range(30):
        values = [rng.randint(0, 5000) for _ in range(rng.randint(1, 60))]
        records = [completed(f"r{i}", 0, 1, v) for i, v in enumerate(values)]
        s = summarize(records)
        ordered = sorted(values)

        def rank(q):  # nearest-rank on the sorted list, computed directly
            import math
            return ordered[max(1, math.ceil(len(ordered) * q)) - 1]

        assert s.median_trip == rank(0.5)
        assert s.p90_trip == rank(0.9)
        assert s.median_trip <= s.p90_trip


def test_permutation_invariance():
    rng = random.Random(13)
    records = [completed(f"r{i}", rng.randint(0, 3000), rng.randint(3000, 4000),
                         rng.randint(4000, 9000)) for i in range(40)]
    baseline = summarize(records)
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert summarize(shuffled) == baseline


def test_bins_key_on_request_time_and_skip_empty():
    records = [completed("a", 100, 150, 400), completed("b", 1900, 1950, 2500)]
    s = summarize(records, bin_seconds=900)
    assert set(s.bin_mean_trip) == {0, 1800}  # the 900 bin is absent
    assert s.bin_mean_trip[0] == 300.0
    assert s.bin_mean_trip[1800] == 600.0


def test_abandoned_excluded_from_time_means():
    records = [completed("a", 0, 10, 100),
               TripRecord(id="b", request_time=0, status="abandoned")]
    s = summarize(records)
    assert s.mean_trip == 100.0 and s.abandoned == 1


def test_bin_floor_rejected():
    with pytest.raises(ValueError):
        summarize([], bin_seconds=30)


def _stats(mean_trip, bins=None, bin_seconds=900, mean_waiting=0.0):
    return SummaryStats(completed=10, abandoned=0, pending=0,
                        mean_waiting=mean_waiting, median_waiting=0.0, p90_waiting=0.0,
                        mean_trip=mean_trip, median_trip=0.0, p90_trip=0.0,
                        bin_seconds=bin_seconds, bin_mean_trip=bins or {})


def test_compare_identical_zero_deltas():
    s = _stats(500.0, bins={0: 400.0, 900: 600.0})
    cmp = compare(s, s)
    assert cmp.delta_seconds == 0.0
    assert cmp.delta_percent == 0.0
    assert all(b == o for _, b, o in cmp.bins)


def test_compare_headline_reduction():
    # 2430.7 s down to 998.4 s is a 58.9 percent reduction.
    cmp = compare(_stats(2430.7), _stats(998.4))
    assert round(cmp.delta_percent, 1) == -58.9
    assert round(cmp.delta_seconds, 1) == -1432.3


def test_compare_bin_mismatch_rejected():
    with pytest.raises(ValueError):
        compare(_stats(100.0, bin_seconds=900), _stats(100.0, bin_seconds=600))


def test_compare_flags_one_sided_bins():
    base = _stats(100.0, bins={0: 100.0})
    ondemand = _stats(90.0, bins={0: 90.0, 900: 80.0})
    cmp = compare(base, ondemand)
    flagged = [row for row in cmp.bins if row[0] == 900]
    assert flagged == [(900, None, 80.0)]
    assert "incomparable" in comparison_csv(cmp)


def test_comparison_renderings():
    cmp = compare(_stats(2430.7, bins={0: 2400.0}), _stats(998.4, bins={0: 1000.0}))
    csv_text = comparison_csv(cmp)
    assert csv_text.splitlines()[0] == "section,key,base,ondemand,delta"
    assert "overall,mean_trip,2430.7,998.4,-1432.3" in csv_text
    text = comparison_text(cmp)
    assert "-58.9%" in text
