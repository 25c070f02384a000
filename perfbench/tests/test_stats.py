"""Percentile choice, ratio error, coverage and failure counting."""

import math
from types import SimpleNamespace

import pytest

from stats import Accuracy, Tally, check_estimate, percentile, ratio_error, samples_needed
from workloads import TRIALS, PassResult, check_outcomes


def _estimate(value, lower=None, upper=None):
    interval = None if lower is None else SimpleNamespace(lower=lower, upper=upper)
    return SimpleNamespace(value=value, interval=interval)


def test_samples_needed_leaves_ten_beyond():
    # The tail percentile a workload reports has >= 10 samples above it:
    # p90 needs 100 grid points, p99 needs 1000 calls.
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000
    assert samples_needed(99.9) == 10000


def test_percentile_interpolates_linearly():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


def test_ratio_error_hand_computed():
    assert ratio_error(50, 100) == 2.0
    assert ratio_error(200, 100) == 2.0
    assert ratio_error(100, 100) == 1.0
    assert ratio_error(0, 100) == math.inf


def test_accuracy_mean_error_and_coverage():
    accuracy = Accuracy()
    accuracy.add("GEE", _estimate(50, lower=40, upper=120), truth=100)  # error 2, covered
    accuracy.add("GEE", _estimate(100, lower=80, upper=90), truth=100)  # error 1, missed
    accuracy.add("AE", _estimate(400), truth=100)  # error 4, no interval
    assert accuracy.mean_error("GEE") == 1.5
    assert accuracy.mean_error("AE") == 4.0
    assert accuracy.coverage == 0.5


def test_check_estimate_flags_each_problem():
    assert check_estimate(_estimate(5, lower=3, upper=8), "GEE", d=3, n=10) == []
    assert check_estimate(_estimate(math.nan), "AE", d=3, n=10) == ["AE: non-finite estimate"]
    assert check_estimate(_estimate(2), "AE", d=3, n=10) == ["AE: estimate outside [d, n]"]
    assert check_estimate(_estimate(11), "AE", d=3, n=10) == ["AE: estimate outside [d, n]"]
    assert check_estimate(_estimate(5, lower=4, upper=8), "GEE", d=3, n=10) == ["GEE: LOWER != d"]
    assert check_estimate(_estimate(9, lower=3, upper=8), "GEE", d=3, n=10) == [
        "GEE: estimate outside its interval"
    ]
    assert check_estimate(_estimate(5), "GEE", d=3, n=10) == ["GEE: no interval"]


def test_raising_estimator_fails_all_its_trials():
    profiles = [SimpleNamespace(distinct=3)] * TRIALS
    result = PassResult()
    check_outcomes("MM", ValueError("boom"), profiles, 10, 5, result)
    check_outcomes("AE", [_estimate(5)] * TRIALS, profiles, 10, 5, result)
    assert (result.tally.attempted, result.tally.failed) == (2 * TRIALS, TRIALS)
    assert result.tally.reasons == {"MM: ValueError": TRIALS}


def test_estimate_outside_range_counts_one_failure():
    profiles = [SimpleNamespace(distinct=3)] * TRIALS
    outcome = [_estimate(5)] * (TRIALS - 1) + [_estimate(11)]
    result = PassResult()
    check_outcomes("AE", outcome, profiles, 10, 5, result)
    assert (result.tally.attempted, result.tally.failed) == (TRIALS, 1)


def test_tally_merge_and_ratio():
    a, b = Tally(), Tally()
    a.record([])
    b.record(["x"], weight=3)
    a.merge(b)
    assert (a.attempted, a.failed) == (4, 3)
    assert a.reasons == {"x": 3}
