"""``estimate_batch`` vs the scalar loop: bit-identity for every estimator.

The batch path's contract is the strongest the library makes anywhere:
for every registered estimator, ``estimate_batch(batch, n)`` must equal
``[estimate(p, n) for p in batch]`` *bitwise* — values, raw values,
intervals, details, clamping, contract enforcement, and telemetry
counts.  These tests pin that contract on the adversarial inputs
(Theorem-1-style heavy-head profiles, all-singletons, no-singletons,
single-row, huge single class) plus sampled zipfian profiles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.contracts import ContractViolationError, set_runtime_checks
from repro.core.base import DistinctValueEstimator
from repro.core.registry import available_estimators, make_estimator
from repro.errors import InvalidParameterError
from repro.frequency import FrequencyProfile
from repro.frequency.batch import FrequencyProfileBatch
from repro.obs.recorder import OBS

rng = np.random.default_rng(29)


def _zipf_profile(alpha: float, size: int) -> FrequencyProfile:
    ranks = np.arange(1, 1500)
    weights = ranks ** -alpha
    weights /= weights.sum()
    return FrequencyProfile.from_sample(rng.choice(ranks, size=size, p=weights))


ADVERSARIAL = [
    FrequencyProfile({1: 3, 2: 1, 5000: 1}),  # Theorem-1 head + heavy tail
    FrequencyProfile({1: 500}),               # all singletons
    FrequencyProfile({2: 50}),                # no singletons
    FrequencyProfile({1: 1}),                 # single sampled row
    FrequencyProfile({10000: 1}),             # one huge class
    FrequencyProfile({1: 2, 3: 4, 7: 2, 50: 1}),
    FrequencyProfile({4: 25}),
    # DUJ2A truncation (cutoff 50): every class above the cutoff, none
    # above it (one exactly at it), and a mix.
    FrequencyProfile({60: 3, 100: 2, 51: 1}),
    FrequencyProfile({1: 20, 2: 10, 50: 3}),
    FrequencyProfile({3: 5, 1: 30, 400: 1, 51: 2}),
    FrequencyProfile({2: 1, 75: 4}),
]

SAMPLED = [
    _zipf_profile(alpha, size)
    for alpha in (1.05, 1.5, 3.0)
    for size in (10, 500, 4000)
]


@pytest.fixture(autouse=True)
def _contracts_on():
    set_runtime_checks(True)
    yield
    set_runtime_checks(None)


def _assert_bitwise_equal(scalar, batched):
    assert len(scalar) == len(batched)
    for s, b in zip(scalar, batched):
        assert s.value.hex() == b.value.hex()
        assert s.raw_value.hex() == b.raw_value.hex()
        assert s.estimator == b.estimator
        assert s.sample_size == b.sample_size
        assert s.sample_distinct == b.sample_distinct
        assert (s.interval is None) == (b.interval is None)
        if s.interval is not None:
            assert s.interval.lower.hex() == b.interval.lower.hex()
            assert s.interval.upper.hex() == b.interval.upper.hex()
        assert sorted(s.details) == sorted(b.details)
        for key, value in s.details.items():
            other = b.details[key]
            if isinstance(value, float):
                assert isinstance(other, float) and value.hex() == other.hex()
            else:
                assert type(value) is type(other) and value == other


@pytest.mark.parametrize("name", available_estimators())
@pytest.mark.parametrize("n", [10**4, 10**9])
def test_batch_equals_scalar_loop(name, n):
    estimator = make_estimator(name)
    profiles = [
        p
        for p in ADVERSARIAL + SAMPLED
        if p.distinct <= n and p.max_frequency <= n
    ]
    scalar = [estimator.estimate(p, n) for p in profiles]
    batched = estimator.estimate_batch(
        FrequencyProfileBatch.from_profiles(profiles), n
    )
    _assert_bitwise_equal(scalar, batched)


@pytest.mark.parametrize("name", available_estimators())
def test_batch_accepts_plain_sequences_and_empty(name):
    estimator = make_estimator(name)
    assert estimator.estimate_batch([], 100) == []
    profiles = ADVERSARIAL[:2]
    via_sequence = estimator.estimate_batch(profiles, 10**6)
    via_batch = estimator.estimate_batch(
        FrequencyProfileBatch.from_profiles(profiles), 10**6
    )
    _assert_bitwise_equal(via_sequence, via_batch)


def test_batch_validation_matches_scalar_errors():
    estimator = make_estimator("GEE")
    empty = FrequencyProfile.empty()
    with pytest.raises(InvalidParameterError, match="empty sample"):
        estimator.estimate_batch([ADVERSARIAL[0], empty], 10**6)
    with pytest.raises(InvalidParameterError, match="distinct values"):
        estimator.estimate_batch([FrequencyProfile({1: 50})], 10)
    with pytest.raises(InvalidParameterError, match="positive"):
        estimator.estimate_batch([ADVERSARIAL[0]], 0)


def test_batch_enforces_requires_before_kernel():
    class Picky(DistinctValueEstimator):
        name = "picky"

        def _estimate_raw(self, profile, population_size):
            return float(profile.distinct)

    from repro.contracts import requires

    Picky._estimate_raw = requires("profile.f1 >= 1")(Picky._estimate_raw)
    batch = FrequencyProfileBatch.from_profiles([FrequencyProfile({2: 3})])
    with pytest.raises(ContractViolationError):
        Picky().estimate_batch(batch, 10**4)


def test_batch_telemetry_counts_match_scalar_loop():
    """Same ``estimator.calls.*`` on both paths, and on each path the
    ``estimator.seconds.<name>`` histogram holds one sample per call."""
    profiles = SAMPLED[:4]
    n = 10**6
    for name in available_estimators():
        counters = []
        for mode in ("scalar", "batch"):
            OBS.reset()
            OBS.enable()
            estimator = make_estimator(name)
            if mode == "scalar":
                for p in profiles:
                    estimator.estimate(p, n)
            else:
                estimator.estimate_batch(
                    FrequencyProfileBatch.from_profiles(profiles), n
                )
            calls = {
                k: v for k, v in OBS.counters().items() if k.startswith("estimator.calls.")
            }
            assert f"estimator.calls.{name}" in calls, (name, mode)
            for key, value in calls.items():
                timed = key.replace("estimator.calls.", "estimator.seconds.", 1)
                assert OBS.histogram(timed).count == value, (name, mode, key)
            counters.append(calls)
            OBS.reset()
            OBS.disable()
        assert counters[0] == counters[1], name


def test_duj2a_takes_its_vector_kernel(monkeypatch):
    """DUJ2A's batch never falls back to its scalar body, and still
    equals the scalar loop on the truncation-heavy profiles."""
    estimator = make_estimator("DUJ2A")
    n = 10**6
    scalar = [estimator.estimate(p, n) for p in ADVERSARIAL + SAMPLED]

    def scalar_body_called(*args, **kwargs):
        raise AssertionError("DUJ2A fell back to the scalar loop")

    monkeypatch.setattr(type(estimator), "_estimate_raw", scalar_body_called)
    batched = estimator.estimate_batch(ADVERSARIAL + SAMPLED, n)
    _assert_bitwise_equal(scalar, batched)
