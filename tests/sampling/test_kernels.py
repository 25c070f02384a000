"""Tests for the single-pass profile reduction kernel.

The contract is the one :mod:`repro.sampling.batch` states: the batched
reduction is interchangeable with ``[FrequencyProfile.from_sample(s) for
s in samples]`` bit for bit, including the dict insertion order the
estimators' accumulation loops depend on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frequency import FrequencyProfile
from repro.sampling import profiles_from_samples

rng = np.random.default_rng(11)


def _trials_int(trials: int = 7, size: int = 900, domain: int = 150):
    return [rng.integers(0, domain, size=size) for _ in range(trials)]


ADVERSARIAL = [
    # Ragged trial sizes (Bernoulli draws realize different r).
    [rng.integers(0, 50, size=s) for s in (1, 17, 400, 3)],
    # Huge sparse integer range: dense codes would explode, must fall
    # back to the sort-based pass.
    [np.array([0, 2**40, -(2**40), 7, 7], dtype=np.int64) for _ in range(3)],
    # Negative integers (dense offset path).
    [rng.integers(-30, 5, size=200) for _ in range(4)],
    # Floats with NaN: np.unique's NaN semantics must be preserved.
    [np.array([1.5, float("nan"), 1.5, float("nan"), 2.0]) for _ in range(3)],
    # Strings and objects take the factorizing sort.
    [np.array(["a", "b", "a", "c"], dtype=object) for _ in range(2)],
    [np.array(["x", "x", "y"]) for _ in range(2)],
    # Single trial, single row.
    [np.array([42])],
    # All values identical across all trials.
    [np.full(64, 9) for _ in range(5)],
    # Unsigned dtype.
    [rng.integers(0, 12, size=33).astype(np.uint16) for _ in range(3)],
]


class TestKernelIdentity:
    def test_matches_serial_from_sample(self):
        arrays = _trials_int()
        profiles = profiles_from_samples(arrays)
        expected = [FrequencyProfile.from_sample(a) for a in arrays]
        assert profiles == expected
        # Insertion order, not just dict equality: estimators iterate
        # counts.items() and accumulate floats in that order.
        for got, want in zip(profiles, expected):
            assert list(got.counts.items()) == list(want.counts.items())

    @pytest.mark.parametrize("arrays", ADVERSARIAL, ids=lambda a: f"{len(a)}trials-{np.asarray(a[0]).dtype}")
    def test_adversarial_inputs(self, arrays):
        profiles = profiles_from_samples([np.asarray(a) for a in arrays])
        expected = [FrequencyProfile.from_sample(np.asarray(a)) for a in arrays]
        assert profiles == expected
        for got, want in zip(profiles, expected):
            assert list(got.counts.items()) == list(want.counts.items())
