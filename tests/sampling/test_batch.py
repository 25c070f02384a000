"""Tests for the batched trial machinery: reduction, schemes, fallback.

The contract under test is strong: for every built-in scheme,
``profile_batch`` must be *bit-identical* to the serial
one-``profile``-per-trial loop under the same seed — including the
position the random stream is left at — on raw arrays and on Columns,
on either side of the class-count crossover.  A raw array's batch must
also match the historical row path, so code passing arrays keeps its
numbers; a Column's row path is the raw-array path on its canonical
layout, ``repeat(arange(D), sort(class_sizes))`` (on its rows for
Block).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Column, zipf_column
from repro.errors import InvalidParameterError, InvalidSampleError
from repro.frequency import FrequencyProfile
from repro.sampling import (
    Bernoulli,
    Block,
    Reservoir,
    UniformWithoutReplacement,
    UniformWithReplacement,
    profiles_from_samples,
)
from repro.sampling.base import PositionSampler, RowSampler

SCHEMES = [
    UniformWithoutReplacement(),
    UniformWithReplacement(),
    Bernoulli(),
    Reservoir(),
    Block(block_size=7),
]


def _column(seed: int = 5, n: int = 5_000, high: int = 400) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, high, size=n)


class TestProfilesFromSamples:
    def test_matches_per_sample_reduction(self, rng):
        samples = [rng.integers(0, 50, size=size) for size in (1, 7, 200, 999)]
        batched = profiles_from_samples(samples)
        serial = [FrequencyProfile.from_sample(s) for s in samples]
        assert batched == serial

    def test_string_values(self):
        samples = [
            np.array(["a", "b", "a", "c"]),
            np.array(["b", "b", "b"]),
        ]
        assert profiles_from_samples(samples) == [
            FrequencyProfile({1: 2, 2: 1}),
            FrequencyProfile({3: 1}),
        ]

    def test_empty_batch(self):
        assert profiles_from_samples([]) == []

    def test_rejects_non_1d(self):
        with pytest.raises(InvalidSampleError):
            profiles_from_samples([np.zeros((2, 2))])

    def test_single_value_many_trials(self):
        samples = [np.array([9] * k) for k in (1, 2, 3)]
        assert profiles_from_samples(samples) == [
            FrequencyProfile({1: 1}),
            FrequencyProfile({2: 1}),
            FrequencyProfile({3: 1}),
        ]


class TestProfileBatchBitIdentity:
    @pytest.mark.parametrize("sampler", SCHEMES, ids=lambda s: s.name)
    def test_profiles_and_stream_match_serial_loop(self, sampler):
        column = _column()
        rng_batch = np.random.default_rng(42)
        rng_serial = np.random.default_rng(42)
        batched = sampler.profile_batch(column, rng_batch, 6, fraction=0.03)
        serial = [
            sampler.profile(column, rng_serial, fraction=0.03) for _ in range(6)
        ]
        assert batched == serial
        # The stream must be left at the same position too, so code
        # mixing batch and serial calls stays reproducible.
        assert rng_batch.integers(0, 2**31) == rng_serial.integers(0, 2**31)

    @pytest.mark.parametrize("sampler", SCHEMES, ids=lambda s: s.name)
    def test_single_trial(self, sampler):
        column = _column()
        batched = sampler.profile_batch(
            column, np.random.default_rng(3), 1, size=100
        )
        serial = sampler.profile(column, np.random.default_rng(3), size=100)
        assert batched == [serial]

    @pytest.mark.parametrize("sampler", SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("distinct", [20, 4_000], ids=["classes", "rows"])
    def test_columns_match_serial_loop(self, sampler, distinct):
        # On a Column the hooked schemes take the class-count path when
        # D is small (20 classes) and the row path when it is not; either
        # way the batch equals the serial loop and leaves the stream at
        # the same position.
        column = Column("c", _column(n=5_000, high=distinct))
        expect_classes = distinct == 20 and sampler.name in (
            "srswor", "srswr", "bernoulli",
        )
        assert sampler._class_path_pays(
            column.distinct_count, column.n_rows, 150
        ) == expect_classes
        rng_batch = np.random.default_rng(42)
        rng_serial = np.random.default_rng(42)
        batched = sampler.profile_batch(column, rng_batch, 6, fraction=0.03)
        serial = [
            sampler.profile(column, rng_serial, fraction=0.03) for _ in range(6)
        ]
        assert batched == serial
        assert rng_batch.integers(0, 2**31) == rng_serial.integers(0, 2**31)
        if not expect_classes:
            # The row path on a Column is the raw array's path on the
            # column's canonical layout, or on its rows for a scheme
            # whose law reads the layout (Block).
            layout_free = isinstance(sampler, PositionSampler)
            canonical = np.repeat(
                np.arange(column.distinct_count), np.sort(column.class_sizes)
            )
            rows = canonical if layout_free else column.values
            assert layout_free == (sampler.name != "block")
            assert batched == sampler.profile_batch(
                rows, np.random.default_rng(42), 6, fraction=0.03
            )

    @pytest.mark.parametrize("sampler", SCHEMES, ids=lambda s: s.name)
    def test_class_path_depends_only_on_the_size_multiset(self, sampler):
        # The class sizes are drawn from in one canonical order, so a
        # Column that caches its sizes sorted (as the generators do), the
        # same values without the cache, and a relabelling of the values
        # (same sizes, another value order) all give equal profiles.
        cached = zipf_column(6_000, 1.0, duplication=50, rng=np.random.default_rng(8))
        assert sampler._class_path_pays(cached.distinct_count, 6_000, 600) == (
            sampler.name in ("srswor", "srswr", "bernoulli")
        )
        fresh = Column("fresh", cached.values)
        labels = np.random.default_rng(9).permutation(cached.values.max() + 1)
        relabelled = Column("relabelled", labels[cached.values])
        assert not np.array_equal(fresh.class_sizes, relabelled.class_sizes)
        runs = [
            sampler.profile_batch(c, np.random.default_rng(10), 4, size=600)
            for c in (cached, fresh, relabelled)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_trials_validation(self):
        with pytest.raises(InvalidParameterError):
            UniformWithoutReplacement().profile_batch(
                _column(), np.random.default_rng(0), 0, size=10
            )

    def test_size_and_fraction_validation(self):
        with pytest.raises(InvalidParameterError):
            UniformWithoutReplacement().profile_batch(
                _column(), np.random.default_rng(0), 3
            )


class TestCustomSamplerFallback:
    def test_serial_fallback_used(self):
        calls = []

        class FirstRows(RowSampler):
            name = "first-rows"

            def _draw(self, column, r, rng):
                calls.append(r)
                return column[:r]

        profiles = FirstRows().profile_batch(
            _column(), np.random.default_rng(0), 4, size=50
        )
        assert calls == [50, 50, 50, 50]
        assert all(p.sample_size == 50 for p in profiles)


class TestVectorizedDraws:
    """The Reservoir/Block inner loops were vectorized; pin their output
    against straightforward reference implementations."""

    @staticmethod
    def _reservoir_reference(column, r, rng):
        n = column.size
        reservoir = column[:r].copy()
        if n > r:
            tail = np.arange(r, n)
            slots = rng.integers(0, tail + 1)
            hits = slots < r
            for t, slot in zip(tail[hits], slots[hits]):
                reservoir[slot] = column[t]
        return reservoir

    @staticmethod
    def _block_reference(column, r, rng, block_size):
        n = column.size
        n_blocks = -(-n // block_size)
        order = rng.permutation(n_blocks)
        pieces, got = [], 0
        for b in order:
            if got >= r:
                break
            start = b * block_size
            piece = column[start : min(start + block_size, n)]
            pieces.append(piece)
            got += piece.size
        return np.concatenate(pieces)[:r]

    @pytest.mark.parametrize("r", [1, 5, 100, 4_999, 5_000])
    def test_reservoir_matches_reference(self, r):
        column = _column()
        got = Reservoir()._draw(column, r, np.random.default_rng(77))
        want = self._reservoir_reference(column, r, np.random.default_rng(77))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("r", [1, 5, 100, 4_999, 5_000])
    @pytest.mark.parametrize("block_size", [1, 7, 100])
    def test_block_matches_reference(self, r, block_size):
        column = _column()
        got = Block(block_size=block_size)._draw(
            column, r, np.random.default_rng(78)
        )
        want = self._block_reference(
            column, r, np.random.default_rng(78), block_size
        )
        assert np.array_equal(got, want)

    def test_reservoir_is_uniform_without_replacement(self):
        # KS-style check: positions of an all-distinct column should be
        # uniformly represented across repeated draws.
        column = np.arange(2_000)
        rng = np.random.default_rng(11)
        hits = np.zeros(column.size)
        draws = 300
        for _ in range(draws):
            sample = Reservoir()._draw(column, 200, rng)
            assert np.unique(sample).size == 200  # no row twice
            hits[sample] += 1
        expected = draws * 200 / column.size
        # Binomial(300, 0.1) per position: mean 30, sd ~5.2.  A uniform
        # sampler stays within a generous band; a biased head/tail (the
        # classic vectorization bug) would push positions far outside.
        assert hits.min() > expected - 6 * np.sqrt(expected)
        assert hits.max() < expected + 6 * np.sqrt(expected)
