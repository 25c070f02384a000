"""The row path on a Column: drawn row positions mapped to classes.

A :class:`~repro.sampling.base.PositionSampler` on a Column draws the
same row positions as on a raw array, sorts them per trial, maps them to
classes of the column's canonical layout through the size-group table
(:meth:`Column.classes_at`) and reduces the runs.  The oracle is that
layout written out, ``np.repeat(np.arange(D), np.sort(sizes))``, sampled
as a raw array: the two must give the same profiles, item for item in
insertion order, and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Column, column_with_distinct, shuffled_from_class_sizes
from repro.sampling import (
    Bernoulli,
    Reservoir,
    UniformWithoutReplacement,
    UniformWithReplacement,
)
from repro.sampling.batch import profiles_from_samples, profiles_from_sorted_codes

LAYOUT_FREE = [
    UniformWithoutReplacement(),
    UniformWithReplacement(),
    Bernoulli(),
    Reservoir(),
]


def _oracle(column: Column) -> np.ndarray:
    sizes = column.class_sizes
    return np.repeat(np.arange(sizes.size), np.sort(sizes))


def _items(profiles):
    return [list(p.counts.items()) for p in profiles]


def _assert_matches_oracle(sampler, column, r, trials, seed):
    """The position path equals the raw path on the written-out layout."""
    rng_positions = np.random.default_rng(seed)
    rng_oracle = np.random.default_rng(seed)
    got = sampler._column_row_profiles(column, r, rng_positions, trials)
    want = sampler.profile_batch(_oracle(column), rng_oracle, trials, size=r)
    assert _items(got) == _items(want)
    assert rng_positions.bit_generator.state == rng_oracle.bit_generator.state
    return got


def _generated(distinct: int, n: int = 6_000, seed: int = 3) -> Column:
    return column_with_distinct(n, distinct, z=1.0, rng=np.random.default_rng(seed))


class TestPositionPathMatchesOracle:
    @pytest.mark.parametrize("sampler", LAYOUT_FREE, ids=lambda s: s.name)
    @pytest.mark.parametrize("trials", [1, 10])
    @pytest.mark.parametrize("distinct", [40, 4_000], ids=["classes", "rows"])
    def test_both_sides_of_the_crossover(self, sampler, trials, distinct):
        # At r = 300 of n = 6,000, D = 40 is on the class side of every
        # hooked scheme's crossover and D = 4,000 on the row side.  The
        # position path is called directly on both; where the crossover
        # picks rows, profile_batch must take it too.
        column = _generated(distinct)
        r = 300
        got = _assert_matches_oracle(sampler, column, r, trials, seed=distinct)
        classes = sampler._class_path_pays(distinct, column.n_rows, r)
        assert classes == (distinct == 40 and sampler.name != "reservoir")
        if not classes:
            rng = np.random.default_rng(distinct)
            assert _items(sampler.profile_batch(column, rng, trials, size=r)) == (
                _items(got)
            )
        assert column._values is None

    @pytest.mark.parametrize("sampler", LAYOUT_FREE, ids=lambda s: s.name)
    @pytest.mark.parametrize("trials", [1, 10])
    @pytest.mark.parametrize(
        "sizes",
        [[2_000], [1] * 500, [5, 1, 3, 1, 9, 2, 2, 7]],
        ids=["one-class", "all-distinct", "mixed"],
    )
    def test_edge_shapes(self, sampler, trials, sizes):
        column = shuffled_from_class_sizes(
            np.array(sizes), rng=np.random.default_rng(4)
        )
        n = column.n_rows
        for r in sorted({1, max(1, n // 7), n}):
            _assert_matches_oracle(sampler, column, r, trials, seed=r)

    @pytest.mark.parametrize("trials", [1, 10])
    def test_bernoulli_empty_draw_fallback(self, trials):
        # At r = 1 of n = 2,000 a trial draws no row with probability
        # 0.37; seed 2's first trial does, so the fallback row is drawn.
        n = 2_000
        assert not (np.random.default_rng(2).random(n) < 1 / n).any()
        column = column_with_distinct(n, 300, z=1.0, rng=np.random.default_rng(5))
        profiles = _assert_matches_oracle(Bernoulli(), column, 1, trials, seed=2)
        assert profiles[0].sample_size == 1

    @pytest.mark.parametrize("trials", [1, 10])
    def test_reservoir_keeps_everything_at_n(self, trials):
        column = _generated(500, n=3_000)
        profiles = _assert_matches_oracle(Reservoir(), column, 3_000, trials, seed=6)
        assert profiles == [column.population_profile()] * trials

    def test_eager_column_keeps_its_value_order(self):
        # An eager Column's class sizes stay in value order (its
        # population profile's insertion order depends on it); only the
        # sorted copy feeds the size-group table.
        values = np.random.default_rng(7).integers(0, 300, size=5_000)
        column = Column("eager", values)
        before = column.class_sizes.copy()
        _assert_matches_oracle(UniformWithoutReplacement(), column, 800, 10, seed=8)
        assert np.array_equal(column.class_sizes, before)
        assert np.array_equal(column.sorted_class_sizes, np.sort(before))


class TestSizeGroupMap:
    @pytest.mark.parametrize(
        "column",
        [
            _generated(40),
            _generated(4_000),
            column_with_distinct(4_000, 4_000, z=0.0, rng=np.random.default_rng(1)),
            column_with_distinct(4_000, 1, z=0.0, rng=np.random.default_rng(1)),
            Column("eager", np.random.default_rng(2).integers(0, 90, size=3_000)),
        ],
        ids=["D40", "D4000", "all-distinct", "one-class", "eager"],
    )
    def test_matches_the_written_out_layout(self, column):
        layout = _oracle(column)
        rng = np.random.default_rng(3)
        positions = rng.integers(0, column.n_rows, size=20_000)
        assert np.array_equal(
            column.classes_at(positions), np.sort(layout[positions])
        )
        every_row = np.arange(column.n_rows)
        assert np.array_equal(column.classes_at(every_row), layout)


class TestSortedCodeReduction:
    def test_equals_the_factorizing_reduction(self):
        rng = np.random.default_rng(4)
        codes = [
            np.sort(rng.integers(0, high, size=size))
            for high, size in ((5, 1), (5, 40), (1_000, 300), (3, 3), (50, 999))
        ]
        assert _items(profiles_from_sorted_codes(codes)) == _items(
            profiles_from_samples(codes)
        )

    def test_runs_do_not_cross_trials(self):
        codes = [np.array([0, 1, 1]), np.array([1, 1, 2])]
        assert _items(profiles_from_sorted_codes(codes)) == [
            [(1, 1), (2, 1)],
            [(1, 1), (2, 1)],
        ]
