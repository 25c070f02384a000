"""Tests for the Column abstraction, eager and lazily laid out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    Column,
    column_with_distinct,
    shuffled_from_class_sizes,
    zipf_column,
)
from repro.errors import InvalidParameterError
from repro.frequency import FrequencyProfile
from repro.sampling import (
    Bernoulli,
    Block,
    Reservoir,
    UniformWithoutReplacement,
    UniformWithReplacement,
)


class TestValidation:
    def test_rejects_2d(self):
        with pytest.raises(InvalidParameterError):
            Column("x", np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            Column("x", np.array([]))


class TestGroundTruth:
    def test_distinct_count(self):
        column = Column("x", np.array([1, 1, 2, 3, 3, 3]))
        assert column.distinct_count == 3
        assert column.n_rows == 6
        assert len(column) == 6

    def test_class_sizes(self):
        column = Column("x", np.array([1, 1, 2, 3, 3, 3]))
        assert sorted(column.class_sizes.tolist()) == [1, 2, 3]

    def test_population_profile(self):
        column = Column("x", np.array([1, 1, 2, 3, 3, 3]))
        profile = column.population_profile()
        assert profile == FrequencyProfile({1: 1, 2: 1, 3: 1})

    def test_caching(self):
        column = Column("x", np.arange(100))
        first = column.class_sizes
        assert column.class_sizes is first  # computed once

    def test_precomputed_sizes_respected(self):
        sizes = np.array([2, 4])
        column = Column("x", np.array([0, 0, 1, 1, 1, 1]), _class_sizes=sizes)
        assert column.class_sizes is sizes
        assert column.distinct_count == 2


#: Every built-in scheme; the first three have a class-count law.
SCHEMES = [
    UniformWithoutReplacement(),
    UniformWithReplacement(),
    Bernoulli(),
    Reservoir(),
    Block(block_size=7),
]


def _generated(seed: int = 3, distinct: int = 40) -> Column:
    return column_with_distinct(6_000, distinct, z=1.0, rng=np.random.default_rng(seed))


def _assert_side(sampler, column: Column, distinct: int) -> None:
    # At 5% of 6,000 rows (r = 300), D = 40 is on the class side of every
    # hooked scheme's crossover and D = 4,000 on the row side.
    hooked = sampler.name in ("srswor", "srswr", "bernoulli")
    assert sampler._class_path_pays(column.distinct_count, 6_000, 300) == (
        hooked and distinct == 40
    )


class TestLazyLayout:
    """A generated Column is class sizes plus a seed until values are read."""

    def test_building_takes_exactly_one_draw(self):
        for n in (10, 100_000):
            rng = np.random.default_rng(11)
            reference = np.random.default_rng(11)
            zipf_column(n, z=1.0, rng=rng)
            reference.bit_generator.random_raw()
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_ground_truth_does_not_lay_out_rows(self):
        column = _generated()
        assert column.n_rows == 6_000 and len(column) == 6_000
        assert column.distinct_count == 40
        column.population_profile()
        assert column._values is None

    def test_class_sizes_are_the_sorted_build_sizes(self):
        sizes = np.array([5, 1, 9, 3], dtype=np.int64)
        column = shuffled_from_class_sizes(sizes, np.random.default_rng(0))
        assert column.class_sizes.tolist() == [1, 3, 5, 9]
        assert column.n_rows == 18

    def test_values_are_the_same_whenever_first_read(self):
        early = _generated()
        early_values = early.values.copy()
        late = _generated()
        for sampler in SCHEMES[:4]:
            sampler.profile_batch(late, np.random.default_rng(1), 3, fraction=0.05)
        assert late._values is None  # only Block reads the layout
        assert late.values.tobytes() == early_values.tobytes()

    def test_values_hold_the_class_multiset(self):
        column = _generated()
        _, counts = np.unique(column.values, return_counts=True)
        assert np.array_equal(np.sort(counts), column.class_sizes)
        assert column.values.size == column.n_rows

    @pytest.mark.parametrize("sampler", SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("distinct", [40, 4_000], ids=["classes", "rows"])
    def test_profiles_do_not_depend_on_reading_values(self, sampler, distinct):
        unread = _generated(distinct=distinct)
        read = _generated(distinct=distinct)
        read.values
        _assert_side(sampler, read, distinct)
        runs = [
            sampler.profile_batch(c, np.random.default_rng(2), 4, fraction=0.05)
            for c in (unread, read)
        ]
        assert runs[0] == runs[1]

    def test_block_reads_the_layout(self):
        column = _generated(distinct=400)
        block = Block(block_size=7)
        on_column = block.profile_batch(
            column, np.random.default_rng(4), 5, fraction=0.05
        )
        assert column._values is not None
        on_values = block.profile_batch(
            column.values, np.random.default_rng(4), 5, fraction=0.05
        )
        assert on_column == on_values

    @pytest.mark.parametrize("sampler", SCHEMES[:4], ids=lambda s: s.name)
    @pytest.mark.parametrize("distinct", [40, 4_000], ids=["classes", "rows"])
    def test_eager_copy_gives_the_same_profiles(self, sampler, distinct):
        # Both sides of the class-count crossover: the layout-free
        # schemes see only the class-size multiset, so the lazy column
        # and an eager Column over its values agree.
        lazy = _generated(distinct=distinct)
        eager = Column("eager", lazy.values)
        _assert_side(sampler, eager, distinct)
        runs = [
            sampler.profile_batch(c, np.random.default_rng(5), 4, fraction=0.05)
            for c in (lazy, eager)
        ]
        assert runs[0] == runs[1]

    def test_canonical_layout(self):
        # The canonical layout is never built; classes_at reads it.
        column = Column("x", np.array([7, 3, 7, 9, 9, 9]))
        canonical = column.classes_at(np.arange(column.n_rows))
        assert canonical.tolist() == [0, 1, 1, 2, 2, 2]
