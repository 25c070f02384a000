"""Tests for the GEE LOWER/UPPER bounds (paper §4, Tables 1-2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GEE, gee_interval, gee_lower_bound, gee_upper_bound
from repro.data import uniform_column, zipf_column
from repro.errors import InvalidParameterError
from repro.frequency import FrequencyProfile
from repro.sampling import UniformWithoutReplacement


class TestFormulas:
    def test_lower_is_sample_distinct(self, small_profile):
        assert gee_lower_bound(small_profile) == small_profile.distinct

    def test_upper_hand_computed(self, small_profile):
        # non-singletons (2) + (n/r) * f1 = 2 + 100 * 3
        assert gee_upper_bound(small_profile, 900) == pytest.approx(302.0)

    def test_upper_capped_at_population(self, singleton_profile):
        assert gee_upper_bound(singleton_profile, 60) == 60

    def test_upper_validation(self, small_profile):
        with pytest.raises(InvalidParameterError):
            gee_upper_bound(small_profile, 0)
        with pytest.raises(InvalidParameterError):
            gee_upper_bound(FrequencyProfile.empty(), 100)

    def test_interval_combines_both(self, small_profile):
        interval = gee_interval(small_profile, 900)
        assert interval.lower == 5
        assert interval.upper == pytest.approx(302.0)


COLUMNS = [
    lambda rng: uniform_column(100_000, 1000, rng=rng),
    lambda rng: uniform_column(100_000, 50_000, rng=rng),
    lambda rng: zipf_column(100_000, z=1.0, rng=rng),
    lambda rng: zipf_column(100_000, z=2.0, duplication=10, rng=rng),
]
FRACTIONS = [0.005, 0.02, 0.08]


class TestCoverageOnData:
    """The paper: "the actual number of distinct values always lies in
    the interval [LOWER, UPPER]" — a high-probability claim, so it is
    checked as exact facts per sample plus a coverage rate."""

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("make_column", COLUMNS)
    def test_truth_inside_interval(self, make_column, fraction):
        # Exact facts on every sample: the interval exists, d <= LOWER <=
        # UPPER <= n, and GEE's estimate lies in [d, n].  Then the rate:
        # over 300 samples, the one-sided 99% Clopper-Pearson lower bound
        # on how often [LOWER, UPPER] holds the true D must clear 85%.
        # Measured on these seeds: 300 of 300 everywhere but 1,000
        # uniform values at 8%, 288 of 300 (a sample that misses a value
        # and has no singleton has UPPER = d < D).
        from scipy.stats import beta

        samples = 300
        column = make_column(np.random.default_rng(11))
        n = column.n_rows
        profiles = UniformWithoutReplacement().profile_batch(
            column, np.random.default_rng(12), samples, fraction=fraction
        )
        hits = 0
        for profile in profiles:
            interval = gee_interval(profile, n)
            assert interval is not None
            assert profile.distinct <= interval.lower <= interval.upper <= n
            assert profile.distinct <= GEE().estimate(profile, n).value <= n
            hits += interval.contains(column.distinct_count)
        bound = beta.ppf(0.01, hits, samples - hits + 1) if hits else 0.0
        assert bound >= 0.85, hits

    def test_interval_shrinks_with_rate(self, rng):
        column = uniform_column(100_000, 1000, rng=rng)
        sampler = UniformWithoutReplacement()
        widths = []
        for fraction in (0.002, 0.008, 0.032, 0.128):
            interval = gee_interval(
                sampler.profile(column.values, rng, fraction=fraction), column.n_rows
            )
            widths.append(interval.width)
        assert widths == sorted(widths, reverse=True)

    def test_full_scan_interval_collapses(self, rng):
        column = uniform_column(1000, 100, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, size=1000)
        interval = gee_interval(profile, 1000)
        assert interval.lower == interval.upper == column.distinct_count


class TestProperties:
    @settings(deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=20),
            min_size=1,
            max_size=6,
        ).map(FrequencyProfile),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_interval_always_ordered(self, profile, extra):
        n = profile.sample_size + extra
        if profile.distinct > n or profile.max_frequency > n:
            return
        interval = gee_interval(profile, n)
        assert interval.lower <= interval.upper
        assert interval.lower == profile.distinct
        assert interval.upper <= n
