"""Tests for HYBGEE (paper §5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GEE, HybridGEE, ratio_error
from repro.data import uniform_column, zipf_column
from repro.estimators import HybridSkew, Shlosser, SmoothedJackknife
from repro.sampling import UniformWithoutReplacement


class TestBranchSelection:
    def test_low_skew_uses_smoothed_jackknife(self, rng):
        column = uniform_column(100_000, 1000, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.02)
        result = HybridGEE().estimate(profile, column.n_rows)
        assert result.details["branch"] == "SJ"
        assert not result.details["high_skew"]
        assert result.value == SmoothedJackknife().estimate(
            profile, column.n_rows
        ).value

    def test_high_skew_uses_gee(self, rng):
        column = zipf_column(100_000, z=2.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.02)
        result = HybridGEE().estimate(profile, column.n_rows)
        assert result.details["branch"] == "GEE"
        assert result.value == GEE().estimate(profile, column.n_rows).value


class TestAgainstHybskew:
    def test_matches_hybskew_on_low_skew(self, rng):
        """Figure 1's overlap: on low skew, HYBGEE == HYBSKEW exactly."""
        column = uniform_column(200_000, 2000, rng=rng)
        sampler = UniformWithoutReplacement()
        for _ in range(3):
            profile = sampler.profile(column.values, rng, fraction=0.01)
            a = HybridGEE().estimate(profile, column.n_rows).value
            b = HybridSkew().estimate(profile, column.n_rows).value
            assert a == b

    def test_beats_hybskew_on_high_skew(self, rng):
        """Figure 2's separation: HYBGEE (GEE branch) beats HYBSKEW
        (Shlosser branch) on high-skew data, on average."""
        column = zipf_column(500_000, z=2.0, duplication=100, rng=rng)
        sampler = UniformWithoutReplacement()
        hybgee_total, hybskew_total = 0.0, 0.0
        for _ in range(8):
            profile = sampler.profile(column.values, rng, fraction=0.005)
            hybgee_total += ratio_error(
                HybridGEE()(profile, column.n_rows), column.distinct_count
            )
            hybskew_total += ratio_error(
                HybridSkew()(profile, column.n_rows), column.distinct_count
            )
        assert hybgee_total < hybskew_total

    def test_gee_beats_shlosser_on_high_skew(self, rng):
        """The §5.1 motivation: GEE outperforms Shlosser on high skew."""
        column = zipf_column(500_000, z=2.0, duplication=100, rng=rng)
        sampler = UniformWithoutReplacement()
        gee_total, shl_total = 0.0, 0.0
        for _ in range(8):
            profile = sampler.profile(column.values, rng, fraction=0.005)
            gee_total += ratio_error(
                GEE()(profile, column.n_rows), column.distinct_count
            )
            shl_total += ratio_error(
                Shlosser()(profile, column.n_rows), column.distinct_count
            )
        assert gee_total < shl_total


class TestInterval:
    def test_interval_regardless_of_branch(self):
        # The low-skew (SJ) column and the high-skew (GEE) one.  Exact
        # facts on every sample: the interval exists, d <= lower <= upper
        # <= n, and the estimate lies in [d, n].  Then the rate: over 300
        # samples per column, the one-sided 99% Clopper-Pearson lower
        # bound on how often the interval holds the true D must clear
        # 90%.  Measured on these seeds: 300 of 300 on each.
        from scipy.stats import beta

        samples = 300
        for column, branch in (
            (uniform_column(50_000, 500, rng=np.random.default_rng(11)), "SJ"),
            (zipf_column(50_000, z=2.0, rng=np.random.default_rng(11)), "GEE"),
        ):
            n = column.n_rows
            profiles = UniformWithoutReplacement().profile_batch(
                column, np.random.default_rng(12), samples, fraction=0.02
            )
            hits = 0
            for profile, result in zip(
                profiles, HybridGEE().estimate_batch(profiles, n)
            ):
                assert result.details["branch"] == branch
                assert result.interval is not None
                assert (
                    profile.distinct
                    <= result.interval.lower
                    <= result.interval.upper
                    <= n
                )
                assert profile.distinct <= result.value <= n
                hits += result.interval.contains(column.distinct_count)
            bound = beta.ppf(0.01, hits, samples - hits + 1) if hits else 0.0
            assert bound >= 0.90, (branch, hits)

    def test_alpha_forwarded(self):
        estimator = HybridGEE(alpha=0.01)
        assert estimator.alpha == pytest.approx(0.01)
