"""Tests for the HYBSKEW and HYBVAR hybrid baselines."""

from __future__ import annotations

import pytest
from scipy.stats import beta

from repro.core import GEE
from repro.data import uniform_column, zipf_column
from repro.errors import InvalidParameterError
from repro.estimators import (
    HybridSkew,
    HybridVariance,
    Shlosser,
    SmoothedJackknife,
)
from repro.sampling import UniformWithoutReplacement


class TestHybridSkew:
    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            HybridSkew(alpha=0.0)
        with pytest.raises(InvalidParameterError):
            HybridSkew(alpha=1.0)

    def test_low_skew_branch(self, rng):
        column = uniform_column(100_000, 1000, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.02)
        result = HybridSkew().estimate(profile, column.n_rows)
        assert result.details["branch"] == "SJ"
        assert result.value == SmoothedJackknife()(profile, column.n_rows)

    def test_high_skew_branch(self, rng):
        column = zipf_column(100_000, z=2.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.02)
        result = HybridSkew().estimate(profile, column.n_rows)
        assert result.details["branch"] == "Shlosser"
        assert result.value == Shlosser()(profile, column.n_rows)

    def test_chi2_diagnostics_recorded(self, rng):
        column = zipf_column(50_000, z=1.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.02)
        result = HybridSkew().estimate(profile, column.n_rows)
        assert result.details["chi2_statistic"] >= 0
        assert result.details["chi2_critical"] > 0

    def test_branch_injection(self, rng):
        """HYBGEE's reuse path: the high-skew branch is injectable."""
        hybrid = HybridSkew(high_skew_estimator=GEE())
        column = zipf_column(100_000, z=2.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.02)
        result = hybrid.estimate(profile, column.n_rows)
        assert result.details["branch"] == "GEE"


class TestHybridVariance:
    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            HybridVariance(cv_zero=5.0, cv_high=1.0)
        with pytest.raises(InvalidParameterError):
            HybridVariance(cv_zero=-1.0)

    def test_uniform_branch(self, rng):
        # On uniform data the estimated CV^2 straddles cv_zero = 0.001,
        # so a single sample may route either way; what holds exactly is
        # the rule (SJ iff cv_squared <= cv_zero; DUJ2A up to cv_high),
        # and what holds as a rate is that SJ is the majority branch: the
        # one-sided 99% Clopper-Pearson lower bound on its share of 1,000
        # samples must clear 50%.  (Measured on this seed: 650 of 1,000,
        # lower bound 0.614.)
        hybrid = HybridVariance()
        column = uniform_column(200_000, 500, rng=rng)
        profiles = UniformWithoutReplacement().profile_batch(
            column, rng, 1_000, fraction=0.05
        )
        details = [hybrid.estimate(p, column.n_rows).details for p in profiles]
        for detail in details:
            expected = (
                "SJ" if detail["cv_squared"] <= hybrid.cv_zero
                else "DUJ2A" if detail["cv_squared"] <= hybrid.cv_high
                else "ModShlosser"
            )
            assert detail["branch"] == expected
        picks = sum(detail["branch"] == "SJ" for detail in details)
        lower = beta.ppf(0.01, picks, len(details) - picks + 1) if picks else 0.0
        assert lower > 0.5, picks

    def test_moderate_branch(self, rng):
        column = zipf_column(200_000, z=1.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.02)
        result = HybridVariance().estimate(profile, column.n_rows)
        assert result.details["branch"] in ("DUJ2A", "ModShlosser")

    def test_high_cv_branch(self, rng):
        column = zipf_column(500_000, z=2.0, duplication=100, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.03)
        result = HybridVariance().estimate(profile, column.n_rows)
        assert result.details["branch"] == "ModShlosser"
        assert result.details["cv_squared"] > HybridVariance().cv_high

    def test_custom_thresholds_steer_branches(self, rng):
        column = zipf_column(200_000, z=2.0, duplication=100, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.03)
        always_uniform = HybridVariance(cv_zero=1e9, cv_high=2e9)
        result = always_uniform.estimate(profile, column.n_rows)
        assert result.details["branch"] == "SJ"

    def test_branch_injection(self, rng):
        hybrid = HybridVariance(skewed_estimator=GEE())
        column = zipf_column(500_000, z=2.0, duplication=100, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.03)
        result = hybrid.estimate(profile, column.n_rows)
        assert result.details["branch"] == "GEE"
