"""Tests for the chi-squared skew test (HYBSKEW's gate)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import uniform_column, zipf_column
from repro.errors import InvalidParameterError
from repro.frequency import (
    FrequencyProfile,
    chi_squared_skew_test,
    is_high_skew,
)
from repro.frequency.skew import chi2_ppf, chi2_sf
from repro.sampling import UniformWithoutReplacement


class TestDegenerateSamples:
    def test_single_distinct_value_is_low_skew(self):
        result = chi_squared_skew_test(FrequencyProfile({10: 1}))
        assert not result.high_skew
        assert result.p_value == 1.0

    def test_empty_like_profile(self):
        result = chi_squared_skew_test(FrequencyProfile({1: 1}))
        assert not result.high_skew


class TestStatistic:
    def test_hand_computed_statistic(self):
        # Counts (1, 3): r=4, d=2, e=2; chi2 = (1+1)/2... = (1-2)^2/2+(3-2)^2/2 = 1
        profile = FrequencyProfile({1: 1, 3: 1})
        result = chi_squared_skew_test(profile)
        assert result.statistic == pytest.approx(1.0)
        assert result.degrees_of_freedom == 1

    def test_uniform_counts_zero_statistic(self):
        profile = FrequencyProfile({3: 10})
        result = chi_squared_skew_test(profile)
        assert result.statistic == pytest.approx(0.0)
        assert not result.high_skew

    def test_alpha_validation(self, small_profile):
        with pytest.raises(InvalidParameterError):
            chi_squared_skew_test(small_profile, alpha=0.0)
        with pytest.raises(InvalidParameterError):
            chi_squared_skew_test(small_profile, alpha=1.5)


class TestOnGeneratedData:
    def test_uniform_data_low_skew(self, rng):
        column = uniform_column(100_000, 1000, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.05)
        assert not is_high_skew(profile)

    def test_zipf_data_high_skew(self, rng):
        column = zipf_column(100_000, z=2.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.05)
        assert is_high_skew(profile)

    def test_smaller_alpha_rejects_less(self, rng):
        # With a tiny alpha the critical value grows, so any sample that
        # is low-skew at alpha=0.05 stays low-skew at alpha=1e-6.
        column = uniform_column(50_000, 500, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, fraction=0.05)
        loose = chi_squared_skew_test(profile, alpha=0.05)
        strict = chi_squared_skew_test(profile, alpha=1e-6)
        assert strict.critical_value > loose.critical_value
        if not loose.high_skew:
            assert not strict.high_skew


class TestChiSquaredSpecialFunctions:
    """``chi2_ppf``/``chi2_sf`` equal ``scipy.stats.chi2`` bit for bit."""

    ALPHAS = (0.01, 0.025, 0.05, 0.1, 0.2)

    @staticmethod
    def _dofs() -> np.ndarray:
        rng = np.random.default_rng(0)
        return np.concatenate(
            [np.arange(1, 3000), rng.integers(1, 2_000_001, size=2000)]
        )

    def test_ppf_matches_scipy_stats(self):
        from scipy import stats

        dofs = self._dofs()
        for alpha in self.ALPHAS:
            expected = stats.chi2.ppf(1.0 - alpha, dofs)
            assert np.array_equal(chi2_ppf(1.0 - alpha, dofs), expected)
            for dof in dofs[::7].tolist():
                scalar = float(chi2_ppf(1.0 - alpha, dof))
                assert scalar.hex() == float(stats.chi2.ppf(1.0 - alpha, dof)).hex()

    def test_sf_matches_scipy_stats(self):
        from scipy import stats

        for dof in self._dofs()[::3].tolist():
            for statistic in (-1e-9, 0.0, 0.5 * dof, float(dof), 1.3 * dof, 3.0 * dof):
                expected = float(stats.chi2.sf(statistic, dof))
                assert chi2_sf(statistic, dof).hex() == expected.hex()

    def test_package_import_leaves_scipy_stats_out(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli, repro.experiments.figures; "
                "print('scipy.stats' in sys.modules)",
            ],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"
