"""Tests for the trial-evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GEE, make_estimators
from repro.data import uniform_column
from repro.errors import InvalidParameterError
from repro.experiments import evaluate_column


class TestEvaluateColumn:
    def test_summary_fields(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.05, trials=4)
        summary = result["GEE"]
        assert summary.trials == 4
        assert summary.true_distinct == 100
        assert summary.mean_ratio_error >= 1.0
        assert summary.max_ratio_error >= summary.mean_ratio_error
        assert summary.std_fraction >= 0.0
        assert result.sampling_fraction == pytest.approx(0.05)

    def test_interval_averaged_for_gee(self, rng):
        # Exact facts: the summary averages the per-trial intervals of
        # the very profiles it drew, each LOWER is that trial's d, and
        # the mean estimate lies inside the mean interval.  Containing
        # the true D is only a high-probability fact (see
        # test_interval_coverage_rate), except at a full scan.
        import copy
        import math

        from repro.sampling import UniformWithoutReplacement

        column = uniform_column(10_000, 100, rng=rng)
        replay = copy.deepcopy(rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.05, trials=3)
        summary = result["GEE"]
        profiles = UniformWithoutReplacement().profile_batch(
            column, replay, 3, fraction=0.05
        )
        intervals = [GEE().estimate(p, column.n_rows).interval for p in profiles]
        assert [i.lower for i in intervals] == [p.distinct for p in profiles]
        assert summary.mean_lower == math.fsum(i.lower for i in intervals) / 3
        assert summary.mean_upper == math.fsum(i.upper for i in intervals) / 3
        assert summary.mean_lower <= summary.mean_estimate <= summary.mean_upper

        full = evaluate_column(column, [GEE()], rng, fraction=1.0, trials=2)["GEE"]
        assert full.mean_lower == full.mean_upper == full.mean_estimate == 100

    def test_interval_coverage_rate(self):
        # GEE's interval holds the true D with high probability.  Over
        # 400 independent trials per rate, the one-sided 99%
        # Clopper-Pearson lower bound on the coverage rate must clear
        # 90%.  (Measured on these seeds: 400, 400 and 397 of 400.)
        from scipy.stats import beta

        from repro.sampling import UniformWithoutReplacement

        column = uniform_column(10_000, 100, rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for fraction in (0.005, 0.02, 0.05):
            profiles = UniformWithoutReplacement().profile_batch(
                column, rng, 400, fraction=fraction
            )
            hits = sum(
                GEE().estimate(p, column.n_rows).interval.contains(100)
                for p in profiles
            )
            bound = beta.ppf(0.01, hits, 400 - hits + 1) if hits else 0.0
            assert bound >= 0.90, (fraction, hits)

    def test_no_interval_for_plain_estimators(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        estimators = make_estimators(["DUJ2A"])
        result = evaluate_column(column, estimators, rng, fraction=0.05, trials=2)
        assert result["DUJ2A"].mean_lower is None

    def test_multiple_estimators_share_samples(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        estimators = make_estimators(["GEE", "AE", "SJ"])
        result = evaluate_column(column, estimators, rng, fraction=0.05, trials=2)
        assert set(result.summaries) == {"GEE", "AE", "SJ"}

    def test_absolute_size(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, size=500, trials=2)
        assert result.sample_size == 500

    def test_single_trial_zero_variance(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.05, trials=1)
        assert result["GEE"].std_fraction == 0.0

    def test_validation(self, rng):
        column = uniform_column(1000, 10, rng=rng)
        with pytest.raises(InvalidParameterError):
            evaluate_column(column, [GEE()], rng, fraction=0.1, trials=0)
        with pytest.raises(InvalidParameterError):
            evaluate_column(column, [], rng, fraction=0.1)

    def test_relative_error_property(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.2, trials=2)
        summary = result["GEE"]
        expected = (summary.mean_estimate - 100) / 100
        assert summary.mean_relative_error == pytest.approx(expected)


class TestRealizedSampleSize:
    def test_bernoulli_reports_mean_over_trials(self, rng):
        # Bernoulli's realized size varies per trial; the result must
        # report the rounded mean, not whichever size the last trial
        # happened to draw (the pre-batch behaviour).
        import copy

        from repro.sampling import Bernoulli

        column = uniform_column(10_000, 100, rng=rng)
        replay = copy.deepcopy(rng)
        result = evaluate_column(
            column, [GEE()], rng, fraction=0.05, trials=8, sampler=Bernoulli()
        )
        sizes = [
            p.sample_size
            for p in Bernoulli().profile_batch(column, replay, 8, fraction=0.05)
        ]
        assert len(set(sizes)) > 1  # the realized size does vary per trial
        assert result.sample_size == round(sum(sizes) / len(sizes))

    def test_fixed_size_schemes_unaffected(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, size=500, trials=5)
        assert result.sample_size == 500


class TestKernelTierIdentity:
    """A scalar per-trial loop vs the harness's batched estimates.

    The reference loop lives here: the trials' profiles are drawn by
    ``profile_batch`` on the column from a replayed generator, each is
    fed to every estimator's scalar ``estimate``, then summarized with
    the harness's own formulas.  ``evaluate_column`` (estimator-major
    ``estimate_batch``) must match it to the last bit, on a column that
    takes the row path and on one that takes the class-count path.
    """

    ESTIMATORS = [
        "GEE", "AE", "Shlosser", "ModShlosser", "SJ", "UJ2", "JK1",
        "JK2", "Chao84", "Scale", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A",
    ]
    TRIALS = 6

    @staticmethod
    def _columns():
        from repro.data import zipf_column

        rng = np.random.default_rng(31)
        return {
            "rows": zipf_column(20_000, 1.2, rng=rng),
            "classes": zipf_column(20_000, 1.2, duplication=50, rng=rng),
        }

    def _scalar_loop(self, column):
        import math

        from repro.core.base import ratio_error
        from repro.sampling import UniformWithoutReplacement

        profiles = UniformWithoutReplacement().profile_batch(
            column, np.random.default_rng(97), self.TRIALS, fraction=0.05
        )
        estimators = make_estimators(self.ESTIMATORS)
        values = {e.name: [] for e in estimators}
        for profile in profiles:
            for estimator in estimators:
                values[estimator.name].append(
                    estimator.estimate(profile, column.n_rows).value
                )
        truth = column.distinct_count
        fields = {}
        for name, estimates in values.items():
            mean = math.fsum(estimates) / self.TRIALS
            errors = [ratio_error(v, truth) for v in estimates]
            variance = math.fsum((v - mean) ** 2 for v in estimates) / (
                self.TRIALS - 1
            )
            fields[name] = {
                "mean_estimate": mean,
                "mean_ratio_error": math.fsum(errors) / self.TRIALS,
                "max_ratio_error": max(errors),
                "std_fraction": math.sqrt(variance) / truth,
            }
        return fields

    def test_legacy_and_fast_paths_bit_identical(self):
        from repro.sampling import UniformWithoutReplacement

        for path, column in self._columns().items():
            r = round(0.05 * column.n_rows)
            assert UniformWithoutReplacement()._class_path_pays(
                column.distinct_count, column.n_rows, r
            ) == (path == "classes")
            reference = self._scalar_loop(column)
            fast = evaluate_column(
                column,
                make_estimators(self.ESTIMATORS),
                np.random.default_rng(97),
                fraction=0.05,
                trials=self.TRIALS,
            )
            assert sorted(fast.summaries) == sorted(self.ESTIMATORS)
            for name in self.ESTIMATORS:
                for field in (
                    "mean_estimate",
                    "mean_ratio_error",
                    "max_ratio_error",
                    "std_fraction",
                ):
                    left = reference[name][field]
                    right = getattr(fast[name], field)
                    assert left.hex() == right.hex(), (path, name, field)
