"""Tests for the trial-evaluation harness."""

from __future__ import annotations

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
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, fraction=0.05, trials=3)
        summary = result["GEE"]
        assert summary.mean_lower is not None
        assert summary.mean_lower <= 100 <= summary.mean_upper

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
        from repro.sampling import Bernoulli

        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(
            column, [GEE()], rng, fraction=0.05, trials=8, sampler=Bernoulli()
        )
        # Frozen from the serial per-trial sizes under this seed:
        # [526, 488, 474, 503, 459, 501, 472, 509] -> mean 491.5 -> 492;
        # the old last-trial report would have said 509.
        assert result.sample_size == 492

    def test_fixed_size_schemes_unaffected(self, rng):
        column = uniform_column(10_000, 100, rng=rng)
        result = evaluate_column(column, [GEE()], rng, size=500, trials=5)
        assert result.sample_size == 500


class TestKernelTierIdentity:
    """The historical per-trial scalar loop vs the batched fast path.

    The reference loop lives here: one draw per trial from the same
    stream, each profile fed to every estimator's scalar ``estimate``,
    then summarized with the harness's own formulas.  ``evaluate_column`` (estimator-major
    ``estimate_batch``) must match it to the last bit.
    """

    ESTIMATORS = [
        "GEE", "AE", "Shlosser", "ModShlosser", "SJ", "UJ2", "JK1",
        "JK2", "Chao84", "Scale", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A",
    ]
    TRIALS = 6

    @staticmethod
    def _column():
        import numpy as np

        from repro.data import zipf_column

        return zipf_column(20_000, 1.2, rng=np.random.default_rng(31))

    def _scalar_loop(self, column):
        import math

        import numpy as np

        from repro.core.base import ratio_error
        from repro.sampling import UniformWithoutReplacement

        sampler = UniformWithoutReplacement()
        rng = np.random.default_rng(97)
        estimators = make_estimators(self.ESTIMATORS)
        values = {e.name: [] for e in estimators}
        for _ in range(self.TRIALS):
            profile = sampler.profile(column.values, rng, fraction=0.05)
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
        import numpy as np

        column = self._column()
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
                assert left.hex() == right.hex(), (name, field)
