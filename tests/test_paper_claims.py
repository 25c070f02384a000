"""Integration tests of the paper's headline claims.

Each test here corresponds to a sentence in the paper; together they are
the executable summary of the reproduction.  They run at reduced scale
(n = 100K-200K) so the whole file stays fast; the benchmarks re-run the
same claims at full paper scale.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    AE,
    GEE,
    HybridGEE,
    lower_bound_error,
    make_estimators,
    ratio_error,
)
from repro.data import zipf_column
from repro.estimators import HybridSkew, HybridVariance
from repro.experiments import evaluate_column, gee_interval_table
from repro.sampling import UniformWithoutReplacement


@pytest.fixture(scope="module")
def shared_rng():
    return np.random.default_rng(2000)


class TestSection3NegativeResult:
    """'No estimator can guarantee small error across all input
    distributions, unless it examines a large fraction of the input.'"""

    def test_bound_matches_paper_numeric_comparison(self):
        # Paper: at 20% sampling and gamma = 1/2, the floor is ~1.18,
        # comparable to the observed max errors of Shlosser (1.58),
        # smoothed jackknife (2.86) and Hybrid (1.42).
        bound = lower_bound_error(1_000_000, 200_000, gamma=0.5)
        assert 1.1 < bound < 1.3

    def test_error_floor_scales_as_sqrt_n_over_r(self):
        n = 1_000_000
        b1 = lower_bound_error(n, 10_000)
        b2 = lower_bound_error(n, 40_000)
        # Quadrupling r should halve the bound (up to the -r term).
        assert b1 / b2 == pytest.approx(2.0, rel=0.05)


class TestSection4GEE:
    """'GEE ... achieves an error bound proportional to sqrt(n/r).'"""

    @pytest.mark.parametrize("z,dup", [(0.0, 1), (0.0, 100), (1.0, 1), (2.0, 100)])
    def test_theorem2_bound_across_distributions(self, shared_rng, z, dup):
        n = 200_000
        column = zipf_column(n, z=z, duplication=dup, rng=shared_rng)
        result = evaluate_column(
            column, [GEE()], shared_rng, fraction=0.01, trials=5
        )
        bound = math.e * math.sqrt(1 / 0.01) * 1.1
        assert result["GEE"].mean_ratio_error <= bound

    def test_interval_always_contains_actual(self):
        # Tables 1-2: 'the actual number of distinct values always lies
        # in the interval [LOWER, UPPER]'.  What holds on *every* sample
        # is exact: LOWER = d, the estimate lies inside the interval
        # (so the tables' averaged columns keep LOWER <= GEE <= UPPER),
        # and a full scan's interval collapses onto D.  Containing D on a
        # sample is a high-probability fact: test_interval_coverage_rate.
        for z in (0.0, 2.0):
            table = gee_interval_table(
                z=z, duplication=100, n_rows=200_000,
                fractions=(0.002, 0.016, 0.064, 1.0), trials=3, seed=11,
            )
            for i in range(len(table.x_values)):
                assert (
                    table.series["LOWER"][i]
                    <= table.series["GEE"][i]
                    <= table.series["UPPER"][i]
                )
            actual = table.series["ACTUAL"][-1]
            assert table.series["LOWER"][-1] == table.series["UPPER"][-1] == actual

            column = zipf_column(
                200_000, z=z, duplication=100, rng=np.random.default_rng(11)
            )
            profiles = UniformWithoutReplacement().profile_batch(
                column, np.random.default_rng(12), 20, fraction=0.016
            )
            for profile in profiles:
                estimate = GEE().estimate(profile, column.n_rows)
                assert estimate.interval.lower == profile.distinct
                assert (
                    estimate.interval.lower
                    <= estimate.value
                    <= estimate.interval.upper
                )

    def test_interval_coverage_rate(self):
        # The high-probability half of Tables 1-2's claim, as a rate:
        # over 300 samples per (skew, rate), the one-sided 99%
        # Clopper-Pearson lower bound on how often [LOWER, UPPER] holds
        # the true D must clear 90% at every rate.  (Measured on these
        # seeds: 300 of 300 everywhere but Z=2 at 6.4%, 294 of 300.)
        from scipy.stats import beta

        samples = 300
        for z in (0.0, 2.0):
            column = zipf_column(
                200_000, z=z, duplication=100, rng=np.random.default_rng(11)
            )
            truth = column.distinct_count
            rng = np.random.default_rng(12)
            for fraction in (0.002, 0.016, 0.064):
                profiles = UniformWithoutReplacement().profile_batch(
                    column, rng, samples, fraction=fraction
                )
                hits = sum(
                    GEE().estimate(p, column.n_rows).interval.contains(truth)
                    for p in profiles
                )
                bound = beta.ppf(0.01, hits, samples - hits + 1) if hits else 0.0
                assert bound >= 0.90, (z, fraction, hits)

    def test_interval_collapses_with_rate(self, shared_rng):
        table = gee_interval_table(
            z=0.0, duplication=100, n_rows=200_000,
            fractions=(0.002, 0.016, 0.064), trials=3, seed=7,
        )
        widths = [
            table.series["UPPER"][i] - table.series["LOWER"][i] for i in range(3)
        ]
        assert widths == sorted(widths, reverse=True)


class TestSection5Hybrids:
    """'HYBGEE consistently outperforms HYBSKEW across all data
    distributions' and the AE design goals."""

    def test_hybgee_never_worse_than_hybskew_on_sweep(self, shared_rng):
        total_hybgee, total_hybskew = 0.0, 0.0
        for z in (0.0, 1.0, 2.0):
            column = zipf_column(200_000, z=z, duplication=100, rng=shared_rng)
            result = evaluate_column(
                column,
                [HybridGEE(), HybridSkew()],
                shared_rng,
                fraction=0.008,
                trials=5,
            )
            total_hybgee += result["HYBGEE"].mean_ratio_error
            total_hybskew += result["HYBSKEW"].mean_ratio_error
        assert total_hybgee <= total_hybskew * 1.001

    def test_gee_underestimates_low_skew_large_d(self, shared_rng):
        # §5: 'GEE ... (in fact be a severe underestimate) for data
        # which has both low skew and a large number of distinct values'.
        column = zipf_column(200_000, z=0.0, duplication=1, rng=shared_rng)
        profile = UniformWithoutReplacement().profile(
            column.values, shared_rng, fraction=0.01
        )
        estimate = GEE()(profile, column.n_rows)
        assert estimate < 0.2 * column.distinct_count

    def test_ae_beats_gee_where_gee_is_weak(self, shared_rng):
        # AE's design goal: fix GEE's low-skew weakness.
        column = zipf_column(200_000, z=0.0, duplication=20, rng=shared_rng)
        result = evaluate_column(
            column, [AE(), GEE()], shared_rng, fraction=0.005, trials=5
        )
        assert result["AE"].mean_ratio_error < result["GEE"].mean_ratio_error

    def test_ae_stable_across_skews(self, shared_rng):
        # Figure 5's claim at the low sampling rate.
        for z in (0.0, 1.0, 2.0):
            column = zipf_column(200_000, z=z, duplication=100, rng=shared_rng)
            result = evaluate_column(column, [AE()], shared_rng, fraction=0.008, trials=5)
            assert result["AE"].mean_ratio_error < 1.6, f"Z={z}"


class TestSection6Experiments:
    """Spot checks of the experimental narratives."""

    def test_all_six_estimators_converge_with_rate(self, shared_rng):
        column = zipf_column(200_000, z=1.0, duplication=100, rng=shared_rng)
        estimators = make_estimators(
            ["GEE", "AE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A"]
        )
        low = evaluate_column(column, estimators, shared_rng, fraction=0.002, trials=3)
        high = evaluate_column(column, estimators, shared_rng, fraction=0.25, trials=3)
        for estimator in estimators:
            assert (
                high[estimator.name].mean_ratio_error
                <= low[estimator.name].mean_ratio_error + 0.05
            )
            assert high[estimator.name].mean_ratio_error < 1.2

    def test_hybvar_bounded_scaleup_pathology(self, shared_rng):
        # Figure 9: HYBVAR's error grows with n while D stays fixed.
        from repro.data import bounded_scaleup_column

        errors = []
        for n in (100_000, 400_000):
            column = bounded_scaleup_column(n, rng=shared_rng)
            result = evaluate_column(
                column, [HybridVariance()], shared_rng, size=10_000, trials=3
            )
            errors.append(result["HYBVAR"].mean_ratio_error)
        assert errors[1] > errors[0]

    def test_variance_decreases_with_rate(self, shared_rng):
        # Figures 3-4: 'the variance of all estimators decreases with
        # increasing sample size.'
        column = zipf_column(200_000, z=0.0, duplication=100, rng=shared_rng)
        estimators = make_estimators(["GEE", "AE", "HYBGEE"])
        low = evaluate_column(column, estimators, shared_rng, fraction=0.002, trials=6)
        high = evaluate_column(column, estimators, shared_rng, fraction=0.064, trials=6)
        for estimator in estimators:
            assert (
                high[estimator.name].std_fraction
                <= low[estimator.name].std_fraction + 0.01
            )


class TestRealDataClaims:
    """'In fact on all real-world data, we found that GEE outperforms
    the Shlosser Estimator' (§5.1).  On our surrogates the claim holds
    column-wise (GEE wins roughly 2:1 where the two differ) and
    decisively on CoverType; near-unique identifier columns are the
    exception (Shlosser's text model is exact there), recorded in
    EXPERIMENTS.md."""

    def test_gee_beats_shlosser_columnwise(self, shared_rng):
        from repro.core import GEE
        from repro.data import census, covertype, mssales
        from repro.estimators import Shlosser

        wins, losses = 0, 0
        for factory, scale in ((census, 0.5), (covertype, 0.1), (mssales, 0.05)):
            dataset = factory(shared_rng, scale=scale)
            for column in dataset:
                result = evaluate_column(
                    column,
                    [GEE(), Shlosser()],
                    shared_rng,
                    fraction=0.01,
                    trials=3,
                )
                gee = result["GEE"].mean_ratio_error
                shlosser = result["Shlosser"].mean_ratio_error
                if gee < shlosser * 0.99:
                    wins += 1
                elif gee > shlosser * 1.01:
                    losses += 1
        assert wins > losses

    def test_gee_beats_shlosser_on_covertype_aggregate(self, shared_rng):
        from repro.core import GEE
        from repro.data import covertype
        from repro.estimators import Shlosser

        dataset = covertype(shared_rng, scale=0.1)
        gee_total, shlosser_total = 0.0, 0.0
        for column in dataset:
            result = evaluate_column(
                column, [GEE(), Shlosser()], shared_rng, fraction=0.01, trials=3
            )
            gee_total += result["GEE"].mean_ratio_error
            shlosser_total += result["Shlosser"].mean_ratio_error
        assert gee_total < shlosser_total

    def test_hybgee_beats_hybskew_on_surrogates(self, shared_rng):
        from repro.core import HybridGEE
        from repro.data import covertype
        from repro.estimators import HybridSkew

        dataset = covertype(shared_rng, scale=0.05)
        hybgee_total, hybskew_total = 0.0, 0.0
        for column in dataset:
            result = evaluate_column(
                column,
                [HybridGEE(), HybridSkew()],
                shared_rng,
                fraction=0.01,
                trials=3,
            )
            hybgee_total += result["HYBGEE"].mean_ratio_error
            hybskew_total += result["HYBSKEW"].mean_ratio_error
        assert hybgee_total <= hybskew_total * 1.001
