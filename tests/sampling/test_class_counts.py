"""The class-count path: profiles drawn from class sizes instead of rows.

Under each scheme with a closed-form law, one trial's per-value sample
multiplicities are drawn directly from the column's class sizes:
multivariate hypergeometric (SRSWOR), multinomial (SRSWR), or one
binomial per class (Bernoulli).  The path changes the random stream, so
it is checked three ways instead of bit for bit against the row path:

* **exact facts**, asserted on every draw: sizes, per-class caps, the
  full scan, ``d <= min(D, r)``;
* **measured rates**: mean ``d`` and mean ``f1`` over thousands of
  trials against their exact expectations (:mod:`repro.core.expectations`
  for the uniform schemes, the closed forms for Bernoulli), with a
  stated z bound;
* **a two-sample test**: the row path and the class path give the same
  distributions of ``d``, ``f1``, ``f2`` and the GEE estimate at several
  ``(D, r)`` points, at a stated significance level.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.core import GEE
from repro.core.expectations import (
    expected_distinct,
    expected_frequency_count,
    variance_distinct,
)
from repro.data import Column, column_with_distinct
from repro.frequency import FrequencyProfile
from repro.sampling import Bernoulli, UniformWithReplacement, UniformWithoutReplacement
from repro.sampling.batch import profiles_from_counts

#: Every scheme with a class-count law.
HOOKED = [UniformWithoutReplacement(), UniformWithReplacement(), Bernoulli()]
FIXED_SIZE = [UniformWithoutReplacement(), UniformWithReplacement()]

#: Two-sided z bound of the rate tests.  Under a correct law each mean
#: is asymptotically normal, so one check falsely fails with probability
#: 2 * (1 - Phi(4.5)) = 6.8e-6; the file makes 7 such checks, < 5e-5 in
#: all.
Z_BOUND = 4.5

#: Per-comparison significance of the two-sample tests.  KS on discrete
#: data is conservative, so each comparison falsely fails with
#: probability <= ALPHA; over the 3 schemes x 3 points x 4 statistics =
#: 36 comparisons the family-wise false-alarm rate is <= 36 * ALPHA
#: = 0.36% (Bonferroni).
ALPHA = 1e-4


def _column(n: int, distinct: int, seed: int = 0) -> Column:
    return column_with_distinct(
        n, distinct, z=1.0, rng=np.random.default_rng(seed), name=f"D={distinct}"
    )


def _counts(sampler, column: Column, r: int, seed: int, trials: int) -> np.ndarray:
    sizes = np.sort(column.class_sizes)
    rng = np.random.default_rng(seed)
    return np.stack([sampler._draw_counts(sizes, r, rng) for _ in range(trials)])


class TestExactFacts:
    @pytest.mark.parametrize("sampler", FIXED_SIZE, ids=lambda s: s.name)
    def test_counts_sum_to_r(self, sampler):
        column = _column(5_000, 120)
        counts = _counts(sampler, column, 700, seed=1, trials=200)
        assert (counts.sum(axis=1) == 700).all()
        assert (counts >= 0).all()

    def test_without_replacement_never_exceeds_a_class(self):
        column = _column(5_000, 120)
        sizes = np.sort(column.class_sizes)
        counts = _counts(UniformWithoutReplacement(), column, 4_000, seed=2, trials=200)
        assert (counts <= sizes).all()

    @pytest.mark.parametrize(
        "sampler", [UniformWithoutReplacement(), Bernoulli()], ids=lambda s: s.name
    )
    def test_full_scan_is_the_population_profile(self, sampler):
        column = _column(3_000, 40)
        assert sampler._class_path_pays(40, 3_000, 3_000)
        profiles = sampler.profile_batch(
            column, np.random.default_rng(3), 3, fraction=1.0
        )
        assert profiles == [column.population_profile()] * 3

    @pytest.mark.parametrize("sampler", HOOKED, ids=lambda s: s.name)
    @pytest.mark.parametrize("r", [1, 7, 300, 2_000])
    def test_distinct_bounded_by_classes_and_rows(self, sampler, r):
        column = _column(2_000, 60)
        profiles = sampler._class_profiles(
            column.class_sizes, r, np.random.default_rng(r), 50
        )
        for profile in profiles:
            assert 1 <= profile.distinct <= column.distinct_count
            if sampler.name != "bernoulli":
                assert profile.distinct <= r
                assert profile.sample_size == r
            else:
                assert profile.distinct <= profile.sample_size

    def test_counts_matrix_reduces_like_rows(self):
        # profiles_from_counts is pass 2 of the row reduction: a counts
        # matrix and the rows it describes give equal profiles.
        counts = np.array([[0, 3, 1, 1], [2, 0, 0, 0], [1, 1, 1, 5]])
        rows = [np.repeat(np.arange(4), trial) for trial in counts]
        assert profiles_from_counts(counts) == [
            FrequencyProfile.from_sample(sample) for sample in rows
        ]

    def test_bernoulli_fallback_picks_a_class_by_size(self):
        # At rate 1/n an empty sample has probability ~ 1/e; the fallback
        # must then keep one row, landing in class j with chance n_j / n
        # -- the same chance a lone genuine draw has.  Class 0 holds 10%
        # of the rows.
        sizes = np.array([1_000, 9_000])
        rng = np.random.default_rng(4)
        trials = 4_000
        draws = [Bernoulli()._draw_counts(sizes, 1, rng) for _ in range(trials)]
        assert all(d.sum() >= 1 for d in draws)
        singles = [d for d in draws if d.sum() == 1]
        share = sum(int(d[0]) for d in singles) / len(singles)
        se = math.sqrt(0.1 * 0.9 / len(singles))
        assert abs(share - 0.1) <= Z_BOUND * se, (share, len(singles))


class TestRates:
    """Mean d and mean f1 over 3,000 class-path trials vs exact expectations."""

    TRIALS = 3_000
    N, D, R = 6_000, 60, 600

    def _profiles(self, sampler):
        column = _column(self.N, self.D, seed=5)
        # The dispatch itself must pick the class path for this input.
        assert sampler._class_path_pays(self.D, self.N, self.R)
        profiles = sampler.profile_batch(
            column, np.random.default_rng(6), self.TRIALS, size=self.R
        )
        d = np.array([p.distinct for p in profiles], dtype=float)
        f1 = np.array([p.f1 for p in profiles], dtype=float)
        return np.sort(column.class_sizes), d, f1

    def _assert_mean(self, observed: np.ndarray, expected: float, sd: float) -> None:
        se = sd / math.sqrt(observed.size)
        assert abs(observed.mean() - expected) <= Z_BOUND * se, (
            observed.mean(), expected, se,
        )

    @pytest.mark.parametrize(
        "sampler,scheme",
        [(UniformWithoutReplacement(), "without"), (UniformWithReplacement(), "with")],
        ids=["srswor", "srswr"],
    )
    def test_uniform_schemes(self, sampler, scheme):
        sizes, d, f1 = self._profiles(sampler)
        self._assert_mean(
            d,
            expected_distinct(sizes, self.R, scheme),
            math.sqrt(variance_distinct(sizes, self.R, scheme)),
        )
        self._assert_mean(
            f1, expected_frequency_count(sizes, self.R, 1, scheme), f1.std(ddof=1)
        )

    def test_bernoulli(self):
        # Classes are independent: class j is unseen with probability
        # u_j = (1 - q)^{n_j}, so E[d] = sum(1 - u_j), Var[d] =
        # sum(u_j (1 - u_j)) and E[f1] = sum(n_j q (1 - q)^{n_j - 1}).
        # The empty-sample fallback has probability (1 - q)^n ~ 1e-275.
        sizes, d, f1 = self._profiles(Bernoulli())
        q = self.R / self.N
        unseen = (1.0 - q) ** sizes
        self._assert_mean(
            d, float(np.sum(1.0 - unseen)), math.sqrt(np.sum(unseen * (1 - unseen)))
        )
        self._assert_mean(
            f1, float(np.sum(sizes * q * (1.0 - q) ** (sizes - 1))), f1.std(ddof=1)
        )


class TestRowsAndClassesAgree:
    """Two-sample KS tests of the row path against the class path."""

    TRIALS = 2_000
    N = 10_000
    #: (D, r): few heavy classes, a mid point, and D far above r.
    POINTS = [(10, 100), (300, 1_000), (3_000, 500)]

    @staticmethod
    def _statistics(profiles, n):
        gee = [GEE().estimate(p, n).value for p in profiles]
        return {
            "d": [p.distinct for p in profiles],
            "f1": [p.f1 for p in profiles],
            "f2": [p.f2 for p in profiles],
            "GEE": gee,
        }

    @pytest.mark.parametrize("sampler", HOOKED, ids=lambda s: s.name)
    @pytest.mark.parametrize("distinct,r", POINTS)
    def test_same_distributions(self, sampler, distinct, r):
        column = _column(self.N, distinct, seed=distinct)
        rows = sampler.profile_batch(
            column.values, np.random.default_rng(7), self.TRIALS, size=r
        )
        classes = sampler._class_profiles(
            column.class_sizes, r, np.random.default_rng(8), self.TRIALS
        )
        by_rows = self._statistics(rows, self.N)
        by_classes = self._statistics(classes, self.N)
        for name in by_rows:
            p = stats.ks_2samp(by_rows[name], by_classes[name]).pvalue
            assert p >= ALPHA, (name, p)
