"""Property-based fuzzing of the micro-SQL front end."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from repro.db import Catalog, Table
from repro.db.sql import execute_sql
from repro.errors import InvalidParameterError, ReproError
from repro.frequency import FrequencyProfile


def _catalog(seed: int = 0) -> Catalog:
    rng = np.random.default_rng(seed)
    table = Table(
        name="t",
        columns={
            "a": rng.integers(0, 50, size=3000),
            "b": rng.integers(-10, 10, size=3000),
        },
    )
    registry = Catalog()
    registry.register(table)
    return registry


CATALOG = _catalog()

estimators = st.sampled_from(["GEE", "AE", "DUJ2A", "HYBGEE", "SJ", "Chao84"])
ops = st.sampled_from(["<", "<=", ">", ">=", "=", "==", "!="])


def _replayed_sample(
    column: str, percent: int, seed: int
) -> tuple[FrequencyProfile, int]:
    """The profile and size of the sample ``SAMPLE percent%`` draws on ``seed``."""
    values = CATALOG.table("t").column(column)
    r = min(values.size, max(1, round(percent / 100.0 * values.size)))
    indices = np.random.default_rng(seed).choice(values.size, size=r, replace=False)
    return FrequencyProfile.from_sample(values[indices]), r


class TestGeneratedStatements:
    @settings(deadline=None, max_examples=40)
    @given(
        column=st.sampled_from(["a", "b"]),
        percent=st.integers(min_value=1, max_value=100),
        estimator=estimators,
        seed=st.integers(0, 2**31),
    )
    def test_sampled_statements_always_sane(self, column, percent, estimator, seed):
        rng = np.random.default_rng(seed)
        statement = (
            f"SELECT COUNT(DISTINCT {column}) FROM t "
            f"SAMPLE {percent}% USING {estimator}"
        )
        result = execute_sql(CATALOG, statement, rng)
        n = CATALOG.table("t").n_rows
        truth = len(np.unique(CATALOG.table("t").column(column)))
        assert 1 <= result.value <= n
        if result.interval is not None:
            # The interval's exact facts (paper §4) hold on every sample:
            # LOWER = d, UPPER = (d - f1) + (n/r) f1 capped at n, and the
            # estimate inside.  Containing the true D is only a
            # high-probability fact -- see TestIntervalCoverage -- except
            # at a full scan, where UPPER collapses onto d = D.
            profile, r = _replayed_sample(column, percent, seed)
            d, f1 = profile.distinct, profile.f1
            assert result.rows_read == r
            assert result.interval.lower == d
            assert result.interval.upper == float(min((d - f1) + (n / r) * f1, n))
            assert result.interval.lower <= result.value <= result.interval.upper
            if r == n:
                assert result.interval.contains(truth)

    @settings(deadline=None, max_examples=40)
    @given(
        column=st.sampled_from(["a", "b"]),
        wcol=st.sampled_from(["a", "b"]),
        op=ops,
        value=st.integers(min_value=-15, max_value=60),
    )
    def test_exact_filtered_statements_match_numpy(self, column, wcol, op, value):
        statement = (
            f"SELECT COUNT(DISTINCT {column}) FROM t WHERE {wcol} {op} {value}"
        )
        data = CATALOG.table("t")
        mask_ops = {
            "<": np.less, "<=": np.less_equal, ">": np.greater,
            ">=": np.greater_equal, "=": np.equal, "==": np.equal,
            "!=": np.not_equal,
        }
        mask = mask_ops[op](data.column(wcol), value)
        expected = len(np.unique(data.column(column)[mask]))
        result = execute_sql(CATALOG, statement)
        assert result.value == expected

    @settings(deadline=None, max_examples=30)
    @given(garbage=st.text(min_size=1, max_size=60))
    def test_garbage_never_crashes_uncontrolled(self, garbage):
        try:
            execute_sql(CATALOG, garbage, np.random.default_rng(0))
        except ReproError:
            pass  # the designed failure mode (includes KeyError-based CatalogError)
        except KeyError:
            pytest.fail("raw KeyError escaped the SQL layer")


def _coverage_lower_bound(hits: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided Clopper-Pearson lower confidence bound on a binomial rate."""
    if hits == 0:
        return 0.0
    return float(beta.ppf(1.0 - confidence, hits, trials - hits + 1))


class TestIntervalCoverage:
    """GEE's [LOWER, UPPER] contains the true D with high probability.

    The paper promises containment only with high probability: a sample
    that misses a value but holds no singleton collapses the interval to
    ``[d, d]`` below the truth.  The coverage rate over independent
    samples is measured per estimator that reports the interval (GEE,
    AE and HYBGEE share it) and per column, over the low rates where
    values can be missed, and checked with a 99% one-sided
    Clopper-Pearson lower bound against stated targets: 90% pooled
    over the rates, 80% at every single rate.  (Measured on these seeds:
    99% pooled, 93.5% at the worst rate, with lower bounds 0.978 and
    0.883.)
    """

    PERCENTS = (1, 2, 3, 4, 6, 8, 10, 12, 16)
    SEEDS = range(200)
    POOLED_TARGET = 0.90
    PER_RATE_TARGET = 0.80

    @pytest.mark.parametrize("estimator", ["GEE", "AE", "HYBGEE"])
    @pytest.mark.parametrize("column", ["a", "b"])
    def test_coverage_rate(self, estimator, column):
        truth = len(np.unique(CATALOG.table("t").column(column)))
        pooled = 0
        for percent in self.PERCENTS:
            statement = (
                f"SELECT COUNT(DISTINCT {column}) FROM t "
                f"SAMPLE {percent}% USING {estimator}"
            )
            hits = sum(
                execute_sql(
                    CATALOG, statement, np.random.default_rng(seed)
                ).interval.contains(truth)
                for seed in self.SEEDS
            )
            bound = _coverage_lower_bound(hits, len(self.SEEDS))
            assert bound >= self.PER_RATE_TARGET, (percent, hits)
            pooled += hits
        trials = len(self.PERCENTS) * len(self.SEEDS)
        assert _coverage_lower_bound(pooled, trials) >= self.POOLED_TARGET, pooled
