"""Tests for the ANALYZE flow."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from scipy import stats

from repro.core import AE
from repro.data import uniform_column, zipf_column
from repro.db import Catalog, Table, analyze, analyze_column
from repro.errors import InvalidParameterError
from repro.sampling import Reservoir, UniformWithoutReplacement


def _registered_table(rng) -> tuple[Catalog, Table]:
    table = Table(
        name="facts",
        columns={
            "key": np.arange(50_000),
            "group": uniform_column(50_000, 500, rng=rng).values,
            "skewed": zipf_column(50_000, z=2.0, rng=rng).values,
        },
    )
    catalog = Catalog()
    catalog.register(table)
    return catalog, table


class TestAnalyzeColumn:
    def test_default_estimator_is_gee_with_interval(self, rng):
        # GEE's interval holds D with high probability, not always.  Exact
        # facts on every sample: the default is GEE over SRSWOR, the
        # interval exists, d <= LOWER <= UPPER <= n, and the estimate lies
        # in [d, n] (d read off a replay of the row draw).  Then the rate:
        # over 1,000 samples, the one-sided 99% Clopper-Pearson lower bound
        # on how often [LOWER, UPPER] holds D = 500 must clear 90%.
        # Measured: 1,000 of 1,000.
        samples = 1_000
        _, table = _registered_table(rng)
        n = table.n_rows
        hits = 0
        for _ in range(samples):
            replay = copy.deepcopy(rng)
            column_stats = analyze_column(table, "group", rng, fraction=0.05)
            d = UniformWithoutReplacement().profile(
                table.column("group"), replay, fraction=0.05
            ).distinct
            assert column_stats.estimator == "GEE"
            interval = column_stats.interval
            assert interval is not None
            assert d <= interval.lower <= interval.upper <= n
            assert d <= column_stats.distinct_estimate <= n
            hits += interval.contains(500)
        bound = stats.beta.ppf(0.01, hits, samples - hits + 1) if hits else 0.0
        assert bound >= 0.90, hits

    def test_estimate_near_truth(self, rng):
        _, table = _registered_table(rng)
        stats = analyze_column(table, "group", rng, fraction=0.1)
        assert 350 <= stats.distinct_estimate <= 800

    def test_custom_estimator_and_sampler(self, rng):
        _, table = _registered_table(rng)
        stats = analyze_column(
            table, "group", rng, estimator=AE(), sampler=Reservoir(), fraction=0.05
        )
        assert stats.estimator == "AE"

    def test_absolute_sample_size(self, rng):
        _, table = _registered_table(rng)
        stats = analyze_column(table, "key", rng, sample_size=1000)
        assert stats.sample_size == 1000
        assert stats.sampling_fraction == pytest.approx(0.02)


class TestAnalyzeTable:
    def test_fills_catalog_for_all_columns(self, rng):
        catalog, table = _registered_table(rng)
        collected = analyze(catalog, "facts", rng, fraction=0.05)
        assert len(collected) == 3
        for name in table.column_names:
            assert catalog.has_statistics("facts", name)

    def test_subset_of_columns(self, rng):
        catalog, _ = _registered_table(rng)
        analyze(catalog, "facts", rng, columns=["group"], fraction=0.05)
        assert catalog.has_statistics("facts", "group")
        assert not catalog.has_statistics("facts", "key")

    def test_unknown_column_rejected(self, rng):
        catalog, _ = _registered_table(rng)
        with pytest.raises(InvalidParameterError):
            analyze(catalog, "facts", rng, columns=["nope"], fraction=0.05)

    def test_key_column_estimated_near_n(self, rng):
        # All-distinct column: GEE's estimate is sqrt(n/r) * r ~ 11k of 50k,
        # yet the interval brackets the truth n on every sample, exactly.
        # A sample without replacement of r = 2,500 distinct keys has
        # d = f1 = r, so LOWER = r and UPPER = (n/r) * f1 = 20 * 2,500 =
        # n, an exact product in floating point.
        catalog, _ = _registered_table(rng)
        for _ in range(50):
            analyze(catalog, "facts", rng, columns=["key"], fraction=0.05)
            column_stats = catalog.column_statistics("facts", "key")
            assert column_stats.interval.lower == 2_500
            assert column_stats.interval.upper == 50_000
            assert column_stats.interval.contains(50_000)
            assert column_stats.distinct_estimate == pytest.approx(
                (20 ** 0.5) * 2_500
            )
