"""Tests for the micro-SQL front end."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from scipy import stats

from repro.db import Catalog, Table
from repro.db.sql import execute_sql
from repro.errors import InvalidParameterError


@pytest.fixture
def catalog(rng) -> Catalog:
    n = 20_000
    table = Table(
        name="people",
        columns={
            "city": rng.integers(0, 300, size=n),
            "age": rng.integers(0, 100, size=n),
        },
    )
    registry = Catalog()
    registry.register(table)
    return registry


class TestExactDistinct:
    def test_exact_count(self, catalog, rng):
        result = execute_sql(catalog, "SELECT COUNT(DISTINCT city) FROM people")
        truth = len(np.unique(catalog.table("people").column("city")))
        assert result.value == truth
        assert result.estimator == "exact"
        assert result.rows_read == 20_000

    def test_keywords_case_insensitive_and_semicolon(self, catalog):
        # Keywords are case-insensitive; identifiers stay case-sensitive.
        result = execute_sql(
            catalog, "select COUNT(distinct city) FROM people;"
        )
        assert result.kind == "distinct"

    def test_where_clause(self, catalog, rng):
        result = execute_sql(
            catalog, "SELECT COUNT(DISTINCT city) FROM people WHERE age < 10"
        )
        table = catalog.table("people")
        mask = table.column("age") < 10
        truth = len(np.unique(table.column("city")[mask]))
        assert result.value == truth
        assert result.rows_read == int(mask.sum())

    def test_where_equality(self, catalog):
        result = execute_sql(
            catalog, "SELECT COUNT(DISTINCT city) FROM people WHERE age = 30"
        )
        table = catalog.table("people")
        mask = table.column("age") == 30
        assert result.value == len(np.unique(table.column("city")[mask]))


class TestSampledDistinct:
    def test_sampled_estimate_with_interval(self, catalog, rng):
        # GEE's interval holds D with high probability, not always: a
        # sample that misses a city and has no singleton has UPPER = d <
        # D.  Exact facts on every sample: the interval exists, d <=
        # LOWER <= UPPER <= n, and the estimate lies in [d, n] (d read
        # off a replay of the query's row draw).  Then the rate: over
        # 1,000 queries, the one-sided 99% Clopper-Pearson lower bound on
        # how often [LOWER, UPPER] holds the true D must clear 90%.
        # Measured: 976 of 1,000.
        samples = 1_000
        cities = catalog.table("people").column("city")
        n = cities.size
        truth = len(np.unique(cities))
        hits = 0
        for _ in range(samples):
            replay = copy.deepcopy(rng)
            result = execute_sql(
                catalog,
                "SELECT COUNT(DISTINCT city) FROM people SAMPLE 10% USING GEE",
                rng,
            )
            assert result.estimator == "GEE"
            assert result.rows_read == 2000
            d = len(np.unique(cities[replay.choice(n, size=2000, replace=False)]))
            interval = result.interval
            assert interval is not None
            assert d <= interval.lower <= interval.upper <= n
            assert d <= result.value <= n
            hits += interval.contains(truth)
        bound = stats.beta.ppf(0.01, hits, samples - hits + 1) if hits else 0.0
        assert bound >= 0.90, hits

    def test_default_estimator_is_gee(self, catalog, rng):
        result = execute_sql(
            catalog, "SELECT COUNT(DISTINCT city) FROM people SAMPLE 5%", rng
        )
        assert result.estimator == "GEE"

    def test_alternate_estimator(self, catalog, rng):
        result = execute_sql(
            catalog,
            "SELECT COUNT(DISTINCT city) FROM people SAMPLE 10% USING AE",
            rng,
        )
        assert result.estimator == "AE"
        truth = len(np.unique(catalog.table("people").column("city")))
        assert 0.5 * truth <= result.value <= 2.0 * truth

    def test_sample_with_where(self, catalog, rng):
        result = execute_sql(
            catalog,
            "SELECT COUNT(DISTINCT city) FROM people SAMPLE 20% USING AE "
            "WHERE age >= 50",
            rng,
        )
        assert result.value > 0

    def test_sample_requires_rng(self, catalog):
        with pytest.raises(InvalidParameterError, match="rng"):
            execute_sql(
                catalog, "SELECT COUNT(DISTINCT city) FROM people SAMPLE 5%"
            )

    def test_unknown_estimator(self, catalog, rng):
        with pytest.raises(InvalidParameterError):
            execute_sql(
                catalog,
                "SELECT COUNT(DISTINCT city) FROM people SAMPLE 5% USING NOPE",
                rng,
            )


class TestGroupBy:
    def test_groups_and_counts(self, catalog):
        result = execute_sql(
            catalog, "SELECT age, COUNT(*) FROM people GROUP BY age"
        )
        table = catalog.table("people")
        values, counts = np.unique(table.column("age"), return_counts=True)
        assert result.groups == dict(zip(values.tolist(), counts.tolist()))
        assert result.value == len(values)

    def test_mismatched_group_column(self, catalog):
        with pytest.raises(InvalidParameterError):
            execute_sql(catalog, "SELECT city, COUNT(*) FROM people GROUP BY age")


class TestParsing:
    def test_unknown_statement(self, catalog):
        with pytest.raises(InvalidParameterError, match="cannot parse"):
            execute_sql(catalog, "DELETE FROM people")

    def test_unknown_table(self, catalog):
        with pytest.raises(KeyError):
            execute_sql(catalog, "SELECT COUNT(DISTINCT x) FROM nope")

    def test_unknown_column(self, catalog):
        with pytest.raises(InvalidParameterError, match="no column"):
            execute_sql(catalog, "SELECT COUNT(DISTINCT nope) FROM people")
