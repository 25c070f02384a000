"""Compute-cost benchmark: the sampling schemes and exact counters.

Sampling dominates ANALYZE's cost (the estimators are microseconds, see
``bench_perf_estimators.py``); this bench times each scheme drawing a 1%
sample from a 1M-row column, alongside the two exact full-scan counters
they replace.

``test_profile_path_cost`` measures the crossover of the class-count
path (``RowSampler.profile_batch`` on a ``Column``): for every scheme
with a class-count law it times 10 trials' profiles drawn three ways —
``rows`` (a raw array), ``positions`` (a ``Column`` on the row path:
drawn row positions mapped to classes) and ``classes`` (class counts) —
over D in {50, 5k, 20k, 200k, 500k} distinct values at n = 1M rows and
the paper's six sampling rates (500k because Bernoulli's crossover lies
between 200k and 500k).  The crossover constants in
``repro/sampling/schemes.py`` are read off these timings
(``BENCH_perf.json``, ``tests`` entries).  ``test_fig15_row_path_cost``
times the two row paths on Figure 15's high-D MSSales columns.

``test_data_layer_cost`` gives the data layer its own numbers: building
the MSSales surrogate (20 columns of 1,996,290 rows at full scale),
which holds only class sizes and layout seeds, and the first read of
every column's ``values``, which lays the rows out.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.data import column_with_distinct, mssales, zipf_column
from repro.db import exact_distinct_hash, exact_distinct_sort
from repro.experiments import config
from repro.sampling import (
    Bernoulli,
    Block,
    Reservoir,
    UniformWithReplacement,
    UniformWithoutReplacement,
    resolve_sample_size,
)


def _column():
    rng = np.random.default_rng(9)
    n = config.scaled_rows(1_000_000, keep_divisible_by=10)
    return zipf_column(n, z=1.0, duplication=10, rng=rng)


COLUMN = _column()
RNG = np.random.default_rng(10)

SCHEMES = {
    "srswor": UniformWithoutReplacement(),
    "srswr": UniformWithReplacement(),
    "bernoulli": Bernoulli(),
    "reservoir": Reservoir(),
    "block": Block(block_size=100),
}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_sampler_cost(timed, name):
    sampler = SCHEMES[name]
    values = COLUMN.values
    sample = timed(lambda: sampler.sample(values, RNG, fraction=0.01))
    assert sample.size >= 1


@pytest.mark.parametrize(
    "name,counter",
    [("sort", exact_distinct_sort), ("hash", exact_distinct_hash)],
)
def test_exact_counter_cost(timed, name, counter):
    values = COLUMN.values
    result = timed(lambda: counter(values))
    assert result == COLUMN.distinct_count


def _mssales():
    return mssales(np.random.default_rng(12), scale=1.0 / config.scale_divisor())


@pytest.fixture
def unread_mssales():
    return _mssales()


def test_data_layer_cost_build(timed):
    dataset = timed(_mssales)
    assert len(dataset) == 20
    assert all(column._values is None for column in dataset)


def test_data_layer_cost_first_read(benchmark, unread_mssales):
    # A first read happens once per column, so this is one round at
    # every scale; the dataset is built in the fixture, outside it.
    rows = benchmark.pedantic(
        lambda: sum(column.values.size for column in unread_mssales),
        rounds=1,
        iterations=1,
    )
    assert rows == sum(column.n_rows for column in unread_mssales)


CROSSOVER_DISTINCT = (50, 5_000, 20_000, 200_000, 500_000)
CROSSOVER_TRIALS = 10
CLASS_COUNT_SCHEMES = ("srswor", "srswr", "bernoulli")


@functools.cache
def _crossover_column(distinct: int):
    """A 1M-row Zipf(1) column with exactly ``distinct`` values (scaled)."""
    n = config.scaled_rows(1_000_000)
    return column_with_distinct(
        n,
        max(1, min(n, distinct // config.scale_divisor())),
        z=1.0,
        rng=np.random.default_rng(distinct),
    )


@pytest.mark.parametrize("fraction", config.SAMPLING_FRACTIONS)
@pytest.mark.parametrize("distinct", CROSSOVER_DISTINCT)
@pytest.mark.parametrize("path", ["rows", "positions", "classes"])
@pytest.mark.parametrize("name", CLASS_COUNT_SCHEMES)
def test_profile_path_cost(timed, name, path, distinct, fraction):
    sampler = SCHEMES[name]
    column = _crossover_column(distinct)
    profiles = timed(_path_runner(sampler, path, column, fraction))
    assert len(profiles) == CROSSOVER_TRIALS
    assert all(1 <= p.distinct <= column.distinct_count for p in profiles)


def _path_runner(sampler, path, column, fraction):
    """One path's 10-trial profile draw, forced whatever the crossover says."""
    rng = np.random.default_rng(11)
    if path == "rows":
        # A raw array always takes the row path.
        values = column.values
        return lambda: sampler.profile_batch(
            values, rng, CROSSOVER_TRIALS, fraction=fraction
        )
    r = resolve_sample_size(
        column.n_rows, fraction=fraction,
        allow_oversample=not sampler.without_replacement,
    )
    if path == "positions":
        return lambda: sampler._column_row_profiles(
            column, r, rng, CROSSOVER_TRIALS
        )
    return lambda: sampler._class_profiles(
        column.sorted_class_sizes, r, rng, CROSSOVER_TRIALS
    )


@functools.cache
def _fig15_column(name: str):
    return next(column for column in _mssales() if column.name == name)


@pytest.mark.parametrize("fraction", config.SAMPLING_FRACTIONS)
@pytest.mark.parametrize("column_name", ["customer", "invoice"])
@pytest.mark.parametrize("path", ["rows", "positions"])
def test_fig15_row_path_cost(timed, path, column_name, fraction):
    # Figure 15's shapes: n = 1,996,290 and D = 200,000 (customer) or
    # 1,800,000 (invoice) at full scale, where SRSWOR's crossover picks
    # rows at every rate.
    column = _fig15_column(column_name)
    sampler = SCHEMES["srswor"]
    profiles = timed(_path_runner(sampler, path, column, fraction))
    assert len(profiles) == CROSSOVER_TRIALS
    assert all(1 <= p.distinct <= column.distinct_count for p in profiles)
