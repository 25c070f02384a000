"""Compute-cost benchmark: the sampling schemes and exact counters.

Sampling dominates ANALYZE's cost (the estimators are microseconds, see
``bench_perf_estimators.py``); this bench times each scheme drawing a 1%
sample from a 1M-row column, alongside the two exact full-scan counters
they replace.

``test_profile_path_cost`` measures the crossover of the class-count
path (``RowSampler.profile_batch`` on a ``Column``): for every scheme
with a class-count law it times 10 trials' profiles drawn from rows and
drawn from class counts, over D in {50, 5k, 20k, 200k, 500k} distinct
values at n = 1M rows and the paper's six sampling rates (500k because
Bernoulli's crossover lies between 200k and 500k).  The crossover
constants in ``repro/sampling/schemes.py`` are read off these timings
(``BENCH_perf.json``, ``tests`` entries).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.data import column_with_distinct, zipf_column
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
    sample = timed(lambda: sampler.sample(COLUMN.values, RNG, fraction=0.01))
    assert sample.size >= 1


@pytest.mark.parametrize(
    "name,counter",
    [("sort", exact_distinct_sort), ("hash", exact_distinct_hash)],
)
def test_exact_counter_cost(timed, name, counter):
    result = timed(lambda: counter(COLUMN.values))
    assert result == COLUMN.distinct_count


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
@pytest.mark.parametrize("path", ["rows", "classes"])
@pytest.mark.parametrize("name", CLASS_COUNT_SCHEMES)
def test_profile_path_cost(timed, name, path, distinct, fraction):
    sampler = SCHEMES[name]
    column = _crossover_column(distinct)
    rng = np.random.default_rng(11)
    if path == "rows":
        # A raw array always takes the row path.
        profiles = timed(
            lambda: sampler.profile_batch(
                column.values, rng, CROSSOVER_TRIALS, fraction=fraction
            )
        )
    else:
        r = resolve_sample_size(
            column.n_rows, fraction=fraction,
            allow_oversample=not sampler.without_replacement,
        )
        profiles = timed(
            lambda: sampler._class_profiles(
                column.class_sizes, r, rng, CROSSOVER_TRIALS
            )
        )
    assert len(profiles) == CROSSOVER_TRIALS
    assert all(1 <= p.distinct <= column.distinct_count for p in profiles)
