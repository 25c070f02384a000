"""Figures 11-12: mean error and variance over all 15 Census columns.

Paper findings: GEE, AE, and HYBGEE consistently outperform HYBSKEW on
this dataset; every estimator's variance is small and decreases with
the sampling fraction.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import paper_scale

from repro.data import census
from repro.experiments import config
from repro.experiments.figures import real_dataset_metric


@pytest.fixture(scope="module")
def dataset():
    return census(np.random.default_rng(0), scale=1.0 / config.scale_divisor())


def test_fig11_census_error(benchmark, dataset):
    table = benchmark.pedantic(
        lambda: real_dataset_metric("Census", metric="error", dataset=dataset),
        rounds=1,
        iterations=1,
    )
    print()
    print(table.render())
    if paper_scale():
        # The paper's trio beats HYBSKEW on aggregate over the rates;
        # shrunk surrogate columns can flip this ranking, so the check
        # only applies at full scale.
        for name in ("GEE", "AE", "HYBGEE"):
            assert sum(table.series[name]) <= sum(table.series["HYBSKEW"]), name
    # Errors fall with the sampling rate for the paper's estimators.
    for name in ("GEE", "AE", "HYBGEE"):
        assert table.series[name][-1] <= table.series[name][0], name


def test_fig12_census_variance(benchmark, dataset):
    table = benchmark.pedantic(
        lambda: real_dataset_metric("Census", metric="stddev", dataset=dataset),
        rounds=1,
        iterations=1,
    )
    print()
    print(table.render())
    # "Small" and "decreasing" are claims about full-size columns;
    # shrunk surrogate columns (1,628 rows at REPRO_SCALE=20) leave AE's
    # 6.4% stddev at 0.29 over 300 trials, and with 3 trials some
    # estimator's top-rate stddev exceeds its lowest-rate one by more
    # than 0.05 on 21 of 200 seeds, so both only apply at full scale.
    if paper_scale():
        for name, values in table.series.items():
            assert values[-1] <= values[0] + 0.05, name
            assert values[-1] < 0.3, name
