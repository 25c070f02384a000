"""A generated column's row layout is attributed, and the exhibits never build one.

Reading :attr:`Column.values` of a column built from class sizes lays
its rows out once, inside a ``data.layout`` span, and counts
``data.layouts_materialized`` and ``data.rows_materialized``.  The 20
exhibits sample Columns through layout-free schemes (or the class-count
path), so a whole smoke-scale report builds no layout at all.
"""

from __future__ import annotations

import numpy as np

from repro.data import zipf_column
from repro.experiments import EXPERIMENTS, executor, run_experiment


def test_first_read_is_spanned_and_counted_once(obs):
    column = zipf_column(20_000, 1.0, duplication=10, rng=np.random.default_rng(0))
    assert "data.layouts_materialized" not in obs.counters()
    column.values
    column.values
    spans = [r for r in obs.span_records() if r["name"] == "data.layout"]
    assert len(spans) == 1
    assert spans[0]["attrs"]["n_rows"] == 20_000
    counters = obs.counters()
    assert counters["data.layouts_materialized"] == 1
    assert counters["data.rows_materialized"] == 20_000


def test_smoke_report_materializes_no_layout(obs, monkeypatch):
    for name in ("REPRO_SEED_MODE", "REPRO_WORKERS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_SCALE", "20")
    monkeypatch.setenv("REPRO_TRIALS", "3")
    executor.clear_memo()
    try:
        for exhibit_id in sorted(EXPERIMENTS):
            run_experiment(exhibit_id, seed=0)
    finally:
        executor.clear_memo()
    counters = obs.counters()
    assert counters["sample.trials"] > 0
    assert "data.layouts_materialized" not in counters
    assert "data.rows_materialized" not in counters
    assert not [r for r in obs.span_records() if r["name"] == "data.layout"]
