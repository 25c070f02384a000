"""The traced run's wrappers on the real program."""

import json
from pathlib import Path

import numpy as np

import layers
import workloads
from run import END_TO_END
from spans import Recorder

ROOT = Path(__file__).resolve().parents[2]


def _traced(fn):
    rec = Recorder()
    patch = layers.build_patch(rec, workloads)
    patch.apply()
    try:
        fn()
    finally:
        patch.restore()
    return rec.take()


def test_batch_fallback_counts_each_profile_once():
    from repro.core.registry import make_estimator
    from repro.data.zipf import zipf_column
    from repro.frequency.batch import FrequencyProfileBatch
    from repro.sampling.schemes import UniformWithoutReplacement

    column = zipf_column(10_000, 1.0, duplication=10, rng=np.random.default_rng(0))
    profiles = UniformWithoutReplacement().profile_batch(
        column.values, np.random.default_rng(1), 4, fraction=0.01
    )
    batch = FrequencyProfileBatch.from_profiles(profiles)
    goodman, gee = make_estimator("Goodman"), make_estimator("GEE")  # scalar, vector
    agg = _traced(lambda: (goodman.estimate_batch(batch, 10_000), gee.estimate_batch(batch, 10_000)))
    assert agg.counts["estimate.Goodman.profiles"] == 4
    assert agg.counts["estimate.GEE.profiles"] == 4
    assert set(agg.self_seconds) == {"estimate.Goodman", "estimate.GEE"}


def test_layer_self_times_add_up_to_attributed_time():
    from repro.db import table as table_module
    from repro.data.surrogates import DATASETS
    from repro.db import exact

    analyze = __import__("repro.db.analyze", fromlist=["analyze_column"])

    def work():
        dataset = DATASETS["Census"](np.random.default_rng(0), scale=0.1)
        table = table_module.Table.from_dataset(dataset)
        for name in table.column_names[:3]:
            exact.exact_distinct_sort(table.column(name))
            analyze.analyze_column(table, name, np.random.default_rng(2))

    agg = _traced(work)
    metrics = layers.layer_metrics(agg, wall=agg.attributed)
    self_times = [
        v
        for k, v in metrics.items()
        if (k.endswith("_seconds") or k.endswith(".seconds"))
        and not k.startswith("exhibit.")
        and not (k.startswith("estimate.") and k != "estimate.seconds")
        and k != "sampling.seconds"
    ]
    assert abs(sum(self_times) - agg.attributed) < 1e-9
    assert metrics["trace.attributed_frac"] == 1.0
    assert metrics["db.analyze_column.calls"] == 3
    assert metrics["data.calls"] == 1  # the factory, not its nested column generators
    assert metrics["sampling.trials"] == 3 and metrics["frequency.profiles"] == 3


def test_patch_restores_every_entry_point():
    from repro.core.base import DistinctValueEstimator
    from repro.data import surrogates
    from repro.experiments import figures

    before = (
        vars(DistinctValueEstimator)["estimate"],
        dict(surrogates.DATASETS),
        figures.evaluate_column,
        figures.zipf_column,
    )
    _traced(lambda: None)
    after = (
        vars(DistinctValueEstimator)["estimate"],
        dict(surrogates.DATASETS),
        figures.evaluate_column,
        figures.zipf_column,
    )
    assert before == after


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_registries_match_the_metric_names():
    from repro.core.registry import ESTIMATOR_FACTORIES
    from repro.experiments.figures import EXPERIMENTS

    assert tuple(ESTIMATOR_FACTORIES) == layers.ESTIMATORS
    assert tuple(sorted(EXPERIMENTS)) == layers.EXHIBITS
    assert set(workloads.SHAPES) == set(EXPERIMENTS)
