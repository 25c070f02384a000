"""Which entry points the traced run wraps, and the per-layer metrics.

Each entry point belongs to one layer (a ``repro`` subpackage).  A
layer's ``*.seconds`` metric is its self time: the time inside its spans
minus the time inside the spans of other wrapped entry points they call.
Self times therefore add up to the attributed time, and
``trace.attributed_frac`` is the share of the traced wall they cover.
The one inclusive figure is ``exhibit.<id>.seconds``, the whole exhibit.

Estimator and data-generation spans are outermost-only: an estimator's
scalar fallback inside ``estimate_batch`` (or a hybrid calling GEE) is
neither timed nor counted a second time.
"""

from __future__ import annotations

from typing import Any

from spans import Aggregate, Patch, Recorder, find_global_sites

__all__ = [
    "ESTIMATORS",
    "EXHIBITS",
    "PER_LAYER",
    "build_patch",
    "layer_metrics",
]

#: The 21 registered estimators, in registry order.
ESTIMATORS = (
    "GEE", "AE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A", "SJ", "MM", "UJ2",
    "JK1", "JK2", "Shlosser", "ModShlosser", "Chao84", "ChaoLee", "Goodman",
    "Bootstrap", "GT", "HT", "Scale", "d",
)

#: The 20 registered exhibits, sorted as ``repro report`` runs them.
EXHIBITS = (
    "fig1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "stability", "table1", "table2", "theorem1",
)

_ANALYSIS_PARTS = ("context", "callgraph", "boundsflow", "taintflow", "intervals", "rules")


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    units.update({"data.seconds": "s", "data.calls": "count", "data.rows": "count"})
    units.update(
        {
            "sampling.seconds": "s",
            "sampling.draw_seconds": "s",
            "sampling.reduce_seconds": "s",
            "sampling.rows": "count",
            "sampling.trials": "count",
        }
    )
    units.update(
        {
            "frequency.pack_seconds": "s",
            "frequency.from_sample_seconds": "s",
            "frequency.profiles": "count",
        }
    )
    units["estimate.seconds"] = "s"
    for name in ESTIMATORS:
        units[f"estimate.{name}.seconds"] = "s"
        units[f"estimate.{name}.profiles"] = "count"
    units["estimate.GEE.ratio_error_mean"] = "ratio"
    units["estimate.AE.ratio_error_mean"] = "ratio"
    units["estimate.GEE.coverage"] = "share"
    for exhibit in EXHIBITS:
        units[f"exhibit.{exhibit}.seconds"] = "s"
    units.update(
        {
            "harness.seconds": "s",
            "harness.evaluations": "count",
            "experiments.self_seconds": "s",
            "report.write_seconds": "s",
        }
    )
    units.update(
        {
            "db.analyze_column.seconds": "s",
            "db.analyze_column.calls": "count",
            "db.exact.seconds": "s",
        }
    )
    for part in _ANALYSIS_PARTS:
        units[f"analysis.{part}_seconds"] = "s"
    units["analysis.self_seconds"] = "s"
    for count in ("files", "lines", "findings", "clauses_proved"):
        units[f"analysis.{count}"] = "count"
    units["trace.attributed_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


#: Every per-layer metric name and its unit, in report order.
PER_LAYER: dict[str, str] = _per_layer_units()


# ----------------------------------------------------------------------
# Counters: called with each spanned call's result.
# ----------------------------------------------------------------------
def _count_data(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("data.calls")
    columns = getattr(result, "columns", None)
    if columns is not None:  # a Dataset: every column's rows were generated
        rec.count("data.rows", sum(c.n_rows for c in columns))
    else:
        rec.count("data.rows", result.n_rows)


def _count_profile(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("sampling.trials")
    rec.count("sampling.rows", result.sample_size)


def _count_profile_batch(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("sampling.trials", len(result))
    rec.count("sampling.rows", sum(p.sample_size for p in result))


def _count_pack(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("frequency.profiles", len(result.profiles))


def _count_from_sample(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("frequency.profiles")


def _count_estimate(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count(f"estimate.{args[0].name}.profiles")


def _count_estimate_batch(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count(f"estimate.{args[0].name}.profiles", len(result))


def _count_evaluation(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("harness.evaluations")


def _count_analyze(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("db.analyze_column.calls")


def _count_lint(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("analysis.files", result.files_scanned)
    rec.count("analysis.findings", len(result.findings))
    rec.count(
        "analysis.clauses_proved",
        sum(1 for _path, v in result.contract_verdicts if v.verdict == "proved"),
    )


def _estimator_key(args: tuple, kwargs: dict) -> str:
    return f"estimate.{args[0].name}"


def _exhibit_key(args: tuple, kwargs: dict) -> str:
    exhibit = args[0] if args else kwargs["exhibit_id"]
    return f"exhibit.{exhibit}"


# ----------------------------------------------------------------------
# The patch
# ----------------------------------------------------------------------
def build_patch(rec: Recorder, benchmark_module: Any) -> Patch:
    """Wrappers for every entry point of perfbench/README.md's layer table.

    ``benchmark_module`` is the workload module: its globals are call
    sites too, and its ``write_exhibit`` is the benchmark's own
    ``report.write`` span.
    """
    from repro.analysis.callgraph import build_callgraph
    from repro.analysis.dataflow.boundsflow import project_bounds
    from repro.analysis.dataflow.engine import module_intervals
    from repro.analysis.dataflow.taintflow import project_taint
    from repro.analysis.project import build_context
    from repro.analysis.rules.base import _REGISTRY, ProjectRule, Rule
    from repro.analysis.runner import lint_paths
    from repro.core.base import DistinctValueEstimator
    from repro.data import surrogates, synthetic
    from repro.data.zipf import zipf_column
    from repro.db.analyze import analyze_column
    from repro.db.exact import exact_distinct_hash, exact_distinct_sort
    from repro.experiments.figures import run_experiment
    from repro.experiments.harness import evaluate_column
    from repro.frequency.batch import FrequencyProfileBatch
    from repro.frequency.profile import FrequencyProfile
    from repro.sampling.base import RowSampler
    from repro.sampling.batch import profiles_from_samples

    patch = Patch()
    prefixes = ("repro", benchmark_module.__name__)

    def functions(fn: Any, key: Any, layer: str, **options: Any) -> Any:
        wrapped = rec.wrap(fn, key, layer, **options)
        for module, name in find_global_sites(fn, prefixes):
            patch.set_attr(module, name, wrapped)
        return wrapped

    def method(cls: type, name: str, key: Any, layer: str, **options: Any) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            patch.set_attr(cls, name, classmethod(rec.wrap(raw.__func__, key, layer, **options)))
        else:
            patch.set_attr(cls, name, rec.wrap(raw, key, layer, **options))

    # repro.data
    data = {"outermost": True, "counter": _count_data}
    functions(zipf_column, "data", "data", **data)
    for name in synthetic.__all__:
        functions(getattr(synthetic, name), "data", "data", **data)
    for name, factory in list(surrogates.DATASETS.items()):
        patch.set_item(surrogates.DATASETS, name, functions(factory, "data", "data", **data))

    # repro.sampling
    method(RowSampler, "profile_batch", "sampling.draw", "sampling",
           outermost=True, counter=_count_profile_batch)
    method(RowSampler, "profile", "sampling.draw", "sampling",
           outermost=True, counter=_count_profile)
    functions(profiles_from_samples, "sampling.reduce", "sampling.reduce")

    # repro.frequency
    method(FrequencyProfileBatch, "from_profiles", "frequency.pack", "frequency.pack",
           counter=_count_pack)
    method(FrequencyProfile, "from_sample", "frequency.from_sample",
           "frequency.from_sample", counter=_count_from_sample)

    # estimators (repro.core + repro.estimators share the base class)
    method(DistinctValueEstimator, "estimate", _estimator_key, "estimate",
           outermost=True, counter=_count_estimate)
    method(DistinctValueEstimator, "estimate_batch", _estimator_key, "estimate",
           outermost=True, counter=_count_estimate_batch)

    # repro.experiments
    functions(run_experiment, _exhibit_key, "exhibit")
    functions(evaluate_column, "harness", "harness", counter=_count_evaluation)
    functions(benchmark_module.write_exhibit, "report.write", "report.write")

    # repro.db
    functions(analyze_column, "db.analyze_column", "db.analyze_column",
              counter=_count_analyze)
    functions(exact_distinct_hash, "db.exact", "db.exact")
    functions(exact_distinct_sort, "db.exact", "db.exact")

    # repro.analysis
    functions(lint_paths, "analysis.lint", "analysis.lint", counter=_count_lint)
    functions(build_context, "analysis.context", "analysis.context")
    functions(build_callgraph, "analysis.callgraph", "analysis.callgraph")
    functions(project_bounds, "analysis.boundsflow", "analysis.boundsflow")
    functions(project_taint, "analysis.taintflow", "analysis.taintflow")
    functions(module_intervals, "analysis.intervals", "analysis.intervals")
    rule_classes = {
        base
        for cls in (Rule, ProjectRule, *_REGISTRY.values())
        for base in cls.__mro__
        if base is not object
    }
    for cls in rule_classes:
        for name in ("check", "check_project"):
            if name in vars(cls):
                # Rules yield their findings lazily; time the iteration too.
                method(cls, name, "analysis.rules", "analysis.rules", materialize=True)
    return patch


def layer_metrics(agg: Aggregate, wall: float) -> dict[str, float]:
    """Per-layer metrics (all but accuracy and overhead) from ``agg``.

    ``wall`` is the traced wall time the aggregate covers.
    """
    own = agg.self_seconds
    counts = agg.counts
    m: dict[str, float] = {}
    m["data.seconds"] = own.get("data", 0.0)
    m["data.calls"] = counts.get("data.calls", 0)
    m["data.rows"] = counts.get("data.rows", 0)
    m["sampling.draw_seconds"] = own.get("sampling.draw", 0.0)
    m["sampling.reduce_seconds"] = own.get("sampling.reduce", 0.0)
    m["sampling.seconds"] = m["sampling.draw_seconds"] + m["sampling.reduce_seconds"]
    m["sampling.rows"] = counts.get("sampling.rows", 0)
    m["sampling.trials"] = counts.get("sampling.trials", 0)
    m["frequency.pack_seconds"] = own.get("frequency.pack", 0.0)
    m["frequency.from_sample_seconds"] = own.get("frequency.from_sample", 0.0)
    m["frequency.profiles"] = counts.get("frequency.profiles", 0)
    m["estimate.seconds"] = sum(
        v for k, v in own.items() if k.startswith("estimate.")
    )
    for name in ESTIMATORS:
        m[f"estimate.{name}.seconds"] = own.get(f"estimate.{name}", 0.0)
        m[f"estimate.{name}.profiles"] = counts.get(f"estimate.{name}.profiles", 0)
    for exhibit in EXHIBITS:
        m[f"exhibit.{exhibit}.seconds"] = agg.total_seconds.get(f"exhibit.{exhibit}", 0.0)
    m["experiments.self_seconds"] = sum(
        v for k, v in own.items() if k.startswith("exhibit.")
    )
    m["harness.seconds"] = own.get("harness", 0.0)
    m["harness.evaluations"] = counts.get("harness.evaluations", 0)
    m["report.write_seconds"] = own.get("report.write", 0.0)
    m["db.analyze_column.seconds"] = own.get("db.analyze_column", 0.0)
    m["db.analyze_column.calls"] = counts.get("db.analyze_column.calls", 0)
    m["db.exact.seconds"] = own.get("db.exact", 0.0)
    for part in _ANALYSIS_PARTS:
        m[f"analysis.{part}_seconds"] = own.get(f"analysis.{part}", 0.0)
    m["analysis.self_seconds"] = own.get("analysis.lint", 0.0)
    for count in ("files", "lines", "findings", "clauses_proved"):
        m[f"analysis.{count}"] = counts.get(f"analysis.{count}", 0)
    m["trace.attributed_frac"] = agg.attributed / wall if wall > 0 else 0.0
    return m
