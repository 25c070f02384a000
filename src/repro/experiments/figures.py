"""Runners that regenerate every table and figure of the paper's §6.

Each ``fig*``/``table*`` function reproduces one exhibit and returns a
:class:`~repro.experiments.report.SeriesTable` holding the same series
the paper plots.  The registry :data:`EXPERIMENTS` maps exhibit ids
(``"fig1"`` ... ``"fig16"``, ``"table1"``, ``"table2"``, ``"theorem1"``)
to zero-argument callables with the paper's parameters baked in; the
benchmark suite executes the registry one exhibit per file.

All runners honour ``REPRO_SCALE`` / ``REPRO_TRIALS`` (see
:mod:`repro.experiments.config`) and take a ``seed`` so runs are
reproducible.

Grid sweeps run under either of two seeding protocols (selected by
``REPRO_WORKERS`` / ``REPRO_SEED_MODE``, see
:mod:`repro.experiments.executor` and ``docs/performance.md``):

* **legacy** (the default on a single worker): one generator threads
  sequentially through column generation and every grid point, in the
  historical call order;
* **spawn**: every grid point draws from an independent child stream
  derived from the root seed and its grid index, and shared inputs
  (columns, datasets) derive theirs from their specification — results
  are then byte-identical for *any* worker count, and points can be
  executed in parallel processes.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, replace
from typing import Any, TypeVar

import numpy as np

from repro.core.base import ratio_error
from repro.core.gee import GEE
from repro.core.registry import PAPER_ESTIMATORS, make_estimators
from repro.core.theory import adversarial_pair, lower_bound_error
from repro.data.column import Column
from repro.data.surrogates import DATASETS, Dataset
from repro.data.synthetic import bounded_scaleup_column, unbounded_scaleup_column
from repro.data.zipf import zipf_column
from repro.errors import InvalidParameterError
from repro.experiments import config, executor
from repro.experiments.harness import (
    EstimatorSummary,
    EvaluationResult,
    evaluate_column,
)
from repro.experiments.report import SeriesTable
from repro.obs.recorder import OBS
from repro.sampling.schemes import UniformWithoutReplacement

__all__ = [
    "error_vs_sampling_rate",
    "variance_vs_sampling_rate",
    "error_vs_skew",
    "error_vs_duplication",
    "gee_interval_table",
    "scaleup_bounded",
    "scaleup_unbounded",
    "real_dataset_metric",
    "theorem1_comparison",
    "stability_comparison",
    "EXPERIMENTS",
    "run_experiment",
]

_METRICS = ("error", "stddev")

_SweepT = TypeVar("_SweepT")


def _metric_value(summary: EstimatorSummary, metric: str) -> float:
    if metric == "error":
        return summary.mean_ratio_error
    if metric == "stddev":
        return summary.std_fraction
    raise InvalidParameterError(f"metric must be one of {_METRICS}, got {metric!r}")


def _trials(trials: int | None) -> int:
    return trials if trials is not None else config.trials()


def _series_names(
    results: Sequence[EvaluationResult], estimators: Sequence[str]
) -> list[str]:
    """Canonical estimator series names for a sweep's result list."""
    if results:
        return list(results[0].summaries)
    return [e.name for e in make_estimators(estimators)]


# ----------------------------------------------------------------------
# Sweep task machinery (the spawn-seeded, process-parallel protocol)
# ----------------------------------------------------------------------
_KIND_ZIPF, _KIND_BOUNDED, _KIND_UNBOUNDED = 1, 2, 3


@dataclass(frozen=True)
class _ColumnSpec:
    """Deterministic description of a synthetic column.

    ``factor`` is the duplication factor for zipf/unbounded columns and
    ``base_rows`` for the bounded-scaleup workload.  The spec — not a
    generator state — keys the column's random stream, so every worker
    that needs the column regenerates identical bytes.
    """

    kind: int
    n_rows: int
    z: float
    factor: int

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.kind, self.n_rows, int(round(self.z * 1000)), self.factor)

    def build(self, rng: np.random.Generator) -> Column:
        if self.kind == _KIND_ZIPF:
            return zipf_column(self.n_rows, self.z, duplication=self.factor, rng=rng)
        if self.kind == _KIND_BOUNDED:
            return bounded_scaleup_column(
                self.n_rows, base_rows=self.factor, z=self.z, rng=rng
            )
        return unbounded_scaleup_column(
            self.n_rows, duplication=self.factor, z=self.z, rng=rng
        )


def _build_column_traced(spec: _ColumnSpec, seed: int) -> Column:
    # Covers all three column kinds; zipf specs additionally nest the
    # generator's own ``data.zipf_column`` span (which owns the
    # ``data.rows_generated`` counter — no double count here).
    with OBS.span("data.build_column", n_rows=spec.n_rows, z=spec.z):
        return spec.build(executor.derived_rng(seed, *spec.key))


def _shared_column(spec: _ColumnSpec, seed: int) -> Column:
    """Materialize ``spec`` once per process, on its spec-derived stream."""
    return executor.memoized(
        ("column", seed, spec),
        lambda: _build_column_traced(spec, seed),
    )


@dataclass(frozen=True)
class _EvalTask:
    """One grid point: evaluate a column at one sampling configuration."""

    spec: _ColumnSpec
    estimators: tuple[str, ...]
    trials: int
    seed: int
    fraction: float | None = None
    size: int | None = None


def _evaluate_point(task: _EvalTask, rng: np.random.Generator) -> EvaluationResult:
    """Sweep task function (module-level so worker processes can load it)."""
    column = _shared_column(task.spec, task.seed)
    suite = make_estimators(task.estimators)
    return evaluate_column(
        column, suite, rng,
        fraction=task.fraction, size=task.size, trials=task.trials,
    )


@dataclass(frozen=True)
class _DatasetTask:
    """One grid point of a real-dataset exhibit: one sampling fraction."""

    dataset_name: str
    scale_ppm: int  # dataset scale in parts-per-million (picklable int key)
    estimators: tuple[str, ...]
    trials: int
    seed: int
    fraction: float


def _build_dataset_traced(name: str, scale_ppm: int, seed: int) -> Dataset:
    index = sorted(DATASETS).index(name)
    with OBS.span("data.build_dataset", dataset=name):
        return DATASETS[name](
            executor.derived_rng(seed, 4, index, scale_ppm),
            scale=scale_ppm / 1_000_000,
        )


def _shared_dataset(name: str, scale_ppm: int, seed: int) -> Dataset:
    return executor.memoized(
        ("dataset", seed, name, scale_ppm),
        lambda: _build_dataset_traced(name, scale_ppm, seed),
    )


@dataclass(frozen=True)
class _DatasetSweep:
    """Per-fraction, per-column results of a dataset sweep, plus title metadata."""

    dataset_label: str
    n_rows: int
    n_columns: int
    points: tuple[tuple[EvaluationResult, ...], ...]


def _evaluate_dataset(
    dataset: Dataset, estimators: Sequence[str], rng: np.random.Generator,
    fractions: Sequence[float], runs: int,
) -> _DatasetSweep:
    """Evaluate every column of ``dataset`` at each fraction, on one stream."""
    suite = make_estimators(estimators)
    points = tuple(
        tuple(evaluate_column(c, suite, rng, fraction=f, trials=runs) for c in dataset)
        for f in fractions
    )
    return _DatasetSweep(dataset.name, dataset.n_rows, len(dataset), points)


def _evaluate_dataset_point(
    task: _DatasetTask, rng: np.random.Generator
) -> _DatasetSweep:
    """Every dataset column's results at one sampling fraction."""
    dataset = _shared_dataset(task.dataset_name, task.scale_ppm, task.seed)
    return _evaluate_dataset(
        dataset, task.estimators, rng, (task.fraction,), task.trials
    )


def _column_mean(results: Sequence[EvaluationResult], name: str, metric: str) -> float:
    """Mean of one estimator's metric over a dataset's columns, in column order."""
    total = 0.0
    for result in results:
        total += _metric_value(result[name], metric)
    return total / len(results)


def _shared_sweep(sweep: Callable[..., _SweepT], *args: Hashable) -> _SweepT:
    """Run ``sweep(*args)`` at most once per process.

    The mean-error and stddev exhibits of a pair (Figures 1/3, 2/4,
    11/12, 13/14, 15/16) run the same sweep and differ only in the
    statistic they read, so the second exhibit reads the first one's
    results.  The memo key is the sweep's own arguments — everything
    that determines its numbers — plus the seeding protocol.  A failed
    sweep raises (the runners call :func:`executor.run_sweep` with
    ``on_gap="raise"``), so neither an exception nor a partial sweep is
    ever stored.
    """
    key = ("sweep", sweep.__qualname__, config.spawn_seeding(), *args)
    if not executor.memo_contains(key):
        return executor.memoized(key, lambda: sweep(*args))
    with OBS.span("sweep.reuse"):
        if OBS.enabled:
            OBS.add("experiments.sweeps_reused")
        return executor.memoized(key, lambda: sweep(*args))


# ----------------------------------------------------------------------
# Synthetic sweeps (Figures 1-8, Tables 1-2)
# ----------------------------------------------------------------------
def _rate_sweep(
    spec: _ColumnSpec, fractions: tuple[float, ...], estimators: tuple[str, ...],
    runs: int, seed: int,
) -> tuple[int, list[EvaluationResult]]:
    """Figures 1-4's sweep: one Zipf column at every rate, plus its D."""
    if config.spawn_seeding():
        results = executor.run_sweep(
            _evaluate_point,
            [_EvalTask(spec, estimators, runs, seed, fraction=f) for f in fractions],
            seed=seed,
        )
        return (results[0].true_distinct if results else 0), results
    rng = np.random.default_rng(seed)
    column = zipf_column(spec.n_rows, spec.z, duplication=spec.factor, rng=rng)
    suite = make_estimators(estimators)
    results = [
        evaluate_column(column, suite, rng, fraction=f, trials=runs)
        for f in fractions
    ]
    return column.distinct_count, results


def error_vs_sampling_rate(
    z: float,
    duplication: int,
    n_rows: int | None = None,
    fractions: Sequence[float] = config.SAMPLING_FRACTIONS,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
    metric: str = "error",
) -> SeriesTable:
    """Figures 1/2 (metric='error') and 3/4 (metric='stddev')."""
    if metric not in _METRICS:
        raise InvalidParameterError(f"metric must be one of {_METRICS}, got {metric!r}")
    n = n_rows if n_rows is not None else config.scaled_rows(
        config.PAPER_ROWS, keep_divisible_by=duplication
    )
    runs = _trials(trials)
    spec = _ColumnSpec(_KIND_ZIPF, n, z, duplication)
    distinct, results = _shared_sweep(
        _rate_sweep, spec, tuple(fractions), tuple(estimators), runs, seed
    )
    label = "mean ratio error" if metric == "error" else "stddev / D"
    table = SeriesTable(
        title=(
            f"{label} vs sampling rate "
            f"(Z={z:g}, dup={duplication}, n={n:,}, D={distinct:,})"
        ),
        x_name="rate",
        x_values=[f"{f:.1%}" for f in fractions],
    )
    for name in _series_names(results, estimators):
        table.add_series(
            name, [_metric_value(result[name], metric) for result in results]
        )
    return table


def variance_vs_sampling_rate(
    z: float, duplication: int, **kwargs: Any
) -> SeriesTable:
    """Figures 3/4: estimator stddev (as a fraction of D) vs sampling rate."""
    return error_vs_sampling_rate(z, duplication, metric="stddev", **kwargs)


def error_vs_skew(
    fraction: float,
    duplication: int = 100,
    n_rows: int | None = None,
    skews: Sequence[float] = config.SKEW_VALUES,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figures 5 (0.8% rate) and 6 (6.4% rate): error vs Zipf skew."""
    n = n_rows if n_rows is not None else config.scaled_rows(
        config.PAPER_ROWS, keep_divisible_by=duplication
    )
    runs = _trials(trials)
    if config.spawn_seeding():
        results = executor.run_sweep(
            _evaluate_point,
            [
                _EvalTask(
                    _ColumnSpec(_KIND_ZIPF, n, z, duplication),
                    tuple(estimators), runs, seed, fraction=fraction,
                )
                for z in skews
            ],
            seed=seed,
        )
    else:
        rng = np.random.default_rng(seed)
        suite = make_estimators(estimators)
        results = []
        for z in skews:
            column = zipf_column(n, z, duplication=duplication, rng=rng)
            results.append(
                evaluate_column(column, suite, rng, fraction=fraction, trials=runs)
            )
    table = SeriesTable(
        title=(
            f"mean ratio error vs skew "
            f"(rate={fraction:.1%}, dup={duplication}, n={n:,})"
        ),
        x_name="Z",
        x_values=[f"{z:g}" for z in skews],
    )
    for name in _series_names(results, estimators):
        table.add_series(name, [result[name].mean_ratio_error for result in results])
    return table


def error_vs_duplication(
    fraction: float,
    z: float = 1.0,
    n_rows: int | None = None,
    duplications: Sequence[int] = config.DUPLICATION_FACTORS,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figures 7 (0.8% rate) and 8 (6.4% rate): error vs duplication factor."""
    base_n = n_rows if n_rows is not None else config.PAPER_ROWS
    runs = _trials(trials)
    sizes = [config.scaled_rows(base_n, keep_divisible_by=dup) for dup in duplications]
    if config.spawn_seeding():
        results = executor.run_sweep(
            _evaluate_point,
            [
                _EvalTask(
                    _ColumnSpec(_KIND_ZIPF, n, z, dup),
                    tuple(estimators), runs, seed, fraction=fraction,
                )
                for n, dup in zip(sizes, duplications)
            ],
            seed=seed,
        )
    else:
        rng = np.random.default_rng(seed)
        suite = make_estimators(estimators)
        results = []
        for n, dup in zip(sizes, duplications):
            column = zipf_column(n, z, duplication=dup, rng=rng)
            results.append(
                evaluate_column(column, suite, rng, fraction=fraction, trials=runs)
            )
    table = SeriesTable(
        title=f"mean ratio error vs duplication (rate={fraction:.1%}, Z={z:g})",
        x_name="dup",
        x_values=[str(dup) for dup in duplications],
    )
    for name in _series_names(results, estimators):
        table.add_series(name, [result[name].mean_ratio_error for result in results])
    return table


def gee_interval_table(
    z: float,
    duplication: int = 100,
    n_rows: int | None = None,
    fractions: Sequence[float] = config.SAMPLING_FRACTIONS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Tables 1 (Z=0) and 2 (Z=2): GEE's [LOWER, UPPER] interval vs rate."""
    n = n_rows if n_rows is not None else config.scaled_rows(
        config.PAPER_ROWS, keep_divisible_by=duplication
    )
    runs = _trials(trials)
    if config.spawn_seeding():
        spec = _ColumnSpec(_KIND_ZIPF, n, z, duplication)
        results = executor.run_sweep(
            _evaluate_point,
            [
                _EvalTask(spec, ("GEE",), runs, seed, fraction=f)
                for f in fractions
            ],
            seed=seed,
        )
    else:
        rng = np.random.default_rng(seed)
        column = zipf_column(n, z, duplication=duplication, rng=rng)
        gee = GEE()
        results = [
            evaluate_column(column, [gee], rng, fraction=f, trials=runs)
            for f in fractions
        ]
    table = SeriesTable(
        title=(
            f"GEE error guarantee (Z={z:g}, dup={duplication}, n={n:,})"
        ),
        x_name="rate",
        x_values=[f"{f:.1%}" for f in fractions],
        notes="ACTUAL must always lie within [LOWER, UPPER]",
    )
    summaries = [result["GEE"] for result in results]
    table.add_series("ACTUAL", [float(result.true_distinct) for result in results])
    table.add_series("LOWER", [summary.mean_lower for summary in summaries])
    table.add_series("UPPER", [summary.mean_upper for summary in summaries])
    table.add_series("GEE", [summary.mean_estimate for summary in summaries])
    return table


# ----------------------------------------------------------------------
# Scale-up (Figures 9-10)
# ----------------------------------------------------------------------
def scaleup_bounded(
    row_counts: Sequence[int] | None = None,
    base_rows: int = 1000,
    z: float = 2.0,
    sample_size: int = 10_000,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figure 9: fixed D and fixed 10K-row sample while n grows."""
    divisor = config.scale_divisor()
    if row_counts is None:
        row_counts = [k * 100_000 for k in range(1, 11)]
    row_counts = [max(base_rows, n // divisor - (n // divisor) % base_rows)
                  for n in row_counts]
    sample_size = max(100, sample_size // divisor)
    runs = _trials(trials)
    if config.spawn_seeding():
        results = executor.run_sweep(
            _evaluate_point,
            [
                _EvalTask(
                    _ColumnSpec(_KIND_BOUNDED, n, z, base_rows),
                    tuple(estimators), runs, seed, size=min(sample_size, n),
                )
                for n in row_counts
            ],
            seed=seed,
        )
    else:
        rng = np.random.default_rng(seed)
        suite = make_estimators(estimators)
        results = []
        for n in row_counts:
            column = bounded_scaleup_column(n, base_rows=base_rows, z=z, rng=rng)
            results.append(
                evaluate_column(
                    column, suite, rng, size=min(sample_size, n), trials=runs
                )
            )
    table = SeriesTable(
        title=(
            f"bounded-domain scaleup (Z={z:g}, base={base_rows}, "
            f"sample={sample_size:,} rows fixed)"
        ),
        x_name="n",
        x_values=[f"{n:,}" for n in row_counts],
    )
    for name in _series_names(results, estimators):
        table.add_series(name, [result[name].mean_ratio_error for result in results])
    return table


def scaleup_unbounded(
    row_counts: Sequence[int] | None = None,
    duplication: int = 100,
    z: float = 2.0,
    fraction: float = 0.016,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Figure 10: fixed sampling fraction while n (and D) grow."""
    divisor = config.scale_divisor()
    if row_counts is None:
        row_counts = [k * 100_000 for k in range(1, 11)]
    row_counts = [
        max(duplication, n // divisor - (n // divisor) % duplication)
        for n in row_counts
    ]
    runs = _trials(trials)
    if config.spawn_seeding():
        results = executor.run_sweep(
            _evaluate_point,
            [
                _EvalTask(
                    _ColumnSpec(_KIND_UNBOUNDED, n, z, duplication),
                    tuple(estimators), runs, seed, fraction=fraction,
                )
                for n in row_counts
            ],
            seed=seed,
        )
    else:
        rng = np.random.default_rng(seed)
        suite = make_estimators(estimators)
        results = []
        for n in row_counts:
            column = unbounded_scaleup_column(
                n, duplication=duplication, z=z, rng=rng
            )
            results.append(
                evaluate_column(column, suite, rng, fraction=fraction, trials=runs)
            )
    table = SeriesTable(
        title=(
            f"unbounded-domain scaleup (Z={z:g}, dup={duplication}, "
            f"rate={fraction:.1%})"
        ),
        x_name="n",
        x_values=[f"{n:,}" for n in row_counts],
    )
    for name in _series_names(results, estimators):
        table.add_series(name, [result[name].mean_ratio_error for result in results])
    return table


# ----------------------------------------------------------------------
# Real-world surrogates (Figures 11-16)
# ----------------------------------------------------------------------
def _dataset_sweep(
    dataset_name: str, divisor: int, fractions: tuple[float, ...],
    estimators: tuple[str, ...], runs: int, seed: int,
) -> _DatasetSweep:
    """Figures 11-16's sweep: every surrogate column at every rate."""
    if not config.spawn_seeding():
        rng = np.random.default_rng(seed)
        dataset = DATASETS[dataset_name](rng, scale=1.0 / divisor)
        return _evaluate_dataset(dataset, estimators, rng, fractions, runs)
    scale_ppm = round(1_000_000 / divisor)
    points = [
        _DatasetTask(dataset_name, scale_ppm, estimators, runs, seed, f)
        for f in fractions
    ]
    outcomes = executor.run_sweep(_evaluate_dataset_point, points, seed=seed)
    if not outcomes:  # metadata only: no grid points to borrow it from
        shared = _shared_dataset(dataset_name, scale_ppm, seed)
        return _DatasetSweep(shared.name, shared.n_rows, len(shared), ())
    return replace(
        outcomes[0], points=tuple(outcome.points[0] for outcome in outcomes)
    )


def real_dataset_metric(
    dataset_name: str,
    metric: str = "error",
    fractions: Sequence[float] = config.SAMPLING_FRACTIONS,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
    dataset: Dataset | None = None,
) -> SeriesTable:
    """Figures 11-16: per-estimator mean error / stddev over all columns.

    Without ``dataset``, the surrogate named ``dataset_name`` is built at
    ``REPRO_SCALE`` and the sweep is shared with the other metric's
    exhibit: whichever of the pair runs first evaluates it, and the
    second reads its results from the per-process memo.  An explicit
    ``dataset`` always runs on the legacy sequential path (worker
    processes regenerate shared inputs from specs rather than shipping
    arrays) and never reuses or stores a sweep.
    """
    if metric not in _METRICS:
        raise InvalidParameterError(f"metric must be one of {_METRICS}, got {metric!r}")
    if dataset_name not in DATASETS and dataset is None:
        known = ", ".join(sorted(DATASETS))
        raise InvalidParameterError(
            f"unknown dataset {dataset_name!r}; known: {known}"
        )
    runs = _trials(trials)
    if dataset is not None:
        sweep = _evaluate_dataset(
            dataset, estimators, np.random.default_rng(seed), fractions, runs
        )
    else:
        sweep = _shared_sweep(
            _dataset_sweep, dataset_name, config.scale_divisor(),
            tuple(fractions), tuple(estimators), runs, seed,
        )
    label = "mean ratio error" if metric == "error" else "stddev / D"
    table = SeriesTable(
        title=(
            f"{label} over all {sweep.n_columns} columns of {sweep.dataset_label} "
            f"(n={sweep.n_rows:,})"
        ),
        x_name="rate",
        x_values=[f"{f:.1%}" for f in fractions],
    )
    for estimator in make_estimators(estimators):
        table.add_series(
            estimator.name,
            [_column_mean(point, estimator.name, metric) for point in sweep.points],
        )
    return table


# ----------------------------------------------------------------------
# Theorem 1 (Section 3's numeric comparison)
# ----------------------------------------------------------------------
def theorem1_comparison(
    n_rows: int | None = None,
    fraction: float = 0.2,
    gamma: float = 0.5,
    estimators: Sequence[str] = PAPER_ESTIMATORS,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Section 3's check: observed errors on the adversarial pair vs the bound.

    For each estimator, samples both Theorem-1 scenarios and reports the
    larger of the two mean ratio errors; no estimator can beat the
    ``sqrt((n-r)/(2r) ln(1/gamma))`` floor on both scenarios at once.
    """
    rng = np.random.default_rng(seed)
    n = n_rows if n_rows is not None else config.scaled_rows(100_000)
    r = max(1, int(round(fraction * n)))
    pair = adversarial_pair(n, r, gamma=gamma, rng=rng)
    suite = make_estimators(estimators)
    sampler = UniformWithoutReplacement()
    table = SeriesTable(
        title=(
            f"Theorem 1 adversarial pair (n={n:,}, r={r:,}, gamma={gamma}, "
            f"k={pair.k})"
        ),
        x_name="estimator",
        x_values=[e.name for e in suite],
        notes=(
            "worst = max(mean error on Scenario A, mean error on Scenario B); "
            "Theorem 1 floor applies to worst"
        ),
    )
    floor = lower_bound_error(n, r, gamma=gamma)
    runs = _trials(trials)
    errors_a, errors_b, worst = [], [], []
    for estimator in suite:
        per_scenario = []
        for data, truth in (
            (pair.scenario_a, pair.distinct_a),
            (pair.scenario_b, pair.distinct_b),
        ):
            profiles = sampler.profile_batch(data, rng, runs, size=r)
            total = 0.0
            for profile in profiles:
                value = estimator.estimate(profile, n).value
                total += ratio_error(value, truth)
            per_scenario.append(total / runs)
        errors_a.append(per_scenario[0])
        errors_b.append(per_scenario[1])
        worst.append(max(per_scenario))
    table.add_series("scenario_A", errors_a)
    table.add_series("scenario_B", errors_b)
    table.add_series("worst", worst)
    table.add_series("theorem1_floor", [floor] * len(suite))
    return table


# ----------------------------------------------------------------------
# Extension exhibit: hybrid instability (the §5.2 argument, quantified)
# ----------------------------------------------------------------------
def stability_comparison(
    n_rows: int | None = None,
    fraction: float = 0.005,
    estimators: Sequence[str] = ("AE", "GEE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A"),
    replicates: int = 120,
    trials: int | None = None,
    seed: int = 0,
) -> SeriesTable:
    """Bootstrap instability of each estimator on boundary-skew data.

    Section 5.2's critique of hybrids: near the skew-test decision
    boundary "some random samples result in the choice of one estimator
    while others cause the other to be chosen ... resulting in high
    variance".  This exhibit measures it directly: for each estimator,
    the bootstrap coefficient of variation (replicate std / estimate)
    averaged over several samples of a column whose estimated CV^2 sits
    astride HYBVAR's branch threshold (the Figure 9 workload, ~13.4 vs
    the 12.5 cut at every scale), so replicates genuinely flip branches.
    The hybrids score markedly worse than the smooth estimators.
    """
    from repro.core.uncertainty import bootstrap_estimate
    from repro.data.synthetic import bounded_scaleup_column

    rng = np.random.default_rng(seed)
    n = n_rows if n_rows is not None else config.scaled_rows(
        config.PAPER_ROWS, keep_divisible_by=1000
    )
    column = bounded_scaleup_column(n, base_rows=1000, z=2.0, rng=rng)
    suite = make_estimators(estimators)
    sampler = UniformWithoutReplacement()
    table = SeriesTable(
        title=(
            f"bootstrap instability on branch-boundary data "
            f"(bounded-scaleup Z=2, n={n:,}, rate={fraction:.1%})"
        ),
        x_name="estimator",
        x_values=[e.name for e in suite],
        notes="cv = bootstrap replicate std / estimate, averaged over samples",
    )
    from repro.core.uncertainty import bootstrap_profile

    runs = _trials(trials)
    cvs, errors, flip_rates = [], [], []
    for estimator in suite:
        cv_total, err_total = 0.0, 0.0
        flips, branch_observations = 0, 0
        for _ in range(runs):
            profile = sampler.profile(column.values, rng, fraction=fraction)
            summary = bootstrap_estimate(
                estimator, profile, n, rng, replicates=replicates
            )
            cv_total += summary.std / max(summary.estimate, 1.0)
            err_total += ratio_error(summary.estimate, column.distinct_count)
            # Branch-flip rate: how often a resampled profile routes a
            # hybrid to a different branch than the original sample did.
            original = estimator.estimate(profile, n).details.get("branch")
            if original is not None:
                for _ in range(20):
                    replicate = bootstrap_profile(profile, rng)
                    branch = estimator.estimate(replicate, n).details.get("branch")
                    branch_observations += 1
                    flips += branch != original
        cvs.append(cv_total / runs)
        errors.append(err_total / runs)
        flip_rates.append(
            flips / branch_observations if branch_observations else 0.0
        )
    table.add_series("bootstrap_cv", cvs)
    table.add_series("branch_flip_rate", flip_rates)
    table.add_series("mean_ratio_error", errors)
    return table


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, Callable[..., SeriesTable]] = {
    "fig1": lambda **kw: error_vs_sampling_rate(z=0.0, duplication=100, **kw),
    "fig2": lambda **kw: error_vs_sampling_rate(z=2.0, duplication=100, **kw),
    "fig3": lambda **kw: variance_vs_sampling_rate(z=0.0, duplication=100, **kw),
    "fig4": lambda **kw: variance_vs_sampling_rate(z=2.0, duplication=100, **kw),
    "fig5": lambda **kw: error_vs_skew(fraction=0.008, **kw),
    "fig6": lambda **kw: error_vs_skew(fraction=0.064, **kw),
    "table1": lambda **kw: gee_interval_table(z=0.0, **kw),
    "table2": lambda **kw: gee_interval_table(z=2.0, **kw),
    "fig7": lambda **kw: error_vs_duplication(fraction=0.008, **kw),
    "fig8": lambda **kw: error_vs_duplication(fraction=0.064, **kw),
    "fig9": lambda **kw: scaleup_bounded(**kw),
    "fig10": lambda **kw: scaleup_unbounded(**kw),
    "fig11": lambda **kw: real_dataset_metric("Census", metric="error", **kw),
    "fig12": lambda **kw: real_dataset_metric("Census", metric="stddev", **kw),
    "fig13": lambda **kw: real_dataset_metric("CoverType", metric="error", **kw),
    "fig14": lambda **kw: real_dataset_metric("CoverType", metric="stddev", **kw),
    "fig15": lambda **kw: real_dataset_metric("MSSales", metric="error", **kw),
    "fig16": lambda **kw: real_dataset_metric("MSSales", metric="stddev", **kw),
    "theorem1": lambda **kw: theorem1_comparison(**kw),
    "stability": lambda **kw: stability_comparison(**kw),
}


def run_experiment(exhibit_id: str, **kwargs: Any) -> SeriesTable:
    """Run one registered exhibit by id (``"fig1"`` ... ``"theorem1"``)."""
    try:
        runner = EXPERIMENTS[exhibit_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise InvalidParameterError(
            f"unknown exhibit {exhibit_id!r}; known: {known}"
        ) from None
    with OBS.span(f"exhibit.{exhibit_id}"):
        if OBS.enabled:
            OBS.add("experiments.exhibits_run")
        return runner(**kwargs)
