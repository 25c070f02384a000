"""The four workloads: what each runs, how it is timed, how it is checked.

Every workload is one caller in a closed loop: the next call starts when
the previous one returns.  Inputs come from the workload seed alone.
A *pass* is the unit the benchmark repeats; a pass's wall time is the sum
of its timed operations, so the benchmark's own checks (run after each
operation, outside its timing) never count as program time.

Entry points are always called through their module (``figures.run_experiment``,
never a name imported here), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from stats import Accuracy, Tally, check_estimate, samples_needed

__all__ = ["WORKLOADS", "PassResult", "write_exhibit"]

#: The paper's protocol: ten trials per configuration.
TRIALS = 10


@dataclass
class PassResult:
    """What one pass did: operation times, work items, checks, accuracy."""

    ops: list[float] = field(default_factory=list)
    items: int = 0
    tally: Tally = field(default_factory=Tally)
    accuracy: Accuracy | None = None
    #: Defects seen but not counted as failures, printed with the result.
    notes: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return math.fsum(self.ops)


class Workload:
    """Base: set-up in two steps (imports, inputs), then repeated passes."""

    name = ""
    #: Memo caches must start cold, so these run one pass per process.
    one_pass_per_process = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        #: The span recorder while a traced pass runs, else ``None``.
        self.recorder: Any = None
        #: Times the program; the worker swaps in the probe-free clock.
        self.clock = time.perf_counter
        self.setup_tally = Tally()

    def import_entry_points(self) -> None:
        raise NotImplementedError

    def build_inputs(self) -> None:
        """Generate the workload's inputs from its seed (part of set-up)."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def enough(self, results: list[PassResult]) -> bool:
        """Whether the passes so far hold the samples the metrics need."""
        return bool(results)


# ----------------------------------------------------------------------
# paper-report
# ----------------------------------------------------------------------
_PAPER = ("GEE", "AE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A")

#: Registered grid of each exhibit: number of x values and series names.
SHAPES: dict[str, tuple[int, tuple[str, ...]]] = {
    **{f"fig{i}": (6, _PAPER) for i in (1, 2, 3, 4, 11, 12, 13, 14, 15, 16)},
    "fig5": (5, _PAPER),
    "fig6": (5, _PAPER),
    "fig7": (4, _PAPER),
    "fig8": (4, _PAPER),
    "fig9": (10, _PAPER),
    "fig10": (10, _PAPER),
    "table1": (6, ("ACTUAL", "LOWER", "UPPER", "GEE")),
    "table2": (6, ("ACTUAL", "LOWER", "UPPER", "GEE")),
    "theorem1": (6, ("scenario_A", "scenario_B", "worst", "theorem1_floor")),
    "stability": (6, ("bootstrap_cv", "branch_flip_rate", "mean_ratio_error")),
}

#: Series whose cells are ratio errors, which are >= 1 by definition.
RATIO_SERIES: dict[str, tuple[str, ...]] = {
    **{
        exhibit: _PAPER
        for exhibit in (
            "fig1", "fig2", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig13", "fig15",
        )
    },
    "theorem1": ("scenario_A", "scenario_B", "worst"),
    "stability": ("mean_ratio_error",),
}


def write_exhibit(table: Any, out_dir: Path, exhibit_id: str) -> str:
    """Write one table as ``repro report`` does: CSV, then rendered text."""
    from repro.resilience import atomic

    table.write_csv(out_dir / f"{exhibit_id}.csv")
    rendered = table.render()
    atomic.atomic_write(out_dir / f"{exhibit_id}.txt", rendered)
    return rendered


def _same_cell(text: str, value: float) -> bool:
    try:
        parsed = float(text)
    except ValueError:
        return False
    return parsed == value or (math.isnan(parsed) and math.isnan(value))


def read_csv_rows(text: str, width: int) -> list[tuple[str, list[str]]]:
    """Split ``SeriesTable.to_csv`` text into ``(label, cells)`` rows.

    The writer joins ``str(x)`` and one ``repr`` per series with commas
    and quotes nothing.  A float's ``repr`` never holds a comma, so the
    last ``width`` fields of a line are the series cells and the rest,
    rejoined, is the label, even when the label holds a comma (fig9 and
    fig10 print row counts as ``100,000``).
    """
    rows = []
    for line in text.splitlines():
        fields = line.split(",")
        if len(fields) <= width:
            rows.append((line, []))
        else:
            rows.append((",".join(fields[:-width]), fields[-width:]))
    return rows


def check_table(exhibit_id: str, table: Any, csv_path: Path) -> list[str]:
    """Grid shape, finite cells, ratio errors >= 1, CSV reads back equal."""
    problems = []
    x_count, series = SHAPES[exhibit_id]
    if len(table.x_values) != x_count or tuple(table.series) != series:
        problems.append("grid shape differs from the registered one")
        return problems
    for name, values in table.series.items():
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite cell in {name}")
        if name in RATIO_SERIES.get(exhibit_id, ()) and min(values) < 1:
            problems.append(f"ratio error below 1 in {name}")
    header, *rows = read_csv_rows(csv_path.read_text(), len(series))
    if header != (table.x_name, list(series)) or len(rows) != x_count:
        problems.append("CSV header or row count differs")
    elif not all(
        label == str(x)
        and len(cells) == len(series)
        and all(_same_cell(cell, table.series[s][i]) for s, cell in zip(series, cells))
        for i, (x, (label, cells)) in enumerate(zip(table.x_values, rows))
    ):
        problems.append("CSV does not read back as the table")
    return problems


class PaperReport(Workload):
    """All 20 exhibits at paper scale, written as ``repro report`` writes them.

    Chosen because it is the end-to-end run users make: sampling and data
    generation dominate it, estimators take about a sixth.
    """

    name = "paper-report"
    one_pass_per_process = True

    def import_entry_points(self) -> None:
        from repro.experiments import figures
        from repro.resilience import atomic

        self.figures = figures
        self.atomic = atomic

    def run_pass(self, index: int) -> PassResult:
        out_dir = self.work_dir / f"report-{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        result = PassResult()
        tables: dict[str, Any] = {}
        errors: dict[str, str] = {}
        summary = []
        for exhibit_id in sorted(self.figures.EXPERIMENTS):
            started = self.clock()
            try:
                table = self.figures.run_experiment(exhibit_id, seed=self.seed)
                rendered = write_exhibit(table, out_dir, exhibit_id)
            except Exception as exc:  # a failed exhibit is counted, not fatal
                errors[exhibit_id] = f"{type(exc).__name__}: {exc}"
            else:
                tables[exhibit_id] = table
                summary.append(f"### {exhibit_id}\n{rendered}")
            result.ops.append(self.clock() - started)
        started = self.clock()
        self.atomic.atomic_write(out_dir / "REPORT.txt", "\n".join(summary))
        result.ops[-1] += self.clock() - started
        for exhibit_id in sorted(self.figures.EXPERIMENTS):
            if exhibit_id in errors:
                problems = [f"{exhibit_id}: {errors[exhibit_id]}"]
            elif exhibit_id not in SHAPES:
                problems = [f"{exhibit_id}: not a registered exhibit"]
            else:
                table = tables[exhibit_id]
                problems = [
                    f"{exhibit_id}: {p}"
                    for p in check_table(exhibit_id, table, out_dir / f"{exhibit_id}.csv")
                ]
                if any("," in str(x) for x in table.x_values):
                    result.notes.append(
                        f"{exhibit_id}: x labels hold commas that to_csv leaves unquoted"
                    )
            result.tally.record(problems)
        result.items = len(result.ops)
        return result


# ----------------------------------------------------------------------
# estimator-atlas
# ----------------------------------------------------------------------
class EstimatorAtlas(Workload):
    """Every registered estimator over a grid of 10^5-row Zipf columns.

    Chosen so the estimators layer dominates: skew z in 0..4 and
    duplication 1..1000 put D/n between about 10^-5 and 1, at the paper's
    six rates with ten trials each.  The 14 vector kernels and the 7
    scalar-fallback estimators both run, so a change to either shows.
    """

    name = "estimator-atlas"
    ROWS = 100_000
    SKEWS = (0.0, 1.0, 2.0, 3.0, 4.0)
    DUPLICATIONS = (1, 10, 100, 1000)
    TAIL = 90.0

    def import_entry_points(self) -> None:
        from repro.core import registry
        from repro.data import zipf
        from repro.experiments import config
        from repro.frequency import batch
        from repro.sampling import schemes

        self.registry = registry
        self.zipf = zipf
        self.fractions = config.SAMPLING_FRACTIONS
        self.batch = batch
        self.schemes = schemes

    def build_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.columns = [
            self.zipf.zipf_column(self.ROWS, z, duplication=dup, rng=rng)
            for z in self.SKEWS
            for dup in self.DUPLICATIONS
        ]
        self.truths = [column.distinct_count for column in self.columns]
        self.estimators = self.registry.make_estimators(self.registry.ESTIMATOR_FACTORIES)
        self.sampler = self.schemes.UniformWithoutReplacement()
        self.rng = np.random.default_rng([self.seed, 1])

    def run_pass(self, index: int) -> PassResult:
        result = PassResult(accuracy=Accuracy() if index == 0 else None)
        for column, truth in zip(self.columns, self.truths):
            n = column.n_rows
            for fraction in self.fractions:
                started = self.clock()
                outcomes: list[Any] = []
                try:
                    profiles = self.sampler.profile_batch(
                        column.values, self.rng, TRIALS, fraction=fraction
                    )
                    packed = self.batch.FrequencyProfileBatch.from_profiles(profiles)
                except Exception as exc:  # the whole grid point is lost
                    profiles, outcomes = [], [exc] * len(self.estimators)
                else:
                    for estimator in self.estimators:
                        try:
                            outcomes.append(estimator.estimate_batch(packed, n))
                        except Exception as exc:  # counted against its profiles
                            outcomes.append(exc)
                result.ops.append(self.clock() - started)
                result.items += TRIALS * len(self.estimators)
                for estimator, outcome in zip(self.estimators, outcomes):
                    check_outcomes(
                        estimator.name, outcome, profiles, n, truth, result
                    )
        return result

    def enough(self, results: list[PassResult]) -> bool:
        return sum(len(r.ops) for r in results) >= samples_needed(self.TAIL)


def check_outcomes(
    name: str, outcome: Any, profiles: list[Any], n: int, truth: int, result: PassResult
) -> None:
    """Count one estimator's batch: an exception fails all its trials."""
    if isinstance(outcome, Exception) or len(outcome) != TRIALS:
        problem = (
            f"{name}: {type(outcome).__name__}"
            if isinstance(outcome, Exception)
            else f"{name}: {len(outcome)} estimates for {TRIALS} trials"
        )
        result.tally.record([problem], weight=TRIALS)
        return
    for profile, estimate in zip(profiles, outcome):
        result.tally.record(check_estimate(estimate, name, profile.distinct, n))
        if result.accuracy is not None and name in ("GEE", "AE"):
            result.accuracy.add(name, estimate, truth)


# ----------------------------------------------------------------------
# analyze-table
# ----------------------------------------------------------------------
class AnalyzeTable(Workload):
    """ANALYZE every column of the three full-size surrogate tables.

    Chosen because it reaches sampling and estimation the way a query
    optimizer refreshing statistics does: one 1% sample and one scalar
    estimate per call, no batch kernels.  D runs from 2 to 1.8M, so the
    near-unique columns sit on the far side of any D-vs-r crossover.
    """

    name = "analyze-table"
    FRACTION = 0.01
    TAIL = 99.0
    #: Accuracy is taken over the first rounds only, so it repeats
    #: exactly for a seed whatever the machine's speed (92 calls a round).
    ACCURACY_ROUNDS = 11

    def import_entry_points(self) -> None:
        from repro.core.ae import AE
        from repro.core.gee import GEE
        from repro.data import surrogates
        from repro.db import exact, table
        from repro.sampling import schemes

        self.surrogates = surrogates
        # The package re-exports a function named ``analyze`` over the module.
        self.analyze = importlib.import_module("repro.db.analyze")
        self.exact = exact
        self.table = table
        self.estimators = (GEE(), AE())
        self.replay_sampler = schemes.UniformWithoutReplacement()

    def build_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.columns = []
        for name in sorted(self.surrogates.DATASETS):
            dataset = self.surrogates.DATASETS[name](rng)
            table = self.table.Table.from_dataset(dataset)
            for column in table.column_names:
                truth = self.exact.exact_distinct_sort(table.column(column))
                expected = dataset.column(column).distinct_count
                self.setup_tally.record(
                    [] if truth == expected else [f"{column}: exact D {truth} != {expected}"]
                )
                self.columns.append((table, column, truth))
        self.rng = np.random.default_rng([self.seed, 1])

    def _sample_distinct(self, values: Any, state: dict) -> int:
        """``d`` of the sample a call drew, by replaying its random stream."""
        generator = np.random.Generator(np.random.PCG64())
        generator.bit_generator.state = state
        sample = self.replay_sampler.sample(values, generator, fraction=self.FRACTION)
        return int(np.unique(sample).size)

    def run_pass(self, index: int) -> PassResult:
        result = PassResult(
            accuracy=Accuracy() if index < self.ACCURACY_ROUNDS else None
        )
        for table, column, truth in self.columns:
            for estimator in self.estimators:
                state = self.rng.bit_generator.state
                started = self.clock()
                try:
                    stats = self.analyze.analyze_column(
                        table, column, self.rng, estimator=estimator
                    )
                except Exception as exc:  # counted as a failed call
                    stats = exc
                result.ops.append(self.clock() - started)
                result.items += 1
                if isinstance(stats, Exception):
                    result.tally.record([f"{estimator.name}: {type(stats).__name__}"])
                    continue
                estimate = SimpleNamespace(
                    value=stats.distinct_estimate, interval=stats.interval
                )
                d = self._sample_distinct(table.column(column), state)
                result.tally.record(check_estimate(estimate, estimator.name, d, table.n_rows))
                if result.accuracy is not None:
                    result.accuracy.add(estimator.name, estimate, truth)
        return result

    def enough(self, results: list[PassResult]) -> bool:
        calls = sum(len(r.ops) for r in results)
        return calls >= samples_needed(self.TAIL) and len(results) >= self.ACCURACY_ROUNDS


# ----------------------------------------------------------------------
# lint-src
# ----------------------------------------------------------------------
class LintSrc(Workload):
    """``lint_paths(["src"], prove=True)``, what ``make prove`` runs.

    Chosen because it is the only workload reaching ``repro.analysis``.
    Its input is the repository's own ``src/``, so throughput is per
    source line: code added elsewhere does not read as a lint slowdown.
    """

    name = "lint-src"
    one_pass_per_process = True
    PATHS = ["src"]

    def import_entry_points(self) -> None:
        from repro.analysis import runner

        self.runner = runner

    def build_inputs(self) -> None:
        self.files = self.runner.collect_files(self.PATHS)
        self.lines = sum(len(Path(f).read_text().splitlines()) for f in self.files)

    def run_pass(self, index: int) -> PassResult:
        result = PassResult()
        started = self.clock()
        try:
            report = self.runner.lint_paths(self.PATHS, prove=True)
        except Exception as exc:  # every file counts as failed
            report = exc
        result.ops.append(self.clock() - started)
        result.items = self.lines
        if self.recorder is not None:
            self.recorder.count("analysis.lines", self.lines)
        if isinstance(report, Exception):
            result.tally.record([f"lint: {type(report).__name__}"], weight=len(self.files))
            return result
        bad: dict[str, list[str]] = {}
        for finding in report.findings:
            if finding.code == "P001":
                bad.setdefault(finding.path, []).append("parse error")
        for path, verdict in report.contract_verdicts:
            if verdict.verdict == "violated":
                bad.setdefault(path, []).append("violated clause")
        for path in self.files:
            result.tally.record(bad.get(path, []))
        if report.files_scanned != len(self.files):
            result.tally.record(["files scanned differ from files collected"])
        return result


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperReport, EstimatorAtlas, AnalyzeTable, LintSrc)
}
