"""Diffing performance reports: ``repro perfdiff A B``.

Both inputs — ``BENCH_perf.json``-style reports or telemetry JSONL
runs — are flattened to ``key -> value`` metric tables
(:func:`load_metrics`); shared keys are compared and any metric that
grew past a configurable threshold is flagged (:func:`diff_metrics`).
Every tracked metric (seconds, counts, quantiles) regresses upward.
The CLI exits nonzero when regressions remain, so two artifact files
from different CI runs can gate a merge directly.

Pure functions end to end — loading, flattening, diffing, rendering all
return values; printing and exit codes belong to the CLI layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import InvalidParameterError
from repro.obs.trace import RunData, load_run

__all__ = [
    "DEFAULT_THRESHOLD",
    "MetricDelta",
    "PerfDiff",
    "diff_metrics",
    "flatten_perf_report",
    "flatten_run_metrics",
    "load_metrics",
    "render_diff",
]

#: Default fractional growth that counts as a regression.
DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True)
class MetricDelta:
    """One shared metric key compared across two reports."""

    key: str
    before: float
    after: float

    @property
    def change(self) -> float:
        """Fractional change ``(after - before) / before`` (0 when before is 0)."""
        if self.before == 0:
            return 0.0
        return (self.after - self.before) / self.before

    def regressed(self, threshold: float) -> bool:
        """Whether the metric grew by more than ``threshold``."""
        return self.change > threshold


@dataclass(frozen=True)
class PerfDiff:
    """The outcome of diffing two metric tables."""

    deltas: list[MetricDelta]
    missing: list[str]
    added: list[str]
    threshold: float

    @property
    def regressions(self) -> list[MetricDelta]:
        """The deltas past the threshold, worst first."""
        return [delta for delta in self.deltas if delta.regressed(self.threshold)]


def flatten_perf_report(data: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a ``BENCH_perf.json`` document into ``key -> value``.

    Handles both exhibit layouts: plain seconds (schema 1) and the
    ``{"seconds", "p50", "p99"}`` objects that quantile-aware runs
    write (null quantiles — telemetry was off — are skipped).
    """
    metrics: dict[str, float] = {}
    for exhibit, value in (data.get("exhibits") or {}).items():
        if isinstance(value, Mapping):
            for column in ("seconds", "p50", "p99"):
                number = value.get(column)
                if isinstance(number, (int, float)):
                    metrics[f"exhibits.{exhibit}.{column}"] = float(number)
        elif isinstance(value, (int, float)):
            metrics[f"exhibits.{exhibit}.seconds"] = float(value)
    for node, seconds in (data.get("tests") or {}).items():
        if isinstance(seconds, (int, float)):
            metrics[f"tests.{node}.seconds"] = float(seconds)
    total = data.get("total_seconds")
    if isinstance(total, (int, float)):
        metrics["total.seconds"] = float(total)
    telemetry = data.get("telemetry") or {}
    for name, entry in (telemetry.get("spans") or {}).items():
        seconds = entry.get("seconds") if isinstance(entry, Mapping) else None
        if isinstance(seconds, (int, float)):
            metrics[f"telemetry.spans.{name}.seconds"] = float(seconds)
    return metrics


def flatten_run_metrics(run: RunData) -> dict[str, float]:
    """Flatten a telemetry run into ``key -> value`` metrics.

    Spans aggregate to per-name total seconds and counts, counters pass
    through, and populated histograms contribute their p50/p99 — enough
    to diff two recorded runs of the same command.
    """
    metrics: dict[str, float] = {}
    for record in run.spans:
        name = record["name"]
        metrics[f"spans.{name}.count"] = metrics.get(f"spans.{name}.count", 0.0) + 1
        metrics[f"spans.{name}.seconds"] = round(
            metrics.get(f"spans.{name}.seconds", 0.0) + record.get("dur", 0.0), 6
        )
    for name, value in run.counters.items():
        metrics[f"counters.{name}"] = float(value)
    for name, histogram in run.histograms.items():
        if histogram.count:
            metrics[f"quantiles.{name}.p50"] = histogram.quantile(0.50)
            metrics[f"quantiles.{name}.p99"] = histogram.quantile(0.99)
    return metrics


def load_metrics(path: str | Path) -> dict[str, float]:
    """Load a metrics table from a perf report or telemetry JSONL file.

    A file whose whole text parses as one JSON object is treated as a
    ``BENCH_perf.json``-style report; anything else must parse as a
    telemetry run (JSON Lines with ``ev`` records).
    """
    source = Path(path)
    if not source.exists():
        raise InvalidParameterError(f"no perf report at {source}")
    text = source.read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, Mapping):
        if "ev" in document:
            # A single-record JSONL file still parses as one object.
            return flatten_run_metrics(load_run(source))
        return flatten_perf_report(document)
    return flatten_run_metrics(load_run(source))


def diff_metrics(
    before: Mapping[str, float],
    after: Mapping[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    min_value: float = 0.0,
) -> PerfDiff:
    """Compare two metric tables; deltas come back worst-regression first.

    ``min_value`` suppresses noise: keys where both sides sit below it
    (smoke-scale micro-timings jitter by multiples) are dropped before
    comparison.
    """
    if threshold < 0:
        raise InvalidParameterError(f"threshold must be >= 0, got {threshold:g}")
    shared = [
        key
        for key in before
        if key in after
        and not (abs(before[key]) < min_value and abs(after[key]) < min_value)
    ]
    deltas = sorted(
        (MetricDelta(key, before[key], after[key]) for key in shared),
        key=lambda delta: (-delta.change, delta.key),
    )
    return PerfDiff(
        deltas=deltas,
        missing=sorted(key for key in before if key not in after),
        added=sorted(key for key in after if key not in before),
        threshold=threshold,
    )


def _format_value(value: float) -> str:
    return f"{value:.4g}"


def render_diff(diff: PerfDiff, limit: int = 20) -> str:
    """Render a diff as an aligned table: regressions, then the biggest moves.

    Every regression is always listed; below the regression block the
    ``limit`` largest remaining moves (either direction) follow, so the
    output stays readable on thousand-key reports.  Missing/added keys
    are summarized at the end.
    """
    regressed = diff.regressions
    rest = [delta for delta in diff.deltas if not delta.regressed(diff.threshold)]
    rest = sorted(rest, key=lambda delta: (-abs(delta.change), delta.key))[:limit]
    rows: list[tuple[str, str, str, str, str]] = []
    for delta in regressed + rest:
        flag = ""
        if delta.regressed(diff.threshold):
            flag = "REGRESSED"
        elif delta.change < -diff.threshold:
            flag = "improved"
        rows.append(
            (
                delta.key,
                _format_value(delta.before),
                _format_value(delta.after),
                f"{delta.change:+.1%}",
                flag,
            )
        )
    header = ("metric", "before", "after", "change", "")
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(5)]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in [header] + rows
    ]
    hidden = len(diff.deltas) - len(regressed) - len(rest)
    if hidden > 0:
        lines.append(f"  ... {hidden} more metrics within threshold")
    if diff.missing:
        lines.append(f"missing after: {len(diff.missing)} keys")
    if diff.added:
        lines.append(f"new after: {len(diff.added)} keys")
    lines.append(
        f"{len(regressed)} regression(s) past {diff.threshold:.0%} "
        f"over {len(diff.deltas)} shared metrics"
    )
    return "\n".join(lines)

