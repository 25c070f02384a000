"""Shared helpers for the benchmark suite.

Each ``bench_*`` file regenerates one exhibit (table or figure) of the
paper's Section 6 and prints the same series the paper plots.  The
pytest-benchmark fixture times the full experiment; the assertions check
the *shape* findings the paper reports (who wins, what grows, what
collapses), not absolute numbers.

Scale knobs (see ``benchmarks/README.md``):

* ``REPRO_SCALE``  — divide all row counts (default 1 = paper scale);
* ``REPRO_TRIALS`` — samples per configuration (default 10, the paper's).

Every run of the suite also writes a wall-time report to
``BENCH_perf.json`` at the repo root (override the path with
``REPRO_BENCH_PERF``): one entry per exhibit timed through
:func:`run_exhibit`, one per test node, plus the scale/trials/workers
configuration, so CI can archive the numbers as an artifact and perf
regressions show up as diffs between runs.  When the suite runs with
``REPRO_TELEMETRY=1`` the report additionally aggregates the run's
telemetry — counter totals, per-name span time, and per-name histogram
quantiles — under a ``telemetry`` key, and every exhibit entry carries
the p50/p99 of its per-point durations (``sweep.point``, or
``harness.evaluate_column`` on the legacy serial path; ``null`` with
telemetry off) so ``repro perfdiff`` can compare distributions, not
just totals (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import config, run_experiment
from repro.experiments.report import SeriesTable
from repro.obs import OBS, LogHistogram
from repro.resilience import atomic_write

# Wall-time registries for the BENCH_perf.json report.  ``_EXHIBIT_TIMES``
# holds the experiment compute alone (timed inside run_exhibit, excluding
# rendering and assertions); ``_TEST_TIMES`` holds the pytest call phase
# of every benchmark test, which also covers exhibits driven without
# run_exhibit: the real-dataset figures pass one module-scoped dataset to
# both exhibits of a pair, an explicit-dataset call that evaluates its
# sweep afresh every time (it never reuses the registry's memoized sweep).
_EXHIBIT_TIMES: dict[str, float] = {}
_TEST_TIMES: dict[str, float] = {}

# Per-exhibit point-duration histograms, attributed by snapshot/subtract
# around each :func:`run_exhibit` call (exact integer bucket arithmetic,
# so attribution cannot drift).  ``sweep.point`` only exists on the
# spawn-seeding executor path; the legacy serial runners loop directly,
# so ``harness.evaluate_column`` is the fallback per-point span.  Empty
# when the suite runs without REPRO_TELEMETRY=1.
_POINT_SPANS = ("sweep.point", "harness.evaluate_column")
_EXHIBIT_POINT_HISTS: dict[str, LogHistogram] = {}

def run_exhibit(benchmark, exhibit_id: str, **kwargs) -> SeriesTable:
    """Run one registered exhibit under the benchmark timer and print it."""
    before = (
        {name: OBS.histogram(name) for name in _POINT_SPANS} if OBS.enabled else None
    )
    started = time.perf_counter()
    result = benchmark.pedantic(
        lambda: run_experiment(exhibit_id, **kwargs), rounds=1, iterations=1
    )
    _EXHIBIT_TIMES[exhibit_id] = (
        _EXHIBIT_TIMES.get(exhibit_id, 0.0) + time.perf_counter() - started
    )
    if before is not None:
        for name in _POINT_SPANS:
            contributed = OBS.histogram(name).subtract(before[name])
            if contributed.count:
                tally = _EXHIBIT_POINT_HISTS.setdefault(exhibit_id, LogHistogram())
                tally.merge(contributed)
                break
    print()
    print(result.render())
    return result


@pytest.fixture
def exhibit(benchmark):
    """Fixture wrapping :func:`run_exhibit` with the benchmark bound."""

    def runner(exhibit_id: str, **kwargs) -> SeriesTable:
        return run_exhibit(benchmark, exhibit_id, **kwargs)

    return runner


@pytest.fixture
def timed(benchmark):
    """Benchmark a callable, skipping calibration on quick-scale runs.

    At full scale (``REPRO_SCALE=1``) this defers to pytest-benchmark's
    adaptive timer for statistically sound micro timings.  On scaled-down
    smoke runs the calibration loop would dominate the suite's wall time
    (the workloads shrink, the minimum round count does not), so a single
    pedantic round is taken instead — the numbers are then indicative,
    not publication-grade, which is all a smoke run needs.
    """

    def runner(fn):
        if config.scale_divisor() > 1:
            return benchmark.pedantic(fn, rounds=1, iterations=1)
        return benchmark(fn)

    return runner


def series_is_nonincreasing(values, slack: float = 0.05) -> bool:
    """True when the series trends down (allowing per-step noise)."""
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def paper_scale() -> bool:
    """True when running at the paper's full row counts (REPRO_SCALE=1).

    Shape assertions that rely on asymptotics (sample coverage shrinking
    as n grows, surrogate datasets keeping enough rows per column) hold
    at full scale but not necessarily on heavily scaled-down smoke runs;
    they gate themselves on this predicate.
    """
    return config.scale_divisor() == 1


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.passed:
        _TEST_TIMES[item.nodeid] = report.duration


def _perf_report_path() -> Path:
    override = os.environ.get("REPRO_BENCH_PERF")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def _telemetry_totals() -> dict | None:
    """Counter totals and per-name span aggregates for the whole session.

    Only meaningful when the suite ran with ``REPRO_TELEMETRY=1``; the
    recorder then buffered every exhibit's spans and counters in this
    process (sweep workers merge back through ``run_sweep``).
    """
    if not OBS.enabled or OBS.is_empty:
        return None
    spans: dict[str, dict[str, float]] = {}
    for record in OBS.span_records():
        entry = spans.setdefault(record["name"], {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] = round(entry["seconds"] + record["dur"], 4)
    return {
        "counters": {k: round(v, 4) for k, v in sorted(OBS.counters().items())},
        "gauges": {k: v for k, v in sorted(OBS.gauges().items())},
        "spans": dict(sorted(spans.items())),
        "quantiles": {
            name: histogram.summary()
            for name, histogram in sorted(OBS.histograms().items())
            if histogram.count
        },
    }


def _exhibit_entries() -> dict[str, dict[str, float | None]]:
    """Per-exhibit report entries: total seconds plus per-point p50/p99.

    The quantile columns are ``null`` when the suite ran without
    telemetry (there is no histogram to attribute from).
    """
    entries: dict[str, dict[str, float | None]] = {}
    for exhibit_id, seconds in sorted(_EXHIBIT_TIMES.items()):
        histogram = _EXHIBIT_POINT_HISTS.get(exhibit_id)
        populated = histogram is not None and histogram.count > 0
        entries[exhibit_id] = {
            "seconds": round(seconds, 4),
            "p50": histogram.quantile(0.50) if populated else None,
            "p99": histogram.quantile(0.99) if populated else None,
        }
    return entries


def pytest_sessionfinish(session, exitstatus):
    if not _TEST_TIMES and not _EXHIBIT_TIMES:
        return
    report = {
        "schema": 1,
        "recorded_at_unix": round(time.time(), 3),
        "scale_divisor": config.scale_divisor(),
        "trials": config.trials(),
        "workers": config.workers(),
        "seed_mode": config.seed_mode(),
        "exhibits": _exhibit_entries(),
        "tests": {k: round(v, 4) for k, v in sorted(_TEST_TIMES.items())},
        "total_seconds": round(sum(_TEST_TIMES.values()), 4),
    }
    telemetry = _telemetry_totals()
    if telemetry is not None:
        report["telemetry"] = telemetry
    atomic_write(_perf_report_path(), json.dumps(report, indent=2) + "\n")
