"""repro.obs — zero-dependency telemetry for the reproduction stack.

The subsystem has three parts (full reference: ``docs/observability.md``):

* :mod:`repro.obs.recorder` — the per-process recorder :data:`OBS` with
  nestable wall-time spans, counters/gauges, a JSONL sink, and the
  drain/absorb protocol that merges worker-process buffers into a
  parent run deterministically.  Disabled (the default without
  ``REPRO_TELEMETRY``), its hot-path cost is one attribute check.
* :mod:`repro.obs.manifest` — the per-run manifest (seed, ``REPRO_*``
  knob snapshot, versions, platform, realized worker count) written
  alongside results.
* :mod:`repro.obs.histogram` — fixed log-bucket streaming histograms:
  exact integer bucket counts, associative merge, deterministic
  p50/p90/p95/p99 regardless of worker count or merge order.
* :mod:`repro.obs.trace` — offline readers powering ``repro trace``
  (span tree with self/total times) and ``repro stats`` (counters,
  gauges, histogram quantiles, manifest).
* :mod:`repro.obs.export` — Chrome trace-event JSON
  (``repro trace --chrome``) and folded flamegraph stacks
  (``repro trace --flame``) from the same run files.
* :mod:`repro.obs.perfdiff` — ``repro perfdiff``: diff two perf
  reports or telemetry runs and flag metrics that grew past a threshold.

Instrumented call sites guard with ``if OBS.enabled:`` (counters in hot
loops) or call ``OBS.span(...)`` (which no-ops when disabled); telemetry
never reads a random generator, so recorded runs are bit-identical to
unrecorded ones — including with ``REPRO_TELEMETRY_MEM=1`` memory
tracking, which only consults :mod:`tracemalloc`.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    folded_stacks,
    write_chrome_trace,
    write_folded,
)
from repro.obs.histogram import (
    BUCKETS_PER_DECADE,
    SUMMARY_QUANTILES,
    LogHistogram,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    knob_snapshot,
    read_manifest,
    write_manifest,
)
from repro.obs.perfdiff import (
    DEFAULT_THRESHOLD,
    MetricDelta,
    PerfDiff,
    diff_metrics,
    flatten_perf_report,
    flatten_run_metrics,
    load_metrics,
    render_diff,
)
from repro.obs.recorder import (
    ENV_DIR,
    ENV_FLAG,
    ENV_MEM,
    OBS,
    Telemetry,
    env_enabled,
    env_mem_enabled,
    telemetry_dir,
)
from repro.obs.trace import (
    RunData,
    SpanNode,
    attributed_fraction,
    build_tree,
    load_run,
    render_stats,
    render_trace,
)

__all__ = [
    "BUCKETS_PER_DECADE",
    "DEFAULT_THRESHOLD",
    "ENV_DIR",
    "ENV_FLAG",
    "ENV_MEM",
    "LogHistogram",
    "MANIFEST_SCHEMA",
    "MetricDelta",
    "OBS",
    "PerfDiff",
    "RunData",
    "SUMMARY_QUANTILES",
    "SpanNode",
    "Telemetry",
    "attributed_fraction",
    "build_manifest",
    "build_tree",
    "chrome_trace",
    "chrome_trace_events",
    "diff_metrics",
    "env_enabled",
    "env_mem_enabled",
    "flatten_perf_report",
    "flatten_run_metrics",
    "folded_stacks",
    "knob_snapshot",
    "load_metrics",
    "load_run",
    "read_manifest",
    "render_diff",
    "render_stats",
    "render_trace",
    "telemetry_dir",
    "write_chrome_trace",
    "write_folded",
    "write_manifest",
]
