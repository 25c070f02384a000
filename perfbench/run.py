"""The repository benchmark: four workloads, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload estimator-atlas --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the metrics and what each layer should move.

This file and the modules it imports use nothing from the program.
Every measurement happens in a fresh interpreter (``worker.py``), so memo
caches start cold and set-up time includes the imports, as it does for a
user.  End-to-end times are reported at reference speed (``probe.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from stats import percentile

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
RESULT_MARKER = "PERFBENCH_RESULT "

WORKLOADS = ("paper-report", "estimator-atlas", "analyze-table", "lint-src")

#: Workloads that run a single pass per process (memo caches must be cold).
ONE_PASS = ("paper-report", "lint-src")

#: The program's knobs, pinned so ambient settings cannot change what is
#: measured: telemetry and runtime contracts off, the default kernel and
#: seeding, one worker, paper scale and the paper's ten trials.
PINNED_ENV = {
    "REPRO_TELEMETRY": "0",
    "REPRO_CONTRACTS": "0",
    "REPRO_KERNEL": "auto",
    "REPRO_WORKERS": "1",
    "REPRO_SCALE": "1",
    "REPRO_TRIALS": "10",
    "REPRO_SEED_MODE": "auto",
}

#: Set-up is sampled this many times per run; its median is reported.
SETUP_SAMPLES = 3

#: A run must end within this many seconds.
RUN_LIMIT = 170.0

#: End-to-end metric names and units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
}

#: What an item and an operation are on each workload.
ITEM = {
    "paper-report": ("exhibits", "report"),
    "estimator-atlas": ("estimates", "grid point"),
    "analyze-table": ("analyze_column calls", "analyze_column call"),
    "lint-src": ("source lines", "lint pass"),
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # One thread per numeric library: the machine has few cores and the
    # workloads are single-caller closed loops.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Runner:
    """Starts worker processes, one at a time, within the run's deadline."""

    def __init__(self, root: Path, args: argparse.Namespace, work_dir: Path) -> None:
        self.root = root
        self.args = args
        self.work_dir = work_dir
        self.env = child_env(root)
        self.deadline = time.monotonic() + RUN_LIMIT

    def spawn(self, role: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("run time limit reached")
        spawned_at = time.monotonic()
        command = [
            sys.executable, str(WORKER),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--role", role,
            "--spawned-at", repr(spawned_at),
            "--work-dir", str(self.work_dir),
        ]
        proc = subprocess.Popen(
            command, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True
        )
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{role} process exceeded the run time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise BenchmarkError(f"{role} process exited with code {proc.returncode}")
        for line in reversed(stdout.splitlines()):
            if line.startswith(RESULT_MARKER):
                return json.loads(line[len(RESULT_MARKER):])
        raise BenchmarkError(f"{role} process printed no result")


def run_untraced(runner: Runner, workload: str, seconds: float) -> tuple[dict, list[str]]:
    setup_only = [runner.spawn("setup") for _ in range(SETUP_SAMPLES - 1)]
    results = []
    started = time.monotonic()
    while True:
        results.append(runner.spawn("run"))
        if workload != "lint-src":
            break
        # lint-src: one cold process per pass, at least two, until
        # ``seconds`` have passed.
        if len(results) >= 2 and time.monotonic() - started >= seconds:
            break
    # Every time is converted to reference speed by its own process's probe.
    setups = [r["setup_s"] * r["speed"] for r in setup_only + results]
    passes = [w * r["speed"] for r in results for w in r["passes"]]
    # For the one-pass workloads the operation a user waits for is the pass.
    ops = passes if workload in ONE_PASS else [w * r["speed"] for r in results for w in r["ops"]]
    items = sum(r["items"] for r in results)
    raw_wall = statistics.median(w for r in results for w in r["passes"])
    speed = statistics.median(r["speed"] for r in setup_only + results)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "items_per_s": items / math.fsum(passes),
        "op_ms.p50": 1000 * percentile(ops, 50),
        "op_ms.p90": 1000 * percentile(ops, 90),
    }
    item, op = ITEM[workload]
    lines = [
        f"speed factor       {speed:.4f} (reference probe / measured probe, median of "
        f"{len(setup_only + results)} processes; raw wall_s {raw_wall:.4f} s)",
        f"setup_s            {metrics['setup_s']:.4f} s    (median of {len(setups)} cold set-ups)",
        f"wall_s             {metrics['wall_s']:.4f} s    (median of {len(passes)} passes)",
        f"peak_rss_mb        {metrics['peak_rss_mb']:.1f} MB   (median of {len(results)} processes)",
        f"items_per_s        {metrics['items_per_s']:.4f} {item}/s",
        f"op_ms.p50          {metrics['op_ms.p50']:.4f} ms per {op} (n={len(ops)})",
        f"op_ms.p90          {metrics['op_ms.p90']:.4f} ms per {op} (n={len(ops)})",
    ]
    lines += _workload_named(workload, metrics, ops, results)
    return _outcome(results, metrics, END_TO_END), lines


def _workload_named(workload: str, metrics: dict, ops: list[float], results: list[dict]) -> list[str]:
    """The same figures under the workload-specific names of the README."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    lines = []
    n = len(ops)
    if workload == "estimator-atlas":
        lines.append(f"estimates_per_s    {metrics['items_per_s']:.4f} 1/s")
        lines.append(f"point_ms.p50       {metrics['op_ms.p50']:.4f} ms (n={n})")
        lines.append(f"point_ms.p90       {metrics['op_ms.p90']:.4f} ms (n={n})")
    elif workload == "analyze-table":
        lines.append(f"columns_per_s      {metrics['items_per_s']:.4f} 1/s")
        lines.append(f"column_ms.p50      {metrics['op_ms.p50']:.4f} ms (n={n})")
        lines.append(f"column_ms.p99      {1000 * percentile(ops, 99):.4f} ms (n={n})")
    elif workload == "lint-src":
        lines.append(f"lint_lines_per_s   {metrics['items_per_s']:.4f} 1/s")
    accuracy = results[0].get("accuracy")
    if accuracy is not None:
        lines.append(f"ratio_error.GEE.mean {accuracy['GEE']:.6f} (n={accuracy['estimates'] // 2})")
        lines.append(f"ratio_error.AE.mean  {accuracy['AE']:.6f}")
        lines.append(f"coverage.GEE         {accuracy['coverage']:.6f}")
    lines.append(f"failed_ratio       {failed / attempted if attempted else 0.0:.6f} ({failed}/{attempted})")
    for r in results:
        for reason, count in r["reasons"].items():
            lines.append(f"  failure: {reason} x{count}")
    for note in sorted({note for r in results for note in r["notes"]}):
        lines.append(f"  known defect, not counted: {note}")
    return lines


def run_traced(runner: Runner, workload: str) -> tuple[dict, list[str]]:
    if workload in ONE_PASS:
        # The untraced twin of the same seed runs in its own cold process;
        # the two walls are compared at reference speed.
        baseline = runner.spawn("run")
        result = runner.spawn("trace")
        results = [baseline, result]
        untraced = statistics.median(baseline["passes"]) * baseline["speed"] / result["speed"]
    else:
        result = runner.spawn("trace")
        results = [result]
        untraced = statistics.median(result["passes"])
    metrics = dict(result["layers"])
    accuracy = result.get("accuracy") or {"GEE": 0.0, "AE": 0.0, "coverage": 0.0}
    metrics["estimate.GEE.ratio_error_mean"] = accuracy["GEE"]
    metrics["estimate.AE.ratio_error_mean"] = accuracy["AE"]
    metrics["estimate.GEE.coverage"] = accuracy["coverage"]
    metrics["trace.overhead_frac"] = statistics.median(result["traced_passes"]) / untraced - 1
    lines = [f"{name:<40} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    return _outcome(results, metrics, PER_LAYER), lines


def _outcome(results: list[dict], metrics: dict, units: dict) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed %= 2**32
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    work_dir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, args, work_dir)
    try:
        if args.trace:
            outcome, lines = run_traced(runner, args.workload)
        else:
            outcome, lines = run_untraced(runner, args.workload, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
