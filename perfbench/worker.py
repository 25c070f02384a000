"""One fresh interpreter of a benchmark run; started by ``run.py``.

Roles:

* ``setup`` - set up (imports, then inputs) and report the set-up time;
* ``run``   - set up, then run untraced passes for ``--seconds``;
* ``trace`` - set up under the span recorder, then run traced passes.
  Workloads that keep several passes in one process alternate untraced
  and traced passes, so the tracing overhead is measured on the same
  inputs in the same process.

Set-up time runs from the moment the parent started this process
(``--spawned-at``, on the system-wide monotonic clock) until the inputs
are in memory.  Every time reported is raw program time, with the speed
probe's own time taken out; ``speed`` is the factor that converts it to
reference speed (see ``probe.py``).  The result is one JSON line on
stdout, after a marker.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import layers
from probe import SpeedProbe
from spans import Recorder

RESULT_MARKER = "PERFBENCH_RESULT "


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    return parser.parse_args(argv)


def _need_more(workload, untraced, traced, tracing: bool, started: float, seconds: float) -> bool:
    """Closed loop: passes follow each other until ``seconds`` have passed."""
    if workload.one_pass_per_process:
        return not (traced if tracing else untraced)
    if not untraced or (tracing and not traced) or not workload.enough(untraced):
        return True
    return time.perf_counter() - started < seconds


def main(argv: list[str]) -> int:
    args = _parse(argv)
    probe = SpeedProbe()
    probe.start()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    workload.clock = probe.clock
    workload.import_entry_points()
    recorder = patch = None
    setup_wall = 0.0
    if args.role == "trace":
        recorder = Recorder(probe.clock)
        patch = layers.build_patch(recorder, workloads)
        patch.apply()
        started = probe.clock()
        workload.build_inputs()
        setup_wall = probe.clock() - started
        patch.restore()
    else:
        workload.build_inputs()
    setup_s = time.monotonic() - args.spawned_at - probe.total
    out: dict = {"setup_s": setup_s}
    if args.role != "setup":
        out.update(_run_passes(args, workload, recorder, patch, setup_wall))
    probe.stop()
    out["speed"] = probe.factor()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(RESULT_MARKER + json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


def _run_passes(args, workload, recorder, patch, setup_wall: float) -> dict:
    setup_agg = recorder.take() if recorder is not None else None
    untraced, traced = [], []
    tally = workload.setup_tally
    accuracy = None
    started = time.perf_counter()
    index = 0
    while _need_more(workload, untraced, traced, recorder is not None, started, args.seconds):
        # In a trace process, passes alternate untraced/traced (a one-pass
        # workload makes just the traced one; its untraced twin is another
        # process).
        tracing = recorder is not None and (workload.one_pass_per_process or index % 2 == 1)
        if tracing:
            patch.apply()
            workload.recorder = recorder
        try:
            result = workload.run_pass(index)
        finally:
            if tracing:
                patch.restore()
                workload.recorder = None
        (traced if tracing else untraced).append(result)
        tally.merge(result.tally)
        if result.accuracy is not None:
            accuracy = result.accuracy if accuracy is None else accuracy.merge(result.accuracy)
        index += 1
    out = {
        "passes": [r.wall for r in untraced],
        "ops": [op for r in untraced for op in r.ops],
        "items": sum(r.items for r in untraced),
        "traced_passes": [r.wall for r in traced],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": dict(tally.reasons.most_common(10)),
        "notes": sorted({note for r in untraced + traced for note in r.notes}),
        "accuracy": None
        if accuracy is None
        else {
            "GEE": accuracy.mean_error("GEE"),
            "AE": accuracy.mean_error("AE"),
            "coverage": accuracy.coverage,
            "estimates": sum(len(v) for v in accuracy.errors.values()),
        },
    }
    if recorder is not None:
        passes = recorder.take().scaled(1.0 / len(traced))
        wall = setup_wall + sum(r.wall for r in traced) / len(traced)
        out["layers"] = layers.layer_metrics(setup_agg.plus(passes), wall)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
