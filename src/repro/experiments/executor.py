"""Parallel sweep execution with deterministic seed spawning.

A *sweep* maps a task function over grid points (sampling rates, skews,
row counts, ...).  The serial figure runners thread one shared generator
through every point, which makes the points order-dependent and
unparallelizable.  This module provides the alternative protocol:

* every grid point ``i`` of a sweep rooted at ``seed`` receives its own
  :class:`numpy.random.SeedSequence` built as
  ``SeedSequence(entropy=seed, spawn_key=(TASK_DOMAIN, i))`` — the
  spawn-key mechanism guarantees the child streams are independent and
  depend only on ``(seed, i)``, never on worker count, scheduling, or
  completion order;
* shared inputs (a column reused by every rate point, a surrogate
  dataset) derive their seeds from their *specification* under
  :data:`DATA_DOMAIN` via :func:`derived_rng`, so any worker that needs
  the same input regenerates the same bytes, and a per-process memo
  (:func:`memoized`) builds it at most once per worker;
* results are collected in submission order, so
  ``run_sweep(fn, points, seed=s, workers=w)`` returns byte-identical
  results for every ``w >= 1`` — one worker runs inline with no pool.

Task functions and grid points must be picklable (module-level functions
and plain data) when ``workers > 1``; the worker rebuilds each point's
generator from ``(seed, index)``, so nothing random crosses process
boundaries.

Crash safety (see ``docs/robustness.md``): ``run_sweep`` optionally runs
*supervised* — a checkpoint journal records each completed point so a
killed run resumes bit-identically
(:class:`~repro.resilience.journal.SweepJournal`), failed attempts are
retried on their original spawn-key seeds under a
:class:`~repro.resilience.supervisor.RetryPolicy` (bounded retries,
decorrelated-jitter backoff, a progress timeout with pool rebuild on
hangs or ``BrokenProcessPool``), and exhausted budgets degrade to a
:class:`~repro.resilience.supervisor.PartialSweepResult` naming the
exact missing points.  Supervision engages only when asked — a journal
or policy argument, an active :func:`sweep_context` (the ``repro
sweep`` CLI), ``REPRO_RETRIES``/``REPRO_TASK_TIMEOUT``, or a
``REPRO_FAULTS`` plan — so the default path is byte-for-byte the
historical one with no measurable overhead.
"""

from __future__ import annotations

import contextlib
import contextvars
import logging
import time
from collections.abc import Callable, Hashable, Iterable, Iterator
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple, TypeVar

import numpy as np

from repro.errors import InvalidParameterError, SweepGapError
from repro.experiments import config
from repro.obs.recorder import OBS
from repro.resilience import faults
from repro.resilience.journal import SweepJournal, sweep_config_hash, task_key
from repro.resilience.supervisor import PartialSweepResult, RetryPolicy, jitter_delays

__all__ = [
    "TASK_DOMAIN",
    "DATA_DOMAIN",
    "derived_rng",
    "task_seed",
    "run_sweep",
    "sweep_context",
    "SweepContext",
    "memoized",
    "memo_contains",
    "clear_memo",
    "memo_size",
    "memo_stats",
    "MemoStats",
]

_PointT = TypeVar("_PointT")
_ResultT = TypeVar("_ResultT")

_log = logging.getLogger(__name__)

#: Spawn-key namespace for per-grid-point trial streams.
TASK_DOMAIN = 0x7A5C
#: Spawn-key namespace for shared inputs (columns, datasets).
DATA_DOMAIN = 0xDA7A

#: Sentinel distinguishing "no result yet" from a legitimate None result.
_MISSING: Any = object()


def task_seed(seed: int, index: int, domain: int = TASK_DOMAIN) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` of sweep point ``index``."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    if index < 0:
        raise InvalidParameterError(f"index must be >= 0, got {index}")
    return np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))


def derived_rng(
    seed: int, *key: int, domain: int = DATA_DOMAIN
) -> np.random.Generator:
    """A generator on a stream derived from ``(seed, key)``.

    The stream depends only on the root seed and the integer key (all
    components must be non-negative), so two workers deriving a
    generator for the same specification consume identical bytes.
    """
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    if any(part < 0 for part in key):
        raise InvalidParameterError(f"key components must be >= 0, got {key!r}")
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key))
    return np.random.default_rng(sequence)


def _run_point(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    point: _PointT,
    seed: int,
    index: int,
) -> _ResultT:
    """Execute one grid point on its spawned stream (runs in-worker)."""
    return fn(point, np.random.default_rng(task_seed(seed, index)))


def _run_point_traced(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    point: _PointT,
    seed: int,
    index: int,
) -> tuple[_ResultT, dict[str, Any]]:
    """Worker-side traced variant: result plus the drained telemetry buffer.

    Submitted instead of :func:`_run_point` when the parent's recorder is
    enabled.  The capture is reset first — pool workers may be forked
    with the parent's buffer in memory and are re-used across points —
    so the payload contains exactly this point's spans and counters,
    rooted at its ``sweep.point`` span.
    """
    OBS.begin_capture()
    with OBS.span("sweep.point", index=index):
        result = _run_point(fn, point, seed, index)
    return result, OBS.drain()


def _run_point_supervised(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    point: _PointT,
    seed: int,
    index: int,
    attempt: int,
    traced: bool,
) -> tuple[_ResultT, dict[str, Any] | None]:
    """Worker-side supervised task: fault consult, then the point.

    The fault consult is keyed by ``(index, attempt)``, so an injected
    crash that fired on attempt 0 draws fresh on the retry and a retried
    task can succeed — on exactly the same spawn-key seed, hence with a
    bit-identical result.
    """
    faults.fault_plan().consult("sweep.point", key=index, attempt=attempt)
    if not traced:
        return _run_point(fn, point, seed, index), None
    OBS.begin_capture()
    with OBS.span("sweep.point", index=index):
        result = _run_point(fn, point, seed, index)
    return result, OBS.drain()


# ----------------------------------------------------------------------
# Sweep context: how the CLI threads a journal through exhibit runners
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepContext:
    """Ambient journal/resume/policy settings for nested ``run_sweep`` calls."""

    journal: str | Path | SweepJournal | None = None
    resume: bool = False
    policy: RetryPolicy | None = None


_SWEEP_CONTEXT: contextvars.ContextVar[SweepContext | None] = contextvars.ContextVar(
    "repro_sweep_context", default=None
)


@contextlib.contextmanager
def sweep_context(
    journal: str | Path | SweepJournal | None = None,
    resume: bool = False,
    policy: RetryPolicy | None = None,
) -> Iterator[SweepContext]:
    """Make every ``run_sweep`` inside the block supervised.

    The ``repro sweep`` command wraps :func:`run_experiment` in this so
    figure runners journal their sweeps without any signature changes;
    explicit ``run_sweep`` arguments still win over the context.
    """
    context = SweepContext(journal=journal, resume=resume, policy=policy)
    token = _SWEEP_CONTEXT.set(context)
    try:
        yield context
    finally:
        _SWEEP_CONTEXT.reset(token)


def run_sweep(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    points: Iterable[_PointT],
    *,
    seed: int,
    workers: int | None = None,
    journal: str | Path | SweepJournal | None = None,
    resume: bool = False,
    policy: RetryPolicy | None = None,
    on_gap: str = "raise",
) -> list[_ResultT] | PartialSweepResult:
    """Map ``fn`` over grid points with deterministic spawned seeds.

    ``fn(point, rng)`` is called once per point with a generator seeded
    from ``(seed, point index)``; results come back in point order.  The
    output is byte-identical for every ``workers`` value: parallelism
    changes scheduling, never streams.  ``workers`` defaults to
    ``REPRO_WORKERS``; with one worker (or one point) the sweep runs
    inline in this process.

    Supervision (off unless requested — see the module docstring):
    ``journal`` checkpoints each completed point so ``resume=True``
    skips them on the next run; ``policy`` bounds retries and hangs;
    ``on_gap`` picks what happens when retries are exhausted —
    ``"raise"`` (default) raises :class:`~repro.errors.SweepGapError`
    naming the missing points, ``"partial"`` returns the
    :class:`PartialSweepResult` itself.
    """
    todo: list[_PointT] = list(points)
    count = workers if workers is not None else config.workers()
    if count < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {count}")
    if on_gap not in ("raise", "partial"):
        raise InvalidParameterError(
            f"on_gap must be 'raise' or 'partial', got {on_gap!r}"
        )
    context = _SWEEP_CONTEXT.get()
    if journal is None and context is not None:
        journal = context.journal
        resume = resume or context.resume
        if policy is None:
            policy = context.policy
    if policy is None:
        policy = RetryPolicy.from_env()
    supervised = (
        journal is not None
        or resume
        or policy is not None
        or faults.fault_plan().enabled
    )
    if not supervised:
        return _run_fast(fn, todo, seed, count)
    return _run_supervised(
        fn, todo, seed, count, journal, resume, policy or RetryPolicy(), on_gap
    )


def _run_fast(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    todo: list[_PointT],
    seed: int,
    count: int,
) -> list[_ResultT]:
    """The historical unsupervised path (bit- and perf-frozen)."""
    inline = count == 1 or len(todo) <= 1
    realized = 1 if inline else min(count, len(todo))
    with OBS.span(
        "sweep.run", points=len(todo), workers=realized, seed=seed
    ) as sweep_span:
        OBS.gauge("sweep.realized_workers", realized)
        if inline:
            results: list[_ResultT] = []
            for i, point in enumerate(todo):
                with OBS.span("sweep.point", index=i):
                    results.append(_run_point(fn, point, seed, i))
            return results
        with ProcessPoolExecutor(max_workers=realized) as pool:
            if not OBS.enabled:
                futures = [
                    pool.submit(_run_point, fn, point, seed, i)
                    for i, point in enumerate(todo)
                ]
                return [future.result() for future in futures]
            traced = [
                pool.submit(_run_point_traced, fn, point, seed, i)
                for i, point in enumerate(todo)
            ]
            outcomes = [future.result() for future in traced]
        # Absorb worker buffers in submission order once every point is
        # in, so the merged span sequence is deterministic regardless of
        # pool scheduling.  Each payload gets its own track so trace
        # exports keep worker timelines in separate lanes (worker clocks
        # restart at begin_capture and only order within one payload).
        for track, (_, payload) in enumerate(outcomes, start=1):
            OBS.absorb(payload, parent_id=sweep_span.id, track=track)
        return [result for result, _ in outcomes]


# ----------------------------------------------------------------------
# Supervised execution: journal, retries, timeouts, pool recovery
# ----------------------------------------------------------------------
def _task_name(fn: Callable[..., Any]) -> str:
    return f"{getattr(fn, '__module__', '?')}:{getattr(fn, '__qualname__', repr(fn))}"


def _run_supervised(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    todo: list[_PointT],
    seed: int,
    count: int,
    journal: str | Path | SweepJournal | None,
    resume: bool,
    policy: RetryPolicy,
    on_gap: str,
) -> list[_ResultT] | PartialSweepResult:
    task = _task_name(fn)
    journal_obj: SweepJournal | None = None
    owns_journal = False
    completed: dict[int, Any] = {}
    if journal is not None:
        if isinstance(journal, SweepJournal):
            journal_obj = journal
        else:
            journal_obj = SweepJournal(journal)
            owns_journal = True
        completed = journal_obj.begin(
            sweep_config_hash(task, seed, todo),
            seed=seed,
            points=len(todo),
            task=task,
            resume=resume,
        )
        if OBS.enabled:
            OBS.add("resilience.journal_hits", journal_obj.hits)
            OBS.add("resilience.journal_misses", journal_obj.misses)
        if completed:
            _log.info(
                "resuming sweep from %s: %d/%d points already journaled",
                journal_obj.path,
                len(completed),
                len(todo),
            )
    results: list[Any] = [completed.get(i, _MISSING) for i in range(len(todo))]
    pending = [i for i in range(len(todo)) if i not in completed]
    errors: dict[int, str] = {}
    inline = count == 1 or len(pending) <= 1
    realized = 1 if inline else min(count, len(pending))
    try:
        with OBS.span(
            "sweep.run",
            points=len(todo),
            workers=realized,
            seed=seed,
            supervised=True,
            resumed=len(completed),
        ) as sweep_span:
            OBS.gauge("sweep.realized_workers", realized)
            if inline:
                payloads = _supervised_inline(
                    fn, todo, seed, pending, policy, results, errors, journal_obj
                )
            else:
                payloads = _supervised_pool(
                    fn, todo, seed, pending, realized, policy, results, errors,
                    journal_obj,
                )
            # Absorb recomputed points' worker buffers in index order so
            # the merged sequence is deterministic for a fixed pending set.
            for track, index in enumerate(sorted(payloads), start=1):
                OBS.absorb(payloads[index], parent_id=sweep_span.id, track=track)
    finally:
        if owns_journal and journal_obj is not None:
            journal_obj.close()
    missing = [i for i in range(len(todo)) if results[i] is _MISSING]
    if not missing:
        return results
    if OBS.enabled:
        OBS.add("resilience.gaps", len(missing))
    partial = PartialSweepResult(
        [None if value is _MISSING else value for value in results],
        missing,
        errors,
    )
    _log.error("sweep incomplete: %s", partial.describe())
    if on_gap == "raise":
        raise SweepGapError(
            f"sweep incomplete after retries — {partial.describe()}", partial
        )
    return partial


def _checkpoint(
    journal_obj: SweepJournal | None, seed: int, index: int, value: Any, attempt: int
) -> None:
    if journal_obj is not None:
        journal_obj.record(
            index, value, key=task_key(seed, TASK_DOMAIN, index), attempt=attempt
        )


def _supervised_inline(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    todo: list[_PointT],
    seed: int,
    pending: list[int],
    policy: RetryPolicy,
    results: list[Any],
    errors: dict[int, str],
    journal_obj: SweepJournal | None,
) -> dict[int, dict[str, Any]]:
    """Single-process supervised loop (no timeouts: same-process tasks)."""
    plan = faults.fault_plan()
    for index in pending:
        delays = jitter_delays(seed, index, policy)
        for attempt in range(policy.retries + 1):
            try:
                plan.consult("sweep.point", key=index, attempt=attempt)
                with OBS.span("sweep.point", index=index):
                    value = _run_point(fn, todo[index], seed, index)
            except Exception as exc:
                errors[index] = f"{type(exc).__name__}: {exc}"
                _log.warning(
                    "sweep point %d attempt %d failed: %s", index, attempt, exc
                )
                if attempt < policy.retries:
                    if OBS.enabled:
                        OBS.add("resilience.retries")
                    delay = next(delays)
                    if delay > 0:
                        time.sleep(delay)
                continue
            results[index] = value
            errors.pop(index, None)
            _checkpoint(journal_obj, seed, index, value, attempt)
            break
    return {}


def _supervised_pool(
    fn: Callable[[_PointT, np.random.Generator], _ResultT],
    todo: list[_PointT],
    seed: int,
    pending: list[int],
    realized: int,
    policy: RetryPolicy,
    results: list[Any],
    errors: dict[int, str],
    journal_obj: SweepJournal | None,
) -> dict[int, dict[str, Any]]:
    """Pooled supervised loop: retries, progress timeout, pool rebuild.

    The timeout is a *progress watchdog*: when no task completes within
    ``policy.timeout`` seconds, futures still running are presumed hung
    and charged a retry, the pool is torn down (hung workers are
    killed), and everything outstanding is resubmitted.  A worker that
    died outright surfaces as ``BrokenProcessPool`` on every in-flight
    future; each is charged one retry (the culprit is indistinguishable
    post-mortem) and the pool is rebuilt.
    """
    traced = OBS.enabled
    payloads: dict[int, dict[str, Any]] = {}
    attempts: dict[int, int] = {index: 0 for index in pending}
    outstanding = set(pending)
    delays = {index: jitter_delays(seed, index, policy) for index in pending}
    pool = ProcessPoolExecutor(max_workers=realized)
    active: dict[Future[Any], int] = {}

    def submit(index: int) -> None:
        future = pool.submit(
            _run_point_supervised, fn, todo[index], seed, index,
            attempts[index], traced,
        )
        active[future] = index

    def charge_retry(index: int, message: str) -> bool:
        """Record a failed attempt; True when the point may retry."""
        errors[index] = message
        if attempts[index] < policy.retries:
            attempts[index] += 1
            if OBS.enabled:
                OBS.add("resilience.retries")
            return True
        outstanding.discard(index)
        _log.warning("sweep point %d exhausted its retry budget: %s", index, message)
        return False

    def rebuild_pool() -> None:
        nonlocal pool
        if OBS.enabled:
            OBS.add("resilience.pool_rebuilds")
        _log.warning(
            "rebuilding worker pool (%d point(s) outstanding)", len(outstanding)
        )
        # Hung workers never return; kill them so shutdown cannot block.
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            process.kill()
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=realized)
        active.clear()
        for index in sorted(outstanding):
            submit(index)

    try:
        for index in pending:
            submit(index)
        while active:
            done, _ = wait(
                set(active), timeout=policy.timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                if OBS.enabled:
                    OBS.add("resilience.timeouts")
                for future, index in list(active.items()):
                    if future.running():
                        charge_retry(
                            index,
                            f"no progress within {policy.timeout}s (presumed hang)",
                        )
                rebuild_pool()
                continue
            broken = False
            for future in done:
                index = active.pop(future)
                try:
                    value, payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    charge_retry(index, "worker process died (BrokenProcessPool)")
                except Exception as exc:
                    _log.warning(
                        "sweep point %d attempt %d failed: %s",
                        index,
                        attempts[index],
                        exc,
                    )
                    if charge_retry(index, f"{type(exc).__name__}: {exc}"):
                        delay = next(delays[index])
                        if delay > 0:
                            time.sleep(delay)
                        submit(index)
                else:
                    results[index] = value
                    outstanding.discard(index)
                    errors.pop(index, None)
                    if payload is not None:
                        payloads[index] = payload
                    _checkpoint(journal_obj, seed, index, value, attempts[index])
            if broken:
                rebuild_pool()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return payloads


# ----------------------------------------------------------------------
# Per-process memo for shared sweep inputs
# ----------------------------------------------------------------------
_MEMO: dict[Hashable, Any] = {}
_MEMO_HITS = 0
_MEMO_MISSES = 0


class MemoStats(NamedTuple):
    """Hit/miss/size snapshot of the per-process memo."""

    hits: int
    misses: int
    size: int


def memoized(key: Hashable, build: Callable[[], _ResultT]) -> _ResultT:  # reprolint: disable=R1101 - per-process cache by contract: build is deterministic per key, so workers rebuilding independently is correct; hit/miss tallies are documented as per-process
    """Build-at-most-once cache, scoped to the current process.

    Sweep tasks use this so a worker that evaluates several grid points
    over the same column (or dataset) materializes it once.  Correctness
    never depends on hits: ``build`` must be deterministic for its key,
    which holds when its randomness comes from :func:`derived_rng` keyed
    by the same specification.  Hits and misses are tallied for
    :func:`memo_stats` and, when telemetry is on, the
    ``executor.memo_hits`` / ``executor.memo_misses`` counters — in a
    parallel sweep those counters are per-process tallies summed at
    merge, so they depend on how the pool scheduled points.
    """
    global _MEMO_HITS, _MEMO_MISSES
    try:
        value = _MEMO[key]
    except KeyError:
        _MEMO_MISSES += 1
        if OBS.enabled:
            OBS.add("executor.memo_misses")
        value = build()
        _MEMO[key] = value
        return value
    _MEMO_HITS += 1
    if OBS.enabled:
        OBS.add("executor.memo_hits")
    return value  # type: ignore[no-any-return]


def memo_contains(key: Hashable) -> bool:
    """Whether ``key`` has a live memo entry (tallies are not touched)."""
    return key in _MEMO


def clear_memo() -> None:
    """Drop every memo entry *and* its hit/miss tallies (tests, servers)."""
    global _MEMO_HITS, _MEMO_MISSES
    _MEMO.clear()
    _MEMO_HITS = 0
    _MEMO_MISSES = 0


def memo_size() -> int:
    """Number of live per-process memo entries."""
    return len(_MEMO)


def memo_stats() -> MemoStats:
    """Hits, misses, and live entries of the per-process memo."""
    return MemoStats(hits=_MEMO_HITS, misses=_MEMO_MISSES, size=len(_MEMO))
