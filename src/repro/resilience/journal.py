"""The crash-safe sweep checkpoint journal.

A supervised sweep (:func:`repro.experiments.executor.run_sweep` with a
journal, or ``repro sweep``) appends one JSONL record per completed grid
point, so a killed run can resume and skip everything already computed.
Because every point's random stream depends only on ``(seed, index)``
(the SeedSequence spawn-key protocol), a resumed sweep recomputes the
missing points on exactly the streams the uninterrupted run would have
used — the merged result is bit-identical.

File layout (one JSON object per line)::

    {"ev": "journal", "schema": 2, "sweep": "<config hash>",
     "seed": 0, "points": 6, "task": "repro.experiments.figures:_evaluate_point"}
    {"ev": "point", "index": 0, "key": "0:0x7a5c:0", "attempt": 0,
     "result": "<base64 pickle>", "crc": 1234567}
    ...

Durability protocol:

* the header is created with an atomic write-temp-then-rename
  (:func:`~repro.resilience.atomic.atomic_write`), so a half-created
  journal never exists on disk;
* each point record is appended, flushed, and **fsync'd** before the
  result is considered checkpointed;
* recovery tolerates a torn tail: a truncated or corrupt trailing line
  (the crash window of an in-flight append) is discarded, and every
  intact record before it is recovered.  Each record carries a CRC-32 of
  its payload, so corruption anywhere — not just the tail — demotes that
  record to "missing" instead of resurrecting garbage;
* duplicate records for one index are last-write-wins (a retried point
  that was journaled twice keeps its most recent result);
* a journal whose ``schema`` is from a different layout generation, or
  whose ``sweep`` hash does not match the sweep being resumed, is
  **refused** (:class:`~repro.errors.ResilienceError`) rather than
  silently mixed into foreign results.

Results are arbitrary picklable objects (``EvaluationResult`` trees,
tuples, floats); they are stored as base64-encoded pickles.  Journals
are local scratch state produced and consumed by the same user — do not
resume from a journal you did not write.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import pickle
import zlib
from pathlib import Path
from typing import IO, Any, Sequence

from repro.errors import ResilienceError
from repro.resilience.atomic import atomic_write

__all__ = ["JOURNAL_SCHEMA", "SweepJournal", "sweep_config_hash", "task_key"]

#: Version of the journal line layout; bumped on incompatible changes.
#: 2: the line layout is unchanged, but sweep points on Columns now draw
#: their profiles from class counts, a different random stream; the
#: sweep hash covers the config, not the code, so a schema-1 journal
#: would otherwise resume by merging old-stream points with new ones.
JOURNAL_SCHEMA = 2

_log = logging.getLogger(__name__)


def sweep_config_hash(task: str, seed: int, points: Sequence[Any]) -> str:
    """Stable identity of one sweep: task name, root seed, and grid.

    Grid points are hashed through ``repr`` — the sweep task dataclasses
    (plain data by the executor's pickling contract) have deterministic
    reprs, so the same configuration always maps to the same hash and a
    journal can refuse to resume a *different* sweep.
    """
    digest = hashlib.sha256()
    digest.update(f"{task}|{seed}|{len(points)}|".encode())
    digest.update(repr(list(points)).encode())
    return digest.hexdigest()[:16]


def task_key(seed: int, domain: int, index: int) -> str:
    """Render a task's SeedSequence spawn key as the journal record key."""
    return f"{seed}:{domain:#x}:{index}"


def _encode_result(result: Any) -> str:
    return base64.b64encode(pickle.dumps(result, protocol=4)).decode("ascii")


def _decode_result(payload: str) -> Any:
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


class SweepJournal:
    """Append-only checkpoint journal for one sweep (see module docs).

    Usage::

        journal = SweepJournal("sweeps/fig5.journal.jsonl")
        completed = journal.begin(config_hash, seed=0, points=6, resume=True)
        ... run only the indices missing from ``completed`` ...
        journal.record(index, result, key=..., attempt=...)
        journal.close()
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None
        self._header: dict[str, Any] | None = None
        self.hits = 0
        self.misses = 0

    # -- lifecycle -----------------------------------------------------
    def begin(
        self,
        config_hash: str,
        *,
        seed: int,
        points: int,
        task: str = "",
        resume: bool = False,
    ) -> dict[int, Any]:
        """Open the journal and return the already-completed results.

        With ``resume=True`` and an existing journal, the header is
        validated (schema and sweep hash must match) and every intact
        point record is decoded into the returned ``{index: result}``
        map.  Without ``resume`` — or when no journal exists yet — a
        fresh journal replaces whatever was there, via an atomic header
        write.  The journal is left open for appending either way.
        """
        completed: dict[int, Any] = {}
        if resume and self.path.exists():
            self._header, completed = self._load(config_hash)
        else:
            self._header = {
                "ev": "journal",
                "schema": JOURNAL_SCHEMA,
                "sweep": config_hash,
                "seed": seed,
                "points": points,
                "task": task,
            }
            atomic_write(self.path, json.dumps(self._header, sort_keys=True) + "\n")
        self._handle = open(self.path, "a", encoding="utf-8")
        self.hits = len(completed)
        self.misses = points - len(completed)
        return completed

    def close(self) -> None:
        """Close the append handle (safe to call twice)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def journal_id(self) -> str | None:
        """The sweep hash this journal is bound to (None before begin)."""
        return self._header["sweep"] if self._header else None

    # -- recording -----------------------------------------------------
    def record(
        self, index: int, result: Any, *, key: str = "", attempt: int = 0
    ) -> None:
        """Append one completed point; fsync'd before returning.

        After this returns, the result survives SIGKILL: the line is on
        disk and recovery will find it intact (or, if the crash landed
        mid-append, discard the torn tail and recompute just this point).
        """
        if self._handle is None:
            raise ResilienceError("journal is not open; call begin() first")
        from repro.resilience.faults import fault_plan

        fault_plan().consult("journal.write", key=index)
        payload = _encode_result(result)
        record = {
            "ev": "point",
            "index": index,
            "key": key,
            "attempt": attempt,
            "result": payload,
            "crc": zlib.crc32(payload.encode("ascii")),
        }
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- recovery ------------------------------------------------------
    def _load(self, config_hash: str) -> tuple[dict[str, Any], dict[int, Any]]:
        raw = self.path.read_text(encoding="utf-8")
        lines = raw.split("\n")
        if not lines or not lines[0].strip():
            raise ResilienceError(f"journal {self.path} is empty; cannot resume")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ResilienceError(
                f"journal {self.path} has an unreadable header: {exc}"
            ) from exc
        if header.get("ev") != "journal":
            raise ResilienceError(
                f"journal {self.path} does not start with a journal header"
            )
        schema = header.get("schema")
        if schema != JOURNAL_SCHEMA:
            raise ResilienceError(
                f"journal {self.path} has schema {schema!r}; this build "
                f"writes schema {JOURNAL_SCHEMA} — refusing to resume"
            )
        if header.get("sweep") != config_hash:
            raise ResilienceError(
                f"journal {self.path} belongs to sweep {header.get('sweep')!r}, "
                f"not {config_hash!r}; refusing to resume a different "
                "configuration (delete the journal or drop --resume)"
            )
        completed: dict[int, Any] = {}
        dropped = 0
        for position, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            record = self._parse_point(line, position)
            if record is None:
                dropped += 1
                continue
            completed[record[0]] = record[1]
        if dropped:
            _log.warning(
                "journal %s: dropped %d corrupt record(s); the affected "
                "points will be recomputed",
                self.path,
                dropped,
            )
        return header, completed

    def _parse_point(self, line: str, position: int) -> tuple[int, Any] | None:
        """Decode one point line, or None when it is torn/corrupt."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            _log.debug("journal %s line %d: torn or non-JSON", self.path, position)
            return None
        if record.get("ev") != "point":
            return None
        payload = record.get("result")
        index = record.get("index")
        if not isinstance(payload, str) or not isinstance(index, int):
            return None
        if zlib.crc32(payload.encode("ascii")) != record.get("crc"):
            _log.debug("journal %s line %d: CRC mismatch", self.path, position)
            return None
        try:
            return index, _decode_result(payload)
        except Exception:
            # A corrupt pickle payload must demote the record to
            # "missing" (recompute the point), never crash recovery; the
            # log line keeps the drop visible (R901-clean because of it).
            _log.debug("journal %s line %d: undecodable payload", self.path, position)
            return None
