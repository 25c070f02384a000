"""Run manifests: the who/what/where of every produced artifact.

A figure or benchmark number is only self-describing when the producing
configuration travels with it.  The manifest snapshots everything that
influences a run — the seed, every ``REPRO_*`` knob, package and
dependency versions, the platform, and the realized worker count — into
one JSON document written alongside the results (and embedded as the
first record of the telemetry JSONL, so ``repro stats`` can show it).

The snapshot is *observational*: it records the environment as-is and
never validates or mutates it, so building a manifest can never change
what a run computes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Mapping

from repro.resilience.atomic import atomic_write

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "knob_snapshot",
    "read_manifest",
    "write_manifest",
]

#: Version of the manifest document layout.
MANIFEST_SCHEMA = 1


def knob_snapshot() -> dict[str, str]:
    """Every ``REPRO_*`` environment variable, sorted by name."""
    return {
        name: value
        for name, value in sorted(os.environ.items())
        if name.startswith("REPRO_")
    }


def _realized_workers(workers: int | None) -> int:
    if workers is not None:
        return workers
    raw = os.environ.get("REPRO_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_manifest(
    *,
    seed: int | None = None,
    workers: int | None = None,
    command: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest for the current process and configuration.

    ``workers`` is the *realized* worker count when the caller knows it
    (e.g. a sweep that clamped to the number of grid points); otherwise
    the ``REPRO_WORKERS`` knob is reported.  ``extra`` lets callers
    attach run-specific fields (an exhibit id, an output path).
    """
    from repro._version import __version__

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "package": "repro",
        "package_version": __version__,
        "recorded_at_unix": round(time.time(), 3),
        "command": command,
        "seed": seed,
        "realized_workers": _realized_workers(workers),
        "knobs": knob_snapshot(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy_version,
        "resilience": {
            "faults": os.environ.get("REPRO_FAULTS") or None,
            "fault_seed": os.environ.get("REPRO_FAULT_SEED") or None,
            "retries": os.environ.get("REPRO_RETRIES") or None,
            "task_timeout": os.environ.get("REPRO_TASK_TIMEOUT") or None,
        },
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str | Path, manifest: Mapping[str, Any]) -> Path:
    """Write a manifest as pretty-printed JSON, atomically."""
    return atomic_write(
        path, json.dumps(dict(manifest), indent=2, sort_keys=True) + "\n"
    )


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Load a manifest written by :func:`write_manifest`."""
    loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(loaded, dict):
        raise ValueError(f"manifest at {path} is not a JSON object")
    return loaded
