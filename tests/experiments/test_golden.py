"""Every exhibit's CSV, byte for byte, against committed smoke-scale goldens.

``golden/`` holds all 20 exhibit tables at ``REPRO_SCALE=20``,
``REPRO_TRIALS=3``, seed 0 under the default (legacy) seeding protocol;
``golden/spawn/`` holds Figures 11-12 under ``REPRO_SEED_MODE=spawn``.
The error and stddev exhibits of a pair share one memoized sweep, so
each exhibit is checked both in ``repro report`` order (the second of
a pair reads the first one's results) and cold (it evaluates alone).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, executor, run_experiment

GOLDEN = Path(__file__).parent / "golden"

#: Exhibits that read a sweep the report evaluated for an earlier exhibit.
REUSING = ("fig3", "fig4", "fig12", "fig14", "fig16")


@pytest.fixture
def smoke_env(monkeypatch: pytest.MonkeyPatch) -> pytest.MonkeyPatch:
    for name in ("REPRO_SEED_MODE", "REPRO_WORKERS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_SCALE", "20")
    monkeypatch.setenv("REPRO_TRIALS", "3")
    return monkeypatch


def _assert_matches(exhibit_id: str, out: Path, golden: Path = GOLDEN) -> None:
    path = out / f"{exhibit_id}.csv"
    run_experiment(exhibit_id, seed=0).write_csv(path)
    assert path.read_bytes() == (golden / f"{exhibit_id}.csv").read_bytes(), exhibit_id


def test_goldens_cover_the_registry():
    assert {p.stem for p in GOLDEN.glob("*.csv")} == set(EXPERIMENTS)


def test_report_order_matches_goldens(smoke_env, tmp_path):
    for exhibit_id in sorted(EXPERIMENTS):
        _assert_matches(exhibit_id, tmp_path)


@pytest.mark.parametrize("exhibit_id", REUSING)
def test_cold_exhibit_matches_golden(smoke_env, tmp_path, exhibit_id):
    executor.clear_memo()
    _assert_matches(exhibit_id, tmp_path)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_spawn_mode_matches_goldens(smoke_env, tmp_path, workers):
    smoke_env.setenv("REPRO_SEED_MODE", "spawn")
    smoke_env.setenv("REPRO_WORKERS", workers)
    for exhibit_id in ("fig11", "fig12"):
        _assert_matches(exhibit_id, tmp_path, GOLDEN / "spawn")
