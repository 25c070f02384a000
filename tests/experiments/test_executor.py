"""Tests for the parallel sweep executor and the dual seeding protocol.

Two invariants anchor this file:

* the **legacy** protocol (the default on one worker) must keep
  producing the exact numbers of earlier releases — frozen here as
  literals;
* the **spawn** protocol must produce byte-identical results for every
  worker count, because each grid point's stream depends only on
  ``(seed, index)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.experiments import config, executor
from repro.experiments.figures import error_vs_sampling_rate


def _square(point: int, rng: np.random.Generator) -> tuple[int, float]:
    """Module-level task so worker processes can unpickle it."""
    return point * point, float(rng.random())


class TestTaskSeed:
    def test_deterministic(self):
        a = executor.task_seed(5, 3)
        b = executor.task_seed(5, 3)
        assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        assert np.random.default_rng(a).random() == np.random.default_rng(b).random()

    def test_points_get_distinct_streams(self):
        draws = {
            np.random.default_rng(executor.task_seed(0, i)).random()
            for i in range(20)
        }
        assert len(draws) == 20

    def test_domains_are_disjoint(self):
        task = np.random.default_rng(executor.task_seed(7, 0)).random()
        data = executor.derived_rng(7, 0).random()
        assert task != data

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            executor.task_seed(-1, 0)
        with pytest.raises(InvalidParameterError):
            executor.task_seed(0, -1)
        with pytest.raises(InvalidParameterError):
            executor.derived_rng(0, -2)


class TestRunSweep:
    def test_results_in_submission_order(self):
        results = executor.run_sweep(_square, [3, 1, 2], seed=0, workers=1)
        assert [r[0] for r in results] == [9, 1, 4]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_invariance(self, workers):
        serial = executor.run_sweep(_square, list(range(8)), seed=123, workers=1)
        parallel = executor.run_sweep(
            _square, list(range(8)), seed=123, workers=workers
        )
        assert parallel == serial

    def test_empty_grid(self):
        assert executor.run_sweep(_square, [], seed=0, workers=4) == []

    def test_workers_validation(self):
        with pytest.raises(InvalidParameterError):
            executor.run_sweep(_square, [1], seed=0, workers=0)

    def test_workers_default_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert executor.run_sweep(_square, [2], seed=9) == [
            executor.run_sweep(_square, [2], seed=9, workers=1)[0]
        ]


class TestMemo:
    def test_builds_once_per_key(self):
        executor.clear_memo()
        builds = []

        def build():
            builds.append(1)
            return "value"

        key = ("test-memo-builds-once",)
        try:
            assert executor.memoized(key, build) == "value"
            assert executor.memoized(key, build) == "value"
            assert builds == [1]
            assert executor.memo_size() >= 1
        finally:
            executor.clear_memo()
        assert executor.memo_size() == 0


class TestSeedModeConfig:
    def test_legacy_is_default_on_one_worker(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEED_MODE", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert config.seed_mode() == "auto"
        assert not config.spawn_seeding()

    def test_auto_spawns_with_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEED_MODE", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert config.spawn_seeding()

    def test_explicit_modes(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setenv("REPRO_SEED_MODE", "legacy")
        assert not config.spawn_seeding()
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setenv("REPRO_SEED_MODE", "spawn")
        assert config.spawn_seeding()

    def test_rejects_unknown_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED_MODE", "fastest")
        with pytest.raises(InvalidParameterError):
            config.seed_mode()


def _tiny_sweep() -> dict[str, list[float]]:
    table = error_vs_sampling_rate(
        z=1.0,
        duplication=10,
        n_rows=20_000,
        fractions=(0.01, 0.05),
        estimators=("GEE", "DUJ2A"),
        trials=3,
        seed=11,
    )
    return table.series


class TestFigureLevelDeterminism:
    def test_legacy_numbers_frozen(self, monkeypatch):
        # Frozen on the lazy-layout stream (a column build takes one
        # draw, its layout seed); the default protocol must keep
        # reproducing them exactly.
        monkeypatch.delenv("REPRO_SEED_MODE", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert _tiny_sweep() == {
            "GEE": [1.4087372830640337, 1.524261918770076],
            "DUJ2A": [1.3236499778435913, 1.851332309912263],
        }

    def test_spawn_mode_is_worker_count_invariant(self, monkeypatch):
        executor.clear_memo()
        monkeypatch.setenv("REPRO_SEED_MODE", "spawn")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        one = _tiny_sweep()
        executor.clear_memo()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        two = _tiny_sweep()
        executor.clear_memo()
        assert one == two

    def test_spawn_and_legacy_are_distinct_protocols(self, monkeypatch):
        # Documented split (docs/performance.md): spawned per-point
        # streams cannot reproduce the sequential shared-generator
        # numbers; guard against silently conflating the two.
        monkeypatch.setenv("REPRO_SEED_MODE", "spawn")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        executor.clear_memo()
        spawned = _tiny_sweep()
        executor.clear_memo()
        monkeypatch.setenv("REPRO_SEED_MODE", "legacy")
        assert spawned != _tiny_sweep()


class TestMemoStats:
    def setup_method(self):
        executor.clear_memo()

    def teardown_method(self):
        executor.clear_memo()

    def test_counts_hits_misses_and_size(self):
        executor.memoized("a", lambda: 1)
        executor.memoized("a", lambda: 1)
        executor.memoized("b", lambda: 2)
        assert executor.memo_stats() == executor.MemoStats(hits=1, misses=2, size=2)

    def test_clear_memo_resets_the_tallies(self):
        executor.memoized("a", lambda: 1)
        executor.memoized("a", lambda: 1)
        executor.clear_memo()
        assert executor.memo_stats() == executor.MemoStats(hits=0, misses=0, size=0)
        assert executor.memo_size() == 0

    def test_telemetry_counters_mirror_the_tallies(self):
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        try:
            executor.memoized("a", lambda: 1)
            executor.memoized("a", lambda: 1)
            executor.memoized("b", lambda: 2)
            counters = OBS.counters()
        finally:
            OBS.disable()
            OBS.reset()
        assert counters["executor.memo_misses"] == 2
        assert counters["executor.memo_hits"] == 1
