"""Tests for the per-exhibit experiment runners (at miniature scale)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.figures import (
    error_vs_sampling_rate,
    gee_interval_table,
    real_dataset_metric,
    scaleup_bounded,
    scaleup_unbounded,
    theorem1_comparison,
)

TINY = dict(trials=2, seed=1)


class TestRegistry:
    def test_all_exhibits_registered(self):
        expected = {f"fig{i}" for i in range(1, 17)} | {
            "table1",
            "table2",
            "theorem1",
            "stability",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_exhibit(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("fig99")


class TestSyntheticRunners:
    def test_error_vs_rate_structure(self):
        table = error_vs_sampling_rate(
            z=0.0, duplication=10, n_rows=20_000,
            fractions=(0.01, 0.05), **TINY,
        )
        assert table.x_values == ["1.0%", "5.0%"]
        assert set(table.series) == {
            "GEE", "AE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A"
        }
        for values in table.series.values():
            assert all(v >= 1.0 for v in values)

    def test_stddev_metric(self):
        table = error_vs_sampling_rate(
            z=0.0, duplication=10, n_rows=20_000,
            fractions=(0.05,), metric="stddev", **TINY,
        )
        for values in table.series.values():
            assert all(v >= 0.0 for v in values)

    def test_metric_validation(self):
        with pytest.raises(InvalidParameterError):
            error_vs_sampling_rate(
                z=0.0, duplication=10, n_rows=20_000,
                fractions=(0.05,), metric="median", **TINY,
            )

    def test_interval_table_brackets_actual(self):
        table = gee_interval_table(
            z=0.0, duplication=10, n_rows=20_000, fractions=(0.01, 0.1), **TINY
        )
        for i in range(2):
            assert table.series["LOWER"][i] <= table.series["ACTUAL"][i]
            assert table.series["ACTUAL"][i] <= table.series["UPPER"][i]

    def test_estimator_subset(self):
        table = error_vs_sampling_rate(
            z=0.0, duplication=10, n_rows=20_000,
            fractions=(0.05,), estimators=("GEE", "AE"), **TINY,
        )
        assert set(table.series) == {"GEE", "AE"}


class TestScaleupRunners:
    def test_bounded(self):
        table = scaleup_bounded(
            row_counts=[10_000, 20_000], base_rows=1000,
            sample_size=2000, **TINY,
        )
        assert len(table.x_values) == 2

    def test_unbounded(self):
        table = scaleup_unbounded(
            row_counts=[10_000, 20_000], duplication=10, **TINY
        )
        assert len(table.x_values) == 2


class TestRealDataRunner:
    def test_census_runner(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "50")
        table = real_dataset_metric("Census", fractions=(0.05,), **TINY)
        assert "Census" in table.title
        assert set(table.series) == {
            "GEE", "AE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A"
        }

    def test_unknown_dataset(self):
        with pytest.raises(InvalidParameterError):
            real_dataset_metric("Nope", fractions=(0.05,), **TINY)


class TestTheorem1Runner:
    def test_floor_and_worst_series(self):
        table = theorem1_comparison(
            n_rows=20_000, fraction=0.05, estimators=("GEE", "AE"), **TINY
        )
        assert set(table.series) == {
            "scenario_A", "scenario_B", "worst", "theorem1_floor"
        }
        floors = table.series["theorem1_floor"]
        assert all(f == floors[0] for f in floors)
        for worst, a, b in zip(
            table.series["worst"], table.series["scenario_A"], table.series["scenario_B"]
        ):
            assert worst == max(a, b)


class TestStabilityRunner:
    def test_structure_and_hybrid_instability(self):
        from repro.experiments import stability_comparison

        table = stability_comparison(
            n_rows=50_000, fraction=0.01, replicates=30, trials=2, seed=3
        )
        assert set(table.series) == {
            "bootstrap_cv",
            "branch_flip_rate",
            "mean_ratio_error",
        }
        cvs = dict(zip(table.x_values, table.series["bootstrap_cv"]))
        flips = dict(zip(table.x_values, table.series["branch_flip_rate"]))
        assert all(cv >= 0 for cv in cvs.values())
        # Single-model estimators have no branch to flip.
        assert flips["DUJ2A"] == flips["AE"] == flips["GEE"] == 0.0
        assert all(0.0 <= rate <= 1.0 for rate in flips.values())


class TestSharedSweeps:
    """The error and stddev exhibits of a pair evaluate their sweep once."""

    PAIRS = (
        ("fig1", "fig3"), ("fig2", "fig4"), ("fig11", "fig12"),
        ("fig13", "fig14"), ("fig15", "fig16"),
    )

    @pytest.fixture(autouse=True)
    def small(self, monkeypatch):
        for name in ("REPRO_SEED_MODE", "REPRO_WORKERS"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_SCALE", "50")
        monkeypatch.setenv("REPRO_TRIALS", "2")
        return monkeypatch

    @staticmethod
    def _recorded(*calls, fresh=True):
        """Counters and spans of running ``calls`` (on an empty memo if ``fresh``)."""
        from repro.experiments import executor
        from repro.obs import OBS

        if fresh:
            executor.clear_memo()
        OBS.reset()
        OBS.enable()
        try:
            for exhibit_id, kwargs in calls:
                run_experiment(exhibit_id, **kwargs)
            return OBS.counters(), OBS.span_records()
        finally:
            OBS.disable()
            OBS.reset()

    @pytest.mark.parametrize("first,second", PAIRS)
    def test_second_exhibit_reuses_the_sweep(self, first, second):
        alone, _ = self._recorded((second, {}))
        cold_first, _ = self._recorded((first, {}))
        paired, spans = self._recorded((first, {}), (second, {}))
        assert alone.get("experiments.sweeps_reused", 0) == 0
        assert paired["experiments.sweeps_reused"] == 1
        # Evaluations fall by exactly what the reused exhibit cost alone.
        evaluations = "harness.evaluations"
        saved = cold_first[evaluations] + alone[evaluations] - paired[evaluations]
        assert saved == alone[evaluations] > 0
        by_id = {record["id"]: record for record in spans}
        (reuse,) = [record for record in spans if record["name"] == "sweep.reuse"]
        assert by_id[reuse["parent"]]["name"] == f"exhibit.{second}"

    def test_spawn_pair_reuses_the_sweep(self, small):
        small.setenv("REPRO_SEED_MODE", "spawn")
        paired, _ = self._recorded(("fig15", {}), ("fig16", {}))
        assert paired["experiments.sweeps_reused"] == 1

    def test_key_separates_what_changes_the_numbers(self, small):
        counters, _ = self._recorded(
            ("fig1", {"trials": 2}), ("fig3", {"trials": 3}),
            ("fig2", {"seed": 0}), ("fig4", {"seed": 1}),
        )
        assert counters.get("experiments.sweeps_reused", 0) == 0
        from repro.experiments import executor

        run_experiment("fig15")
        small.setenv("REPRO_SCALE", "100")
        counters, _ = self._recorded(("fig16", {}), fresh=False)
        executor.clear_memo()
        run_experiment("fig11")
        small.setenv("REPRO_SEED_MODE", "spawn")
        counters_spawn, _ = self._recorded(("fig12", {}), fresh=False)
        assert counters.get("experiments.sweeps_reused", 0) == 0
        assert counters_spawn.get("experiments.sweeps_reused", 0) == 0

    def test_explicit_dataset_never_reuses(self):
        import numpy as np

        from repro.data import census
        from repro.experiments import executor

        dataset = census(np.random.default_rng(0), scale=0.02)
        for metric in ("error", "stddev"):
            real_dataset_metric(
                "Census", metric=metric, fractions=(0.05,), dataset=dataset, **TINY
            )
        assert executor.memo_stats() == executor.MemoStats(hits=0, misses=0, size=0)

    def test_failed_sweep_is_not_stored(self, small):
        from repro.experiments import executor, figures

        real = figures.evaluate_column

        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        small.setattr(figures, "evaluate_column", broken)
        with pytest.raises(RuntimeError):
            run_experiment("fig1")
        assert executor.memo_size() == 0
        small.setattr(figures, "evaluate_column", real)
        counters, _ = self._recorded(("fig3", {}), fresh=False)
        assert counters.get("experiments.sweeps_reused", 0) == 0
        assert counters["harness.evaluations"] == 6

    def test_partial_sweep_is_not_stored(self, small):
        from repro.errors import SweepGapError
        from repro.experiments import executor, figures
        from repro.resilience import RetryPolicy

        real = figures.evaluate_column
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected")
            return real(*args, **kwargs)

        small.setenv("REPRO_SEED_MODE", "spawn")
        small.setattr(figures, "evaluate_column", flaky)
        with executor.sweep_context(policy=RetryPolicy(retries=0)):
            with pytest.raises(SweepGapError):
                run_experiment("fig1")
        small.setattr(figures, "evaluate_column", real)
        counters, _ = self._recorded(("fig3", {}), fresh=False)
        assert counters.get("experiments.sweeps_reused", 0) == 0
        assert counters["harness.evaluations"] == 6
