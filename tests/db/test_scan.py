"""Tests for the streaming one-pass analyzer."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core import AE
from repro.data import zipf_column
from repro.db.scan import StreamingAnalyzer, analyze_stream
from repro.errors import InvalidParameterError
from repro.sketches import HyperLogLog


def _chunks(values: np.ndarray, size: int):
    for start in range(0, values.size, size):
        yield values[start : start + size]


class TestReservoirMechanics:
    def test_counts_rows(self, rng):
        analyzer = StreamingAnalyzer(10, rng)
        analyzer.consume(np.arange(7))
        analyzer.consume(np.arange(5))
        assert analyzer.rows_seen == 12

    def test_small_stream_kept_exactly(self, rng):
        analyzer = StreamingAnalyzer(100, rng)
        analyzer.consume(np.arange(30))
        profile = analyzer.profile()
        assert profile.sample_size == 30
        assert profile.distinct == 30

    def test_reservoir_capped(self, rng):
        analyzer = StreamingAnalyzer(50, rng)
        for chunk in _chunks(np.arange(1000), 64):
            analyzer.consume(chunk)
        assert analyzer.profile().sample_size == 50

    def test_empty_chunks_ignored(self, rng):
        analyzer = StreamingAnalyzer(10, rng)
        analyzer.consume(np.array([], dtype=np.int64))
        analyzer.consume(np.arange(5))
        assert analyzer.rows_seen == 5

    def test_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            StreamingAnalyzer(0, rng)
        analyzer = StreamingAnalyzer(5, rng)
        with pytest.raises(InvalidParameterError):
            analyzer.consume(np.zeros((2, 2)))
        with pytest.raises(InvalidParameterError):
            analyzer.profile()  # nothing consumed yet

    def test_finish_then_consume_rejected(self, rng):
        analyzer = StreamingAnalyzer(5, rng)
        analyzer.consume(np.arange(10))
        analyzer.finish("t", "c")
        with pytest.raises(InvalidParameterError):
            analyzer.consume(np.arange(3))

    def test_uniform_inclusion(self, rng):
        """The chunked Algorithm R keeps per-row inclusion uniform
        (chi-squared goodness of fit), independent of chunking."""
        n, r, runs = 150, 30, 500
        counts = np.zeros(n)
        for _ in range(runs):
            analyzer = StreamingAnalyzer(r, rng)
            for chunk in _chunks(np.arange(n), 37):
                analyzer.consume(chunk)
            counts[analyzer._reservoir.values()] += 1
        expected = runs * r / n
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < stats.chi2.ppf(0.999, n - 1)


class TestStatisticsProduction:
    def test_estimate_near_truth(self, rng):
        column = zipf_column(200_000, z=1.0, duplication=10, rng=rng)
        stats_row = analyze_stream(
            _chunks(column.values, 8192), 4000, rng, estimator=AE()
        )
        assert stats_row.n_rows == column.n_rows
        assert stats_row.sample_size == 4000
        truth = column.distinct_count
        assert truth / 3 <= stats_row.distinct_estimate <= truth * 3

    def test_sketch_rides_along(self, rng):
        column = zipf_column(100_000, z=1.0, rng=rng)
        sketch = HyperLogLog(precision=12)
        analyze_stream(_chunks(column.values, 4096), 1000, rng, sketch=sketch)
        truth = column.distinct_count
        assert abs(sketch.estimate() - truth) / truth < 0.1

    def test_interval_contains_truth(self, rng):
        # GEE's interval holds D with high probability, not always.  Exact
        # facts on every streamed sample: the interval exists, d <= LOWER
        # <= UPPER <= n, and the estimate lies in [d, n].  Then the rate:
        # over 200 scans, the one-sided 99% Clopper-Pearson lower bound on
        # how often [LOWER, UPPER] holds the true D must clear 90%.
        # Measured: 200 of 200.
        samples = 200
        column = zipf_column(100_000, z=0.0, duplication=10, rng=rng)
        n = column.n_rows
        hits = 0
        for _ in range(samples):
            analyzer = StreamingAnalyzer(2000, rng)
            for chunk in _chunks(column.values, 4096):
                analyzer.consume(chunk)
            d = analyzer.profile().distinct
            stats_row = analyzer.finish("stream", "values")
            interval = stats_row.interval
            assert interval is not None
            assert d <= interval.lower <= interval.upper <= n
            assert d <= stats_row.distinct_estimate <= n
            hits += interval.contains(column.distinct_count)
        bound = stats.beta.ppf(0.01, hits, samples - hits + 1) if hits else 0.0
        assert bound >= 0.90, hits

    def test_matches_batch_sampling_distribution(self, rng):
        """Streaming and batch sampling produce statistically equivalent
        profiles: mean sample-distinct over repetitions agrees."""
        from repro.sampling import UniformWithoutReplacement

        column = zipf_column(20_000, z=1.0, rng=rng)
        r, runs = 500, 60
        stream_total, batch_total = 0, 0
        sampler = UniformWithoutReplacement()
        for _ in range(runs):
            analyzer = StreamingAnalyzer(r, rng)
            for chunk in _chunks(column.values, 1024):
                analyzer.consume(chunk)
            stream_total += analyzer.profile().distinct
            batch_total += sampler.profile(column.values, rng, size=r).distinct
        assert stream_total / runs == pytest.approx(batch_total / runs, rel=0.05)
