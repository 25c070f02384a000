"""Tests for the bootstrap uncertainty machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AE, GEE
from repro.core.registry import make_estimator
from repro.core.uncertainty import (
    BootstrapSummary,
    bootstrap_estimate,
    bootstrap_profile,
    bootstrap_profiles,
    coefficient_of_variation,
)
from repro.data import uniform_column, zipf_column
from repro.data.synthetic import bounded_scaleup_column
from repro.errors import InvalidParameterError
from repro.estimators import HybridSkew
from repro.frequency import FrequencyProfile
from repro.sampling import UniformWithoutReplacement


class TestBootstrapProfile:
    def test_preserves_sample_size(self, rng, small_profile):
        replicate = bootstrap_profile(small_profile, rng)
        assert replicate.sample_size == small_profile.sample_size

    def test_never_more_classes_than_observed(self, rng, small_profile):
        for _ in range(20):
            replicate = bootstrap_profile(small_profile, rng)
            assert replicate.distinct <= small_profile.distinct

    def test_single_class_is_fixed_point(self, rng):
        profile = FrequencyProfile({7: 1})
        replicate = bootstrap_profile(profile, rng)
        assert replicate.counts == {7: 1}

    def test_rejects_empty(self, rng):
        with pytest.raises(InvalidParameterError):
            bootstrap_profile(FrequencyProfile.empty(), rng)

    def test_mean_class_count_preserved(self, rng):
        # E[resampled count of class j] = c_j: check via averaging d.
        profile = FrequencyProfile({1: 10, 5: 2})
        total_rows = 0
        for _ in range(200):
            replicate = bootstrap_profile(profile, rng)
            total_rows += replicate.sample_size
        assert total_rows == 200 * profile.sample_size


def _serial_replicate(
    profile: FrequencyProfile, rng: np.random.Generator
) -> FrequencyProfile:
    """One replicate drawn on its own: one multinomial draw, reduced by
    ``from_multiplicities`` (first-occurrence insertion order)."""
    r = profile.sample_size
    counts = np.repeat(
        [i for i, _ in profile], [c for _, c in profile]
    ).astype(np.float64)
    draws = rng.multinomial(r, counts / r)
    return FrequencyProfile.from_multiplicities(draws[draws > 0].tolist())


REPLICATED = [
    {1: 3, 2: 1, 4: 1},
    {1: 500},
    {7: 1},
    {2: 5, 7: 3, 1: 40, 30: 2},
    {1: 120, 2: 31, 3: 9, 5: 4, 11: 2, 64: 1, 300: 1},
]


class TestBootstrapProfiles:
    @pytest.mark.parametrize("counts", REPLICATED)
    def test_equals_serial_loop(self, counts):
        profile = FrequencyProfile(counts)
        batched_rng = np.random.default_rng(3)
        serial_rng = np.random.default_rng(3)
        batched = bootstrap_profiles(profile, batched_rng, 40)
        serial = [_serial_replicate(profile, serial_rng) for _ in range(40)]
        assert [list(p.counts.items()) for p in batched] == [
            list(p.counts.items()) for p in serial
        ]
        assert batched_rng.bit_generator.state == serial_rng.bit_generator.state

    def test_zero_replicates_draw_nothing(self, small_profile):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        assert bootstrap_profiles(small_profile, rng, 0) == []
        assert rng.bit_generator.state == before

    def test_validation(self, rng, small_profile):
        with pytest.raises(InvalidParameterError):
            bootstrap_profiles(FrequencyProfile.empty(), rng, 5)
        with pytest.raises(InvalidParameterError):
            bootstrap_profiles(small_profile, rng, -1)


class TestBootstrapEstimate:
    @pytest.mark.parametrize(
        "name", ["AE", "GEE", "HYBGEE", "HYBSKEW", "HYBVAR", "DUJ2A"]
    )
    def test_equals_scalar_replicate_loop(self, name):
        # The stability exhibit's workload, where hybrid replicates flip
        # branches and DUJ2A truncates heavy classes.
        n = 100_000
        column = bounded_scaleup_column(
            n, base_rows=1000, z=2.0, rng=np.random.default_rng(1)
        )
        estimator = make_estimator(name)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            profile = UniformWithoutReplacement().profile(
                column, rng, fraction=0.01
            )
            summary = bootstrap_estimate(
                estimator, profile, n, np.random.default_rng(seed), replicates=60
            )
            serial_rng = np.random.default_rng(seed)
            point = estimator.estimate(profile, n).value
            values = np.array(
                [
                    estimator.estimate(_serial_replicate(profile, serial_rng), n).value
                    for _ in range(60)
                ]
            )
            tail = (1.0 - 0.95) / 2.0  # the default confidence's tails
            q_lo, q_hi = np.quantile(values, [tail, 1.0 - tail])
            half_width = float(q_hi - q_lo) / 2.0
            lower = min(max(point - half_width, float(profile.distinct)), float(n))
            upper = min(max(point + half_width, lower), float(n))
            assert summary.estimate.hex() == point.hex()
            assert summary.std.hex() == float(values.std(ddof=1)).hex()
            assert summary.interval.lower.hex() == lower.hex()
            assert summary.interval.upper.hex() == upper.hex()

    def test_summary_fields(self, rng):
        column = uniform_column(10_000, 200, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, size=500)
        summary = bootstrap_estimate(
            GEE(), profile, column.n_rows, rng, replicates=50
        )
        assert isinstance(summary, BootstrapSummary)
        assert summary.replicates == 50
        assert summary.interval.lower <= summary.interval.upper
        assert summary.std >= 0.0

    def test_point_estimate_usually_inside_interval(self, rng):
        column = zipf_column(50_000, z=1.0, rng=rng)
        profile = UniformWithoutReplacement().profile(column.values, rng, size=1000)
        summary = bootstrap_estimate(
            AE(), profile, column.n_rows, rng, replicates=100
        )
        # Basic-bootstrap intervals are centered on the point estimate.
        assert summary.interval.lower <= summary.estimate
        assert summary.interval.upper >= summary.estimate

    def test_validation(self, rng, small_profile):
        with pytest.raises(InvalidParameterError):
            bootstrap_estimate(GEE(), small_profile, 1000, rng, replicates=5)
        with pytest.raises(InvalidParameterError):
            bootstrap_estimate(
                GEE(), small_profile, 1000, rng, confidence=1.5
            )

    def test_hybskew_less_stable_than_ae_on_boundary_data(self, rng):
        """The §5.2 instability claim, measured by bootstrap CV: on data
        near the chi-squared decision boundary, HYBSKEW's replicates
        flip branches while AE stays put."""
        column = zipf_column(200_000, z=2.0, duplication=100, rng=rng)
        profile = UniformWithoutReplacement().profile(
            column.values, rng, fraction=0.005
        )
        hybskew = bootstrap_estimate(
            HybridSkew(), profile, column.n_rows, rng, replicates=60
        )
        ae = bootstrap_estimate(AE(), profile, column.n_rows, rng, replicates=60)
        assert coefficient_of_variation(hybskew) >= coefficient_of_variation(ae) * 0.5

    def test_cv_validation(self):
        summary = BootstrapSummary(
            estimate=0.0,
            interval=__import__("repro.core", fromlist=["ConfidenceInterval"]).ConfidenceInterval(0, 1),
            std=1.0,
            replicates=20,
            confidence=0.9,
        )
        with pytest.raises(InvalidParameterError):
            coefficient_of_variation(summary)
