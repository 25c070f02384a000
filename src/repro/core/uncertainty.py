"""Bootstrap uncertainty for arbitrary estimators.

The paper's desiderata (§1.2) demand that "an estimator should indicate
the confidence in its estimate and its variance", and §4 delivers that
analytically for GEE.  For the other estimators — which publish no
interval — this module provides the generic sample-level bootstrap:
resample the observed sample (multinomially over its observed classes),
re-run the estimator on each replicate, and report percentile bounds
and the replicate standard deviation.

The bootstrap interval reflects *estimator variability given the
sample*; unlike GEE's ``[LOWER, UPPER]`` it carries no worst-case
coverage guarantee (Theorem 1 forbids one), which is exactly the
contrast the paper draws.

Resampling a sample systematically collapses its singletons (an
observed singleton reappears in a replicate ``Poisson(1)`` times, so
``f_1`` shrinks and ``f_2`` grows), which biases richness estimators on
replicates downward by far more than their spread — neither percentile
nor reflected bootstrap intervals are honest here.  What the replicates
*do* measure reliably is variability, so we report a **variability
band**: the interval centered on the point estimate ``T`` whose width
is the central ``confidence`` quantile range of the replicates, clamped
to the sanity range ``[d, n]``.  Use it to compare estimator stability
(the paper's §5.2 instability argument against HYBSKEW), not as a
coverage interval.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.base import ConfidenceInterval, DistinctValueEstimator
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile

__all__ = [
    "BootstrapSummary",
    "bootstrap_profile",
    "bootstrap_profiles",
    "bootstrap_estimate",
    "coefficient_of_variation",
]


@dataclass(frozen=True)
class BootstrapSummary:
    """Replicate statistics for one estimator on one sample.

    ``estimate`` and ``details`` are the point estimate's value and
    diagnostics (a hybrid's ``branch``), so a caller need not estimate
    the sample again to read them.
    """

    estimate: float
    interval: ConfidenceInterval
    std: float
    replicates: int
    confidence: float
    details: Mapping[str, object] = field(default_factory=dict)


def bootstrap_profile(
    profile: FrequencyProfile, rng: np.random.Generator
) -> FrequencyProfile:
    """One bootstrap replicate: resample ``r`` rows from the sample.

    The observed sample contains ``d`` classes with counts ``c_j``;
    resampling ``r`` rows with replacement draws new class counts from
    ``Multinomial(r, c_j / r)`` and drops classes that receive zero.
    """
    return bootstrap_profiles(profile, rng, 1)[0]


def bootstrap_profiles(
    profile: FrequencyProfile, rng: np.random.Generator, k: int
) -> list[FrequencyProfile]:
    """``k`` bootstrap replicates drawn as one ``(k, d)`` count matrix.

    Equal to ``k`` successive :func:`bootstrap_profile` calls: the same
    profiles, each with the same dict insertion order (multiplicities in
    order of first occurrence among the drawn class counts, as
    :meth:`FrequencyProfile.from_multiplicities` builds them — AE and
    Shlosser sum floats in that order), and the same generator state
    afterwards, since ``multinomial(r, p, size=k)`` consumes the stream
    exactly as ``k`` single draws do.
    """
    r = profile.sample_size
    if r == 0:
        raise InvalidParameterError("cannot bootstrap an empty sample")
    if k < 0:
        raise InvalidParameterError(f"need k >= 0 replicates, got {k}")
    counts = np.repeat(
        [i for i, _ in profile], [c for _, c in profile]
    ).astype(np.float64)
    # The per-class counts sum to exactly r (sum_i i * f_i), so divide by
    # the validated sample size directly.
    draws = rng.multinomial(r, counts / r, size=k)
    # Key every drawn (replicate, multiplicity) pair; row-major nonzero
    # order makes the first index of a key its first occurrence within
    # its replicate, and sorting the keys by it restores that order.
    replicates, classes = np.nonzero(draws)
    multiplicities = draws[replicates, classes]
    stride = r + 1
    keys, first, tallies = np.unique(
        replicates * stride + multiplicities,
        return_index=True,
        return_counts=True,
    )
    order = np.argsort(first)
    histograms: list[dict[int, int]] = [{} for _ in range(k)]
    for key, tally in zip(keys[order].tolist(), tallies[order].tolist()):
        histograms[key // stride][key % stride] = tally
    return [FrequencyProfile(h) for h in histograms]


def bootstrap_estimate(
    estimator: DistinctValueEstimator,
    profile: FrequencyProfile,
    population_size: int,
    rng: np.random.Generator,
    replicates: int = 200,
    confidence: float = 0.95,
) -> BootstrapSummary:
    """Bootstrap variability band and stddev for any estimator.

    The replicates are drawn together by :func:`bootstrap_profiles` and
    estimated in one :meth:`~repro.core.DistinctValueEstimator.estimate_batch`
    call, so the result equals a loop of :func:`bootstrap_profile` and
    scalar ``estimate`` calls bit for bit.  One difference remains on
    the error path: an estimator that raises on some replicate now does
    so after all ``replicates`` draws, leaving ``rng`` further along
    than the loop would have.

    Parameters
    ----------
    estimator:
        Any :class:`~repro.core.DistinctValueEstimator`.
    profile, population_size:
        The observed sample and ``n``.
    replicates:
        Bootstrap resamples (>= 20).
    confidence:
        Central coverage of the percentile interval, e.g. 0.95.
    """
    if replicates < 20:
        raise InvalidParameterError(f"need >= 20 replicates, got {replicates}")
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    point_estimate = estimator.estimate(profile, population_size)
    point = point_estimate.value
    values = np.array(
        [
            estimate.value
            for estimate in estimator.estimate_batch(
                bootstrap_profiles(profile, rng, replicates), population_size
            )
        ]
    )
    tail = (1.0 - confidence) / 2.0
    q_lo, q_hi = np.quantile(values, [tail, 1.0 - tail])
    # Variability band: replicate-quantile width, centred on the point
    # estimate, clamped to the paper's sanity range [d, n].
    half_width = float(q_hi - q_lo) / 2.0
    lower = min(
        max(point - half_width, float(profile.distinct)), float(population_size)
    )
    upper = min(max(point + half_width, lower), float(population_size))
    return BootstrapSummary(
        estimate=point,
        interval=ConfidenceInterval(float(lower), float(upper)),
        std=float(values.std(ddof=1)) if replicates > 1 else 0.0,
        replicates=replicates,
        confidence=confidence,
        details=point_estimate.details,
    )


def coefficient_of_variation(summary: BootstrapSummary) -> float:
    """Replicate CV, a scale-free instability score (HYBSKEW scores high)."""
    if summary.estimate <= 0:
        raise InvalidParameterError("estimate must be positive")
    return summary.std / summary.estimate
