"""Jackknife-family baseline estimators.

The PODS 2000 paper compares against estimators defined in two earlier
works it cites but does not restate:

* Haas, Naughton, Seshadri, Stokes (VLDB 1995) — the *smoothed jackknife*
  used by HYBSKEW's low-skew branch;
* Haas, Stokes (JASA 1998) — the *generalized jackknife* family
  ``uj1 / uj2 / uj2a`` (DUJ2A) used by HYBVAR.

All of them share the generalized-jackknife form ``D_hat = d + K f_1``
with ``K`` derived from a fitted model — the same device the PODS paper
uses to derive AE (§5.2).  We re-derive each estimator from that common
principle; the derivations live in the class docstrings so the exact
assumptions are auditable.

Shared notation: ``n`` rows in the column, sample of ``r`` rows drawn
uniformly without replacement, sampling fraction ``q = r / n``, ``d``
distinct values in the sample, ``f_i`` values sampled exactly ``i`` times.
"""

from __future__ import annotations

import math
import time
from typing import Mapping

import numpy as np
import numpy.typing as npt
from scipy import optimize

from repro.contracts import ensures, requires
from repro.core.base import (
    DistinctValueEstimator,
    RawOutcome,
    clamp_estimate,
    meter_estimates,
)
from repro.errors import InvalidParameterError
from repro.frequency.batch import (
    FrequencyProfileBatch,
    gather_over_unique,
    segment_sums_int,
)
from repro.frequency.profile import FrequencyProfile
from repro.obs.recorder import OBS

__all__ = [
    "FirstOrderJackknife",
    "SecondOrderJackknife",
    "SmoothedJackknife",
    "MethodOfMoments",
    "UnsmoothedSecondOrderJackknife",
    "DUJ2A",
    "haas_stokes_cv_squared",
]


class FirstOrderJackknife(DistinctValueEstimator):
    """Burnham–Overton first-order jackknife, ``d + ((r-1)/r) f_1``.

    The classic species-richness estimator: ``D_hat = d - (r-1)
    (d_bar_{r-1} - d)`` where ``d_bar_{r-1} = d - f_1/r`` is the mean
    distinct count over leave-one-out subsamples.  It ignores the
    population size entirely, so it underestimates badly at small
    sampling fractions — included as the historical baseline the
    database-specific estimators improve upon.
    """

    name = "JK1"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.f1 >= 0",
    )
    @ensures("result >= profile.distinct")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        return profile.distinct + (r - 1) / r * profile.f1

    def _estimate_raw_batch(
        self, batch: FrequencyProfileBatch, population_size: int
    ) -> list[float]:
        r = batch.sample_size
        coefficient = gather_over_unique(
            r, {int(rv): (int(rv) - 1) / int(rv) for rv in np.unique(r).tolist()}  # reprolint: disable=R101 - rv ranges over sample sizes, >= 1 by the batch requires
        )
        values = batch.distinct + coefficient * batch.f1
        return [float(value) for value in values.tolist()]


class SecondOrderJackknife(DistinctValueEstimator):
    """Burnham–Overton second-order jackknife.

    ``D_hat = d + (2r - 3)/r * f_1 - (r - 2)^2 / (r (r - 1)) * f_2``.
    Falls back to the first-order form for samples of fewer than 2 rows.
    """

    name = "JK2"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        d = profile.distinct
        if r < 2:
            return d + (r - 1) / r * profile.f1
        return (
            d
            + (2 * r - 3) / r * profile.f1
            - (r - 2) ** 2 / (r * (r - 1)) * profile.f2
        )

    def _estimate_raw_batch(
        self, batch: FrequencyProfileBatch, population_size: int
    ) -> list[float]:
        # All three coefficients use exact Python big-int division per
        # unique r (numpy's int64 / int64 rounds the operands first).
        r = batch.sample_size
        unique_r = np.unique(r).tolist()
        first = gather_over_unique(
            r, {int(rv): (int(rv) - 1) / int(rv) for rv in unique_r}
        )
        second = gather_over_unique(
            r, {int(rv): (2 * int(rv) - 3) / int(rv) for rv in unique_r}
        )
        third = gather_over_unique(
            r,
            {
                int(rv): (
                    (int(rv) - 2) ** 2 / (int(rv) * (int(rv) - 1))
                    if int(rv) >= 2
                    else 0.0
                )
                for rv in unique_r
            },
        )
        values = np.where(
            r < 2,
            batch.distinct + first * batch.f1,
            batch.distinct + second * batch.f1 - third * batch.f2,
        )
        return [float(value) for value in values.tolist()]


class SmoothedJackknife(DistinctValueEstimator):
    """The finite-population (smoothed) first-order jackknife of HNSS'95.

    Derivation from the generalized-jackknife principle: require
    ``E[D_hat] = D`` under the fitted *equal class size* model
    ``n_j = n / D`` for all ``j``.  Then (binomial approximation to the
    hypergeometric)

    * ``D - E[d] = D (1 - q)^{n_0}``,
    * ``E[f_1]  = D n_0 q (1 - q)^{n_0 - 1} = r (1 - q)^{n_0 - 1}``,

    with ``n_0 = n / D``, so the unbiased coefficient is
    ``K = (1 - q) / (q n_0) = (1 - q) D / r``.  Substituting
    ``D_hat = d + K f_1`` and solving the resulting linear fixed point
    yields the closed form

        ``D_hat = d / (1 - (1 - q) f_1 / r)``.

    The denominator is always at least ``q`` (since ``f_1 <= r``), so the
    estimate never exceeds ``d / q = d n / r`` — the natural scale-up cap.
    This estimator is (nearly) unbiased on low-skew data and severely
    *under*-estimates on high-skew data with many rare values, exactly
    the behaviour the PODS paper attributes to HYBSKEW's low-skew branch.
    This closed form is also Haas–Stokes' unsmoothed first-order
    jackknife ``uj1``; HYBVAR's uniform branch reuses this class.
    """

    name = "SJ"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.distinct <= population_size",
        "profile.f1 >= 0",
        "profile.sample_size <= population_size",
    )
    @ensures("result >= profile.distinct")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        r = profile.sample_size
        q = r / population_size
        denominator = 1.0 - (1.0 - q) * profile.f1 / r
        if denominator <= 0.0:
            # f1 <= r forces denominator >= q > 0 algebraically; float
            # rounding can cross zero only at q ~ 0, where no finite
            # scale-up is defensible — saturate at the population size.
            return float(population_size)
        return profile.distinct / denominator

    def _estimate_raw_batch(
        self, batch: FrequencyProfileBatch, population_size: int
    ) -> list[float]:
        raw: list[float] = _batched_smoothed_jackknife(
            batch.distinct, batch.sample_size, batch.f1, population_size
        ).tolist()
        return raw


def _batched_smoothed_jackknife(
    distinct: npt.NDArray[np.int64],
    sample_size: npt.NDArray[np.int64],
    f1: npt.NDArray[np.int64],
    population_size: int | npt.NDArray[np.int64],
) -> npt.NDArray[np.float64]:
    """The smoothed jackknife's raw estimate per profile, bitwise the scalar one.

    Takes each profile's ``d``, ``r >= 1`` and ``f_1``, and one
    population size for all of them or one each (DUJ2A's reduced ``n'``
    differs per profile).  For ``r, n < 2**53`` (any column that fits in
    memory) numpy's ``r / n`` rounds exactly as Python's ``int / int``.
    """
    q = sample_size / population_size
    denominator = 1.0 - (1.0 - q) * f1 / sample_size
    with np.errstate(divide="ignore"):
        raw: npt.NDArray[np.float64] = np.where(
            denominator > 0.0, distinct / denominator, population_size
        )
    return raw


class MethodOfMoments(DistinctValueEstimator):
    """HNSS'95 method-of-moments estimator for low-skew data.

    Solves for ``D`` in the first-moment equation under the equal-size
    model:

        ``d = D (1 - (1 - q)^{n / D})``.

    The right-hand side increases from ``~ d`` toward ``r`` as ``D``
    grows, so a unique root exists whenever ``d < r``; when ``d = r``
    (every sampled row distinct) the equation forces ``D -> n``.
    """

    name = "MM"

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.distinct <= population_size",
    )
    @ensures("result >= profile.distinct", "result <= population_size")
    def _estimate_raw(self, profile: FrequencyProfile, population_size: int) -> float:
        d = profile.distinct
        r = profile.sample_size
        n = population_size
        if d >= r:
            return float(n)
        q = r / n
        log_one_minus_q = math.log1p(-q) if q < 1.0 else -math.inf

        def moment_gap(candidate: float) -> float:
            # n/candidate >= 0 and log(1-q) <= 0: the min-clamp is exact
            # and bounds the expm1 argument for the prover (R1303).
            expected = candidate * -math.expm1(min(0.0, n / candidate * log_one_minus_q))  # reprolint: disable=R101 - bracketing keeps candidate in [d, n], d >= 1
            return expected - d

        # E[d](D) is increasing in D; bracket between d (gap <= 0 there)
        # and n (gap >= 0 for any feasible d <= r).
        lo, hi = float(d), float(n)
        if moment_gap(hi) <= 0.0:
            return float(n)
        root = float(optimize.brentq(moment_gap, lo, hi, xtol=1e-9, rtol=1e-12))
        # brentq guarantees the root lies inside the [d, n] bracket;
        # restating it through clamp_estimate (an exact no-op here) makes
        # the bound clauses above machine-checkable.
        return clamp_estimate(root, d, n)


@requires("population_size >= 1")
@ensures("result >= 0.0")
def haas_stokes_cv_squared(
    profile: FrequencyProfile,
    population_size: int,
    distinct_estimate: float | None = None,
) -> float:
    """Finite-population estimate of the squared CV of class sizes.

    Derivation: for simple random sampling without replacement,
    ``E[sum_i i (i-1) f_i] = r (r-1) sum_j n_j (n_j - 1) / (n (n-1))``.
    Inverting for ``sum_j n_j^2`` and plugging into
    ``gamma^2 = (D / n^2) sum_j n_j^2 - 1`` gives

        ``gamma^2 = max(0, D_hat * [(n-1) M2 / (n r (r-1)) + 1/n] - 1)``

    with ``M2 = sum_i i (i-1) f_i`` and ``D_hat`` a plug-in estimate
    (default: the smoothed/unsmoothed first-order jackknife, as in
    Haas–Stokes).
    """
    r = profile.sample_size
    n = population_size
    if r < 2:
        return 0.0
    if distinct_estimate is None:
        distinct_estimate = SmoothedJackknife().estimate(profile, n).value
    if distinct_estimate < 0:
        raise InvalidParameterError(
            f"distinct_estimate must be non-negative, got {distinct_estimate}"
        )
    m2 = profile.factorial_moment(2)
    gamma_sq = distinct_estimate * (_moment_ratio(m2, r, n) + 1.0 / n) - 1.0
    return max(0.0, gamma_sq)


def _moment_ratio(moment: int, sample_size: int, population_size: int) -> float:
    """``(n - 1) M2 / (n r (r - 1))`` for ``r >= 2``, in exact big-int arithmetic."""
    return (population_size - 1) * moment / (
        population_size * sample_size * (sample_size - 1)
    )


def _second_moments(
    batch: FrequencyProfileBatch, counts: npt.NDArray[np.int64]
) -> npt.NDArray[np.int64]:
    """Per profile ``M2 = sum_i i (i-1) f_i``, exact, with ``counts`` as the ``f_i``.

    ``counts`` is ``batch.counts`` or a masked copy of it (DUJ2A's
    truncation).
    """
    frequencies = batch.frequencies
    return segment_sums_int(frequencies * (frequencies - 1) * counts, batch.indptr)


def _batched_cv_squared(
    distinct: npt.NDArray[np.int64],
    sample_size: npt.NDArray[np.int64],
    f1: npt.NDArray[np.int64],
    moment: npt.NDArray[np.int64],
    population_size: int | npt.NDArray[np.int64],
) -> npt.NDArray[np.float64]:
    """:func:`haas_stokes_cv_squared` with its default plug-in, per profile.

    Takes each profile's ``d``, ``r >= 1``, ``f_1`` and ``M2``, with
    ``population_size`` as for :func:`_batched_smoothed_jackknife`.
    Bitwise equal to the scalar function: the smoothed-jackknife plug-in
    is clamped by :func:`clamp_estimate` as its ``estimate`` clamps it,
    and the moment ratio stays exact big-int arithmetic per profile.
    Meters one smoothed-jackknife call per profile with ``r >= 2``, the
    profiles whose scalar CV consults the plug-in.
    """
    started = time.perf_counter() if OBS.enabled else 0.0
    plugin = _batched_smoothed_jackknife(
        distinct, sample_size, f1, population_size
    )
    inverse_n = np.broadcast_to(1.0 / population_size, plugin.shape).tolist()
    n_values = np.broadcast_to(population_size, plugin.shape).tolist()
    gamma_sq = np.array(
        [
            max(
                0.0,
                clamp_estimate(raw, d, n) * (_moment_ratio(m2, r, n) + inverse)
                - 1.0,
            )
            if r >= 2
            else 0.0
            for raw, d, r, m2, n, inverse in zip(
                plugin.tolist(),
                distinct.tolist(),
                sample_size.tolist(),
                moment.tolist(),
                n_values,
                inverse_n,
            )
        ],
        dtype=np.float64,
    )
    if OBS.enabled:
        meter_estimates(
            SmoothedJackknife.name,
            int((sample_size >= 2).sum()),
            time.perf_counter() - started,
        )
    return gamma_sq


def _batched_uj2(
    distinct: npt.NDArray[np.int64],
    sample_size: npt.NDArray[np.int64],
    f1: npt.NDArray[np.int64],
    moment: npt.NDArray[np.int64],
    population_size: int | npt.NDArray[np.int64],
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """``uj2``'s raw estimate and CV^2 per profile, bitwise the scalar ones.

    Inputs as for :func:`_batched_cv_squared`; ``math.log1p`` is
    evaluated per profile (numpy's ``log1p`` may differ from libm in
    the last ulp).
    """
    gamma_sq = _batched_cv_squared(distinct, sample_size, f1, moment, population_size)
    q = sample_size / population_size
    log_one_minus_q = np.array(
        [math.log1p(-value) if value < 1.0 else 0.0 for value in q.tolist()],
        dtype=np.float64,
    )
    skew_correction = f1 * (1.0 - q) * log_one_minus_q * gamma_sq / q
    denominator = 1.0 - (1.0 - q) * f1 / sample_size
    with np.errstate(divide="ignore"):
        raw = np.where(
            q >= 1.0,
            distinct,
            np.where(
                denominator > 0.0,
                (distinct - skew_correction) / denominator,
                population_size,
            ),
        )
    return raw, gamma_sq


class UnsmoothedSecondOrderJackknife(DistinctValueEstimator):
    """Haas–Stokes second-order generalized jackknife (``uj2``).

    Extends the first-order form with a skew correction driven by the
    estimated squared CV of class sizes:

        ``D_hat = [d - f_1 (1-q) ln(1-q) gamma^2 / q]
                  / (1 - (1-q) f_1 / r)``.

    Since ``ln(1 - q) < 0`` the correction *raises* the estimate in
    proportion to the skew, counteracting the first-order form's
    high-skew underestimation.  The CV is estimated by
    :func:`haas_stokes_cv_squared` with the first-order estimate as
    plug-in.
    """

    name = "UJ2"

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        r = profile.sample_size
        n = population_size
        q = r / n
        d = profile.distinct
        f1 = profile.f1
        gamma_sq = haas_stokes_cv_squared(profile, n)
        if q >= 1.0:
            return float(d), {"cv_squared": gamma_sq}
        skew_correction = f1 * (1.0 - q) * math.log1p(-q) * gamma_sq / q
        denominator = 1.0 - (1.0 - q) * f1 / r
        if denominator <= 0.0:
            # Same algebraic floor as SmoothedJackknife: denominator >= q,
            # so this is reachable only through rounding — saturate at n.
            return float(n), {"cv_squared": gamma_sq}
        return (d - skew_correction) / denominator, {"cv_squared": gamma_sq}

    def _estimate_raw_batch(
        self, batch: FrequencyProfileBatch, population_size: int
    ) -> list[RawOutcome]:
        raw, gamma_sq = _batched_uj2(
            batch.distinct,
            batch.sample_size,
            batch.f1,
            _second_moments(batch, batch.counts),
            population_size,
        )
        return [
            (value, {"cv_squared": cv_squared})
            for value, cv_squared in zip(raw.tolist(), gamma_sq.tolist())
        ]


class DUJ2A(DistinctValueEstimator):
    """Haas–Stokes ``uj2a``: the stabilized second-order jackknife.

    ``uj2``'s CV correction is derived from a Taylor expansion that is
    accurate for rare values but badly extrapolated by very frequent
    ones.  ``uj2a`` therefore removes every class with more than
    ``cutoff`` occurrences *in the sample*, applies ``uj2`` to the
    remainder (with the row counts ``n`` and ``r`` reduced accordingly —
    the removed classes are assumed to occupy ``i / q`` population rows
    each), and finally adds the removed classes back:

        ``D_hat = |removed| + uj2(truncated profile; n', r')``

    with ``r' = r - sum_{i>c} i f_i`` and ``n' = n - (r - r') / q``
    (note ``r'/n' = q`` is preserved).  This is the estimator the PODS
    paper benchmarks as DUJ2A.

    Parameters
    ----------
    cutoff:
        Largest sample frequency retained in the jackknife part.
        Haas–Stokes recommend a moderate constant; 50 is our default.
    """

    name = "DUJ2A"

    def __init__(self, cutoff: int = 50) -> None:
        if cutoff < 1:
            raise InvalidParameterError(f"cutoff must be >= 1, got {cutoff}")
        self.cutoff = int(cutoff)

    @requires("profile.sample_size >= 1", "population_size >= 1")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        r = profile.sample_size
        n = population_size
        q = r / n
        truncated = profile.truncate(self.cutoff)
        removed_distinct = profile.distinct - truncated.distinct
        removed_rows = r - truncated.sample_size
        details: dict[str, object] = {
            "removed_distinct": removed_distinct,
            "removed_sample_rows": removed_rows,
        }
        if truncated.sample_size == 0:
            # Every class was frequent; nothing left to extrapolate from.
            return float(removed_distinct or profile.distinct), details
        reduced_n = n - removed_rows / q
        reduced_n = max(reduced_n, float(truncated.sample_size))
        inner = UnsmoothedSecondOrderJackknife().estimate(
            truncated, int(round(reduced_n))
        )
        details["uj2_on_truncated"] = inner.value
        return removed_distinct + inner.value, details

    def _estimate_raw_batch(
        self, batch: FrequencyProfileBatch, population_size: int
    ) -> list[RawOutcome]:
        # ``profile.truncate(cutoff)`` as a mask over the CSR elements:
        # the kept classes' d and r are exact integer segment sums, and
        # f_1 survives any cutoff >= 1.
        kept = np.where(batch.frequencies <= self.cutoff, batch.counts, 0)
        kept_distinct = segment_sums_int(kept, batch.indptr)
        kept_rows = segment_sums_int(batch.frequencies * kept, batch.indptr)
        sample_size = batch.sample_size
        # As in _batched_smoothed_jackknife, q rounds as the scalar r / n.
        q = sample_size / population_size
        removed_rows = sample_size - kept_rows
        # np.rint rounds half to even, as round() does.
        reduced_n = np.rint(
            np.maximum(population_size - removed_rows / q, kept_rows)
        ).astype(np.int64)
        # The inner uj2 runs on the profiles that keep a row, each at its
        # own reduced n, metered as the scalar path's UJ2 estimate calls.
        started = time.perf_counter() if OBS.enabled else 0.0
        active = np.flatnonzero(kept_rows > 0)
        raw, _ = _batched_uj2(
            kept_distinct[active],
            kept_rows[active],
            batch.f1[active],
            _second_moments(batch, kept)[active],
            reduced_n[active],
        )
        inner = {
            k: clamp_estimate(value, d, n)
            for k, value, d, n in zip(
                active.tolist(),
                raw.tolist(),
                kept_distinct[active].tolist(),
                reduced_n[active].tolist(),
            )
        }
        if OBS.enabled:
            meter_estimates(
                UnsmoothedSecondOrderJackknife.name,
                len(inner),
                time.perf_counter() - started,
            )
        distinct = batch.distinct.tolist()
        removed_distinct = (batch.distinct - kept_distinct).tolist()
        outcomes: list[RawOutcome] = []
        for k, removed in enumerate(removed_rows.tolist()):
            details: dict[str, object] = {
                "removed_distinct": removed_distinct[k],
                "removed_sample_rows": removed,
            }
            value = inner.get(k)
            if value is None:
                outcomes.append(
                    (float(removed_distinct[k] or distinct[k]), details)
                )
            else:
                details["uj2_on_truncated"] = value
                outcomes.append((removed_distinct[k] + value, details))
        return outcomes
