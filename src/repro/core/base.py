"""Estimator framework: result types, sanity bounds, and the base class.

Section 2 of the paper fixes the contract every estimator obeys:

* the input is a random sample of ``r`` rows from a column of ``n`` rows,
  summarized by its frequency profile (``d`` and the ``f_i``);
* the output ``D_hat`` is clamped to the *sanity bounds* ``d <= D_hat <= n``;
* quality is measured by the *ratio error*
  ``max(D_hat / D, D / D_hat) >= 1``.

Estimators here are pure: they read only ``(profile, n)`` plus their own
configuration, never global state, and take no randomness of their own.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from repro.contracts import (
    check_contracts,
    ensures,
    requires,
    runtime_checks_enabled,
)
from repro.errors import InvalidParameterError
from repro.frequency.batch import FrequencyProfileBatch
from repro.frequency.profile import FrequencyProfile
from repro.obs.recorder import OBS

#: What ``estimate_batch`` accepts: an already-packed batch or any
#: sequence of profiles (packed on entry).
ProfileBatchLike = Union[FrequencyProfileBatch, Sequence[FrequencyProfile]]

#: What ``_estimate_raw_batch`` returns per profile: exactly the scalar
#: ``_estimate_raw`` outcome (a float, optionally with diagnostics).
RawOutcome = Union[float, tuple[float, Mapping[str, object]]]

__all__ = [
    "ConfidenceInterval",
    "Estimate",
    "DistinctValueEstimator",
    "clamp_estimate",
    "meter_estimates",
    "ratio_error",
    "relative_error",
]


@requires("sample_distinct >= 0", "sample_distinct <= population_size")
@ensures("result >= sample_distinct", "result <= population_size")
def clamp_estimate(raw: float, sample_distinct: int, population_size: int) -> float:
    """Apply the paper's sanity bounds: ``d <= D_hat <= n``.

    Non-finite or NaN raw values are mapped to the nearest bound
    (``n`` for ``+inf``, ``d`` otherwise), so downstream code always
    receives a usable number.
    """
    if math.isnan(raw):
        return float(sample_distinct)
    if raw == math.inf:
        return float(population_size)
    return float(min(max(raw, sample_distinct), population_size))


def meter_estimates(name: str, count: int, elapsed: float) -> None:
    """Record ``count`` estimates by ``name`` that took ``elapsed`` seconds.

    For batched paths; callers check ``OBS.enabled`` first.  The
    counter keeps the total seconds; the histogram gets one
    per-estimate sample per estimate, the unit the scalar path
    observes, so its count equals the calls counter.
    """
    OBS.add(f"estimator.calls.{name}", count)
    OBS.add(f"estimator.seconds.{name}", elapsed)
    # ``max(..., 1)`` keeps an empty batch from dividing by zero.
    per_estimate = elapsed / max(count, 1)
    for _ in range(count):
        OBS.observe(f"estimator.seconds.{name}", per_estimate)


def ratio_error(estimate: float, true_distinct: float) -> float:
    """The paper's multiplicative error: ``max(D_hat/D, D/D_hat)``.

    Always ``>= 1``; equals 1 exactly when the estimate is perfect.
    """
    if true_distinct <= 0:
        raise InvalidParameterError(
            f"true distinct count must be positive, got {true_distinct}"
        )
    if estimate <= 0:
        raise InvalidParameterError(f"estimate must be positive, got {estimate}")
    if estimate >= true_distinct:
        return estimate / true_distinct
    return true_distinct / estimate


def relative_error(estimate: float, true_distinct: float) -> float:
    """The conventional signed relative error ``(D_hat - D) / D``.

    Included for comparability with Haas et al. (1995); the paper argues
    the ratio error is the better-behaved measure.
    """
    if true_distinct <= 0:
        raise InvalidParameterError(
            f"true distinct count must be positive, got {true_distinct}"
        )
    return (estimate - true_distinct) / true_distinct


@dataclass(frozen=True)
class ConfidenceInterval:
    """An interval claimed to contain the true number of distinct values.

    GEE's interval is ``[d, d - f1 + (n/r) f1]`` (paper §4); AE inherits
    the same construction.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise InvalidParameterError(
                f"interval lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class Estimate:
    """A distinct-values estimate together with its provenance.

    Attributes
    ----------
    value:
        The final estimate after sanity bounds.
    raw_value:
        The estimator's output before clamping (useful for diagnosing
        over/under-shoot).
    estimator:
        Name of the estimator that produced this value.
    sample_size, population_size:
        ``r`` and ``n``.
    sample_distinct:
        ``d``, the number of distinct values actually observed.
    interval:
        Optional confidence interval (GEE-family estimators provide one).
    details:
        Estimator-specific diagnostics, e.g. which branch a hybrid chose.
    """

    value: float
    raw_value: float
    estimator: str
    sample_size: int
    population_size: int
    sample_distinct: int
    interval: ConfidenceInterval | None = None
    details: Mapping[str, object] = field(default_factory=dict)

    def ratio_error(self, true_distinct: float) -> float:
        """Ratio error of this estimate against the ground truth."""
        return ratio_error(self.value, true_distinct)

    def relative_error(self, true_distinct: float) -> float:
        """Signed relative error of this estimate against the ground truth."""
        return relative_error(self.value, true_distinct)


class DistinctValueEstimator(ABC):
    """Base class for all distinct-values estimators.

    Subclasses implement :meth:`_estimate_raw`, returning the unclamped
    estimate (optionally with a diagnostics mapping); :meth:`estimate`
    validates inputs, applies the sanity bounds, and wraps everything in
    an :class:`Estimate`.
    """

    #: Short stable identifier, e.g. ``"GEE"``; used by the registry,
    #: experiment reports, and figures.
    name: str = "base"

    # The paper's sanity bounds, §2: d <= D_hat <= n.  (Preconditions are
    # enforced by the explicit validation below — it must keep raising
    # InvalidParameterError, so they are not @requires clauses.)
    @ensures(
        "result.value >= profile.distinct",
        "result.value <= population_size",
    )
    def estimate(self, profile: FrequencyProfile, population_size: int) -> Estimate:
        """Estimate the number of distinct values in a column of ``population_size`` rows."""
        # Telemetry: every invocation is counted and its wall time
        # accumulated per estimator name (one attribute check when off).
        # No per-call span — a sweep makes hundreds of thousands of
        # estimates; the enclosing ``harness.estimate`` span carries the
        # tree attribution instead.
        started = time.perf_counter() if OBS.enabled else 0.0
        n = int(population_size)
        d = profile.distinct
        r = profile.sample_size
        if n <= 0:
            raise InvalidParameterError(f"population size must be positive, got {n}")
        if r == 0:
            raise InvalidParameterError("cannot estimate from an empty sample")
        if d > n:
            raise InvalidParameterError(
                f"sample has {d} distinct values but the population only {n} rows"
            )
        if profile.max_frequency > n:
            raise InvalidParameterError(
                f"a sample value occurs {profile.max_frequency} times but the "
                f"population only has {n} rows"
            )
        outcome = self._estimate_raw(profile, n)
        # Single-assignment bindings (no re-bound branch locals): the
        # static prover chases one definition per name when discharging
        # the sanity-bound clauses below.
        raw = float(outcome[0]) if isinstance(outcome, tuple) else float(outcome)
        details = outcome[1] if isinstance(outcome, tuple) else {}
        result = Estimate(
            value=clamp_estimate(raw, d, n),
            raw_value=float(raw),
            estimator=self.name,
            sample_size=r,
            population_size=n,
            sample_distinct=d,
            interval=self._interval(profile, n),
            details=details,
        )
        if OBS.enabled:
            elapsed = time.perf_counter() - started
            OBS.add(f"estimator.calls.{self.name}")
            OBS.add(f"estimator.seconds.{self.name}", elapsed)
            OBS.observe(f"estimator.seconds.{self.name}", elapsed)
        return result

    def estimate_batch(
        self, profiles: ProfileBatchLike, population_size: int
    ) -> list[Estimate]:
        """Estimate every profile of a batch in one call.

        Semantically identical to ``[self.estimate(p, population_size)
        for p in profiles]`` — same values, raw values, intervals,
        details, exceptions, and (under ``REPRO_CONTRACTS=1``) the same
        contract clauses enforced per profile — but estimators that
        implement :meth:`_estimate_raw_batch` compute the whole stack in
        a few vectorized passes.  Estimators without a vector kernel
        fall back to the scalar loop, so every subclass keeps working.

        Contract semantics on the batch path: the subclass's
        ``@requires`` clauses are checked for every profile *before* the
        kernel runs, and its ``@ensures`` clauses (plus the sanity-bound
        postconditions of :meth:`estimate`) are checked per result after
        it — the same clauses, compiled once, evaluated per profile.
        Inner helper contracts (e.g. on plug-in estimators a kernel
        inlines) are covered by the scalar fallback and the equivalence
        tests instead.
        """
        batch = (
            profiles
            if isinstance(profiles, FrequencyProfileBatch)
            else FrequencyProfileBatch.from_profiles(profiles)
        )
        if not batch.profiles:
            return []
        n = int(population_size)
        if (
            type(self)._estimate_raw_batch
            is DistinctValueEstimator._estimate_raw_batch
        ):
            # No vector kernel at all: skip straight to the scalar loop
            # (each estimate() call validates and meters itself) rather
            # than paying the batch validation just to discover None.
            return [self.estimate(p, n) for p in batch.profiles]
        started = time.perf_counter() if OBS.enabled else 0.0
        self._validate_batch(batch, n)
        checks = runtime_checks_enabled()
        if checks:
            for profile in batch.profiles:
                check_contracts(
                    self._estimate_raw,
                    {"self": self, "profile": profile, "population_size": n},
                    "requires",
                )
        outcomes = self._estimate_raw_batch(batch, n)
        if outcomes is None:
            # Scalar fallback: each estimate() call does its own
            # validation, contracts, clamping, and telemetry.
            return [self.estimate(p, n) for p in batch.profiles]
        intervals = self._interval_batch(batch, n)
        distincts = batch.distinct.tolist()
        sample_sizes = batch.sample_size.tolist()
        results: list[Estimate] = []
        for k, profile in enumerate(batch.profiles):
            outcome = outcomes[k]
            if checks:
                check_contracts(
                    self._estimate_raw,
                    {
                        "self": self,
                        "profile": profile,
                        "population_size": n,
                        "result": outcome,
                    },
                    "ensures",
                )
            raw = float(outcome[0]) if isinstance(outcome, tuple) else float(outcome)
            details = outcome[1] if isinstance(outcome, tuple) else {}
            result = Estimate(
                value=clamp_estimate(raw, distincts[k], n),
                raw_value=float(raw),
                estimator=self.name,
                sample_size=sample_sizes[k],
                population_size=n,
                sample_distinct=distincts[k],
                interval=intervals[k],
                details=details,
            )
            if checks:
                check_contracts(
                    type(self).estimate,
                    {
                        "self": self,
                        "profile": profile,
                        "population_size": n,
                        "result": result,
                    },
                    "ensures",
                )
            results.append(result)
        if OBS.enabled:
            meter_estimates(
                self.name, len(results), time.perf_counter() - started
            )
        return results

    def _validate_batch(self, batch: FrequencyProfileBatch, n: int) -> None:
        """Re-run :meth:`estimate`'s input validation over a batch.

        One vectorized feasibility pass over the batch's cached summary
        vectors; when any profile is infeasible, the scalar clauses are
        replayed on the *first* one in batch order, so the raised error
        matches the scalar loop's exactly.
        """
        if n <= 0:
            raise InvalidParameterError(f"population size must be positive, got {n}")
        infeasible = (
            (batch.sample_size == 0)
            | (batch.distinct > n)
            | (batch.max_frequency > n)
        )
        if not bool(infeasible.any()):
            return
        profile = batch.profiles[int(np.argmax(infeasible))]
        if profile.sample_size == 0:
            raise InvalidParameterError("cannot estimate from an empty sample")
        if profile.distinct > n:
            raise InvalidParameterError(
                f"sample has {profile.distinct} distinct values but the "
                f"population only {n} rows"
            )
        raise InvalidParameterError(
            f"a sample value occurs {profile.max_frequency} times but the "
            f"population only has {n} rows"
        )

    @abstractmethod
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> float | tuple[float, Mapping[str, object]]:
        """Return the unclamped estimate, optionally with diagnostics."""

    def _estimate_raw_batch(
        self, batch: FrequencyProfileBatch, population_size: int
    ) -> list[RawOutcome] | None:
        """Hook: unclamped estimates for a whole batch, or ``None``.

        Implementations must return one outcome per profile, each
        bitwise equal to what :meth:`_estimate_raw` returns for that
        profile (including any details mapping).  Returning ``None``
        selects the scalar fallback loop — the default for estimators
        without a vector kernel.
        """
        return None

    def _interval(
        self, profile: FrequencyProfile, population_size: int
    ) -> ConfidenceInterval | None:
        """Hook for estimators that provide a confidence interval."""
        return None

    def _interval_batch(
        self, batch: FrequencyProfileBatch, population_size: int
    ) -> list[ConfidenceInterval | None]:
        """Per-profile confidence intervals for the batch path.

        The default defers to :meth:`_interval` per profile (preserving
        any contracts on it); vectorized estimators may override.
        """
        return [self._interval(p, population_size) for p in batch.profiles]

    def __call__(self, profile: FrequencyProfile, population_size: int) -> float:
        """Shorthand returning just the clamped numeric estimate."""
        return self.estimate(profile, population_size).value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
