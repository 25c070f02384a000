"""Percentiles, accuracy and failure accounting for the benchmark.

Kept free of any ``repro`` import: these are the benchmark's own
definitions, checked against hand-computed cases in ``tests/``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Accuracy",
    "Tally",
    "check_estimate",
    "percentile",
    "ratio_error",
    "samples_needed",
]

#: A tail percentile is reported only with this many samples beyond it.
BEYOND = 10


def samples_needed(p: float, beyond: int = BEYOND) -> int:
    """Fewest samples for which percentile ``p`` has ``beyond`` samples above it."""
    return math.ceil(round(beyond * 100 / (100 - p), 6))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default, ``inclusive``)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def ratio_error(estimate: float, truth: float) -> float:
    """The paper's ratio error, ``max(D_hat / D, D / D_hat)`` (>= 1)."""
    if estimate <= 0 or truth <= 0:
        return math.inf
    return max(estimate / truth, truth / estimate)


@dataclass
class Accuracy:
    """Ratio errors per estimator and GEE interval coverage."""

    errors: dict[str, list[float]] = field(default_factory=dict)
    covered: int = 0
    intervals: int = 0

    def add(self, name: str, estimate: Any, truth: float) -> None:
        self.errors.setdefault(name, []).append(ratio_error(estimate.value, truth))
        if name == "GEE" and estimate.interval is not None:
            self.intervals += 1
            if estimate.interval.lower <= truth <= estimate.interval.upper:
                self.covered += 1

    def merge(self, other: "Accuracy") -> "Accuracy":
        for name, values in other.errors.items():
            self.errors.setdefault(name, []).extend(values)
        self.covered += other.covered
        self.intervals += other.intervals
        return self

    def mean_error(self, name: str) -> float:
        values = self.errors.get(name, [])
        return math.fsum(values) / len(values) if values else 0.0

    @property
    def coverage(self) -> float:
        return self.covered / self.intervals if self.intervals else 0.0


@dataclass
class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, problems: Sequence[str], weight: int = 1) -> None:
        self.attempted += weight
        if problems:
            self.failed += weight
            for problem in problems:
                self.reasons[problem] += weight

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)


def check_estimate(
    estimate: Any, name: str, d: int, n: int
) -> list[str]:
    """Problems with one estimate: finite, inside ``[d, n]``, GEE's interval.

    ``d`` is the sample's distinct count as the benchmark observed it,
    ``n`` the population size.  GEE must report ``LOWER == d`` and lie
    inside its own interval.
    """
    problems = []
    value = estimate.value
    if not math.isfinite(value):
        problems.append(f"{name}: non-finite estimate")
    elif not d <= value <= n:
        problems.append(f"{name}: estimate outside [d, n]")
    if name == "GEE":
        interval = estimate.interval
        if interval is None:
            problems.append("GEE: no interval")
        else:
            if interval.lower != d:
                problems.append("GEE: LOWER != d")
            if not interval.lower <= value <= interval.upper:
                problems.append("GEE: estimate outside its interval")
    return problems
