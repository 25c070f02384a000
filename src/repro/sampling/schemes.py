"""Concrete row-sampling schemes.

* :class:`UniformWithoutReplacement` — the paper's default scheme ("We
  used existing functionality in SQL Server for obtaining a random
  sample without replacement of a specified sample size", §6).
* :class:`UniformWithReplacement` — the scheme Theorem 2's analysis is
  written for.
* :class:`Bernoulli` — per-row coin flips at rate ``q`` (Shlosser's
  model); the realized sample size is random.
* :class:`Reservoir` — single-pass Algorithm R; distributionally
  identical to :class:`UniformWithoutReplacement` but exercises the
  streaming path a scan-based collector would use.
* :class:`Block` — page-level sampling: whole blocks of consecutive
  rows.  Cheap for a real system but *not* a uniform row sample;
  included for the sampling-design ablation, which shows how clustered
  layouts break the estimators' guarantees.

The first three also draw profiles straight from a column's class sizes
(the urn model: multivariate hypergeometric, multinomial, and one
binomial per class).  Reservoir and Block have no class-count law:
Block's sample depends on the row layout, and Reservoir exists to
exercise the streaming path.  Every scheme but Block draws row
positions without reading the rows (a
:class:`~repro.sampling.base.PositionSampler`), so on a
:class:`~repro.data.column.Column` its row path maps those positions to
classes and never lays out the rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.contracts import requires
from repro.errors import InvalidParameterError
from repro.sampling.base import PositionSampler, RowSampler

__all__ = [
    "UniformWithoutReplacement",
    "UniformWithReplacement",
    "Bernoulli",
    "Reservoir",
    "Block",
    "DEFAULT_SAMPLER",
]

# Each scheme's _class_path_pays constant is how many rows the row path
# must touch (r for the uniform schemes, n for Bernoulli) per class before
# drawing class counts is cheaper, as timed by
# benchmarks/bench_perf_sampling.py::test_profile_path_cost at n = 1M
# (tables in docs/performance.md, "Class-count sampling").


class UniformWithoutReplacement(PositionSampler):
    """Simple random sample of ``r`` distinct rows."""

    name = "srswor"
    without_replacement = True

    def _draw_positions(
        self, n: int, r: int, rng: np.random.Generator
    ) -> npt.NDArray[np.intp]:
        return rng.choice(n, size=r, replace=False)

    def _draw_counts(
        self,
        class_sizes: npt.NDArray[np.int64],
        r: int,
        rng: np.random.Generator,
    ) -> npt.NDArray[np.int64]:
        # r rows without replacement from an urn of n_j balls per class:
        # the class multiplicities are multivariate hypergeometric.
        return rng.multivariate_hypergeometric(class_sizes, r, method="marginals")

    def _class_path_pays(self, distinct: int, n: int, r: int) -> bool:
        # One hypergeometric marginal costs about three gathered and
        # reduced rows.  The boundary is traded off: at r = 3.2 D the
        # D = 5,000 cell (1.6%) loses 3 ms to rows, the D = 20,000 cell
        # (6.4%) gains 9 ms; 4 D would give up the larger gain.
        return 3 * distinct <= r


class UniformWithReplacement(PositionSampler):
    """``r`` independent uniform row draws (rows may repeat)."""

    name = "srswr"
    without_replacement = False

    def _draw_positions(
        self, n: int, r: int, rng: np.random.Generator
    ) -> npt.NDArray[np.intp]:
        return rng.integers(0, n, size=r)

    def _draw_position_batch(
        self, n: int, r: int, rng: np.random.Generator, trials: int
    ) -> Sequence[npt.NDArray[np.intp]]:
        # One (trials, r) draw fills the output buffer element by
        # element from the same bit stream as ``trials`` successive
        # size-r draws, so this is bit-identical to the serial loop.
        return list(rng.integers(0, n, size=(trials, r)))

    def _draw_counts(
        self,
        class_sizes: npt.NDArray[np.int64],
        r: int,
        rng: np.random.Generator,
    ) -> npt.NDArray[np.int64]:
        # r independent draws, class j with probability n_j / n.
        n = int(class_sizes.sum())
        return rng.multinomial(r, class_sizes / max(n, 1))

    def _class_path_pays(self, distinct: int, n: int, r: int) -> bool:
        # One multinomial step costs about six gathered and reduced rows.
        return 6 * distinct <= r


class Bernoulli(PositionSampler):
    """Independent per-row inclusion with probability ``r / n``.

    The *expected* sample size is ``r``; the realized size is
    ``Binomial(n, r/n)``.  At least one row is always returned so that
    downstream profiles are non-empty.
    """

    name = "bernoulli"
    without_replacement = True

    # RowSampler validates both before drawing.
    @requires("r >= 1", "n >= 1")
    def _draw_positions(
        self, n: int, r: int, rng: np.random.Generator
    ) -> npt.NDArray[np.intp]:
        mask = rng.random(n) < r / n
        if not mask.any():
            mask[rng.integers(0, n)] = True
        return np.flatnonzero(mask)

    def _draw_counts(
        self,
        class_sizes: npt.NDArray[np.int64],
        r: int,
        rng: np.random.Generator,
    ) -> npt.NDArray[np.int64]:
        # Each of a class's n_j rows is kept independently at rate r / n.
        n = int(class_sizes.sum())
        counts = rng.binomial(class_sizes, r / max(n, 1))
        if not counts.any():
            # The "at least one row" fallback: one uniform row, so its
            # class is j with probability n_j / n.
            row = rng.integers(0, n)
            counts[np.searchsorted(np.cumsum(class_sizes), row, side="right")] = 1
        return counts

    def _class_path_pays(self, distinct: int, n: int, r: int) -> bool:
        # The row path flips a coin for every one of the n rows; one
        # binomial costs about four of those.
        return 4 * distinct <= n


class Reservoir(PositionSampler):
    """Single-pass reservoir sampling (Vitter's Algorithm R).

    Produces a uniform without-replacement sample while reading the
    column strictly once, as a table-scan statistics collector would.
    Implemented in vectorized form: row ``t`` (0-based) replaces a
    random reservoir slot with probability ``r / (t + 1)``.
    """

    name = "reservoir"
    without_replacement = True

    def _draw_positions(
        self, n: int, r: int, rng: np.random.Generator
    ) -> npt.NDArray[np.intp]:
        # The final slots' row positions: slot i starts with row i.
        reservoir = np.arange(r, dtype=np.int64)
        if n == r:
            return reservoir
        tail = np.arange(r, n)
        # Candidate slot for each tail row; the row enters the reservoir
        # iff its candidate slot index falls below r.
        slots = rng.integers(0, tail + 1)
        hits = slots < r
        if hits.any():
            # Later rows must overwrite earlier ones (last write wins
            # per slot).  Reversing the accepted rows makes the *last*
            # writer of each slot its first occurrence, which is the one
            # ``np.unique(..., return_index=True)`` keeps.
            last_first_slots = slots[hits][::-1]
            winner_slots, winner_index = np.unique(
                last_first_slots, return_index=True
            )
            reservoir[winner_slots] = tail[hits][::-1][winner_index]
        return reservoir


class Block(RowSampler):
    """Page-level sampling: include whole blocks of consecutive rows.

    Parameters
    ----------
    block_size:
        Number of consecutive rows per block (a "page").  The sampler
        picks ``ceil(r / block_size)`` distinct blocks uniformly and
        returns their rows, truncated to ``r``.
    """

    name = "block"
    without_replacement = True

    def __init__(self, block_size: int = 100) -> None:
        if block_size < 1:
            raise InvalidParameterError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)

    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        n = column.size
        n_blocks = -(-n // self.block_size)  # ceil division
        # Take random blocks until the target is covered; the last block
        # of the table may be partial, so a fixed block count could
        # undershoot.  The cumulative block sizes over the permuted
        # order locate the cutoff without iterating per block.
        order = rng.permutation(n_blocks)
        starts = order * self.block_size
        sizes = np.minimum(starts + self.block_size, n) - starts
        cumulative = np.cumsum(sizes)
        needed = int(np.searchsorted(cumulative, r)) + 1
        starts, sizes = starts[:needed], sizes[:needed]
        # Gather the selected blocks' rows in permuted-block order.
        offsets = np.repeat(starts, sizes)
        block_begins = np.repeat(cumulative[:needed] - sizes, sizes)
        rows = column[offsets + np.arange(offsets.size) - block_begins]
        return rows[:r]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block(block_size={self.block_size})"


#: The scheme used by the paper's experiments.
DEFAULT_SAMPLER = UniformWithoutReplacement()
