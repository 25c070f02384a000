"""Sampler interface and shared helpers.

The estimators assume "a random sample of r tuples chosen uniformly at
random from the table" (paper §2), with or without replacement.  The
samplers in this package produce such samples from a column held as a
1-D numpy array; they are the library's stand-in for the sampling
operators of Olken's thesis and the SQL Server sampling hook the paper
used (DESIGN.md §3).  Given a :class:`~repro.data.column.Column`
instead of a bare array, schemes with a closed-form law over the
column's class sizes may skip the rows and draw each value's sample
multiplicity directly (:meth:`RowSampler.profile_batch`).

Every sampler takes an explicit :class:`numpy.random.Generator` so that
experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.data.column import Column
from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile
from repro.obs.recorder import OBS
from repro.sampling.batch import profiles_from_counts, profiles_from_samples

__all__ = ["RowSampler", "resolve_sample_size", "as_column"]


def as_column(values: npt.ArrayLike) -> npt.NDArray[Any]:
    """Coerce ``values`` to a 1-D numpy array, validating the shape."""
    column = np.asarray(values)
    if column.ndim != 1:
        raise InvalidParameterError(f"columns must be 1-D, got shape {column.shape}")
    if column.size == 0:
        raise InvalidParameterError("columns must be non-empty")
    return column


def resolve_sample_size(
    population_size: int,
    size: int | None = None,
    fraction: float | None = None,
    allow_oversample: bool = False,
) -> int:
    """Turn a ``size`` or ``fraction`` specification into a concrete ``r``.

    Exactly one of ``size`` and ``fraction`` must be given.  Fractions
    are rounded to the nearest row and clamped into ``[1, n]``.  A
    ``size`` above ``n`` is allowed only when ``allow_oversample`` is
    set (with-replacement schemes can legitimately draw more rows than
    the table holds).
    """
    if (size is None) == (fraction is None):
        raise InvalidParameterError("specify exactly one of size= or fraction=")
    if size is not None:
        r = int(size)
        upper = None if allow_oversample else population_size
        if r < 1 or (upper is not None and r > upper):
            raise InvalidParameterError(
                f"sample size must be in [1, {upper}], got {size}"
            )
        return r
    assert fraction is not None  # the exactly-one check above guarantees it
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameterError(f"fraction must be in (0, 1], got {fraction}")
    return min(population_size, max(1, round(fraction * population_size)))


class RowSampler(ABC):
    """Draws a random sample of rows from a column.

    Subclasses define :meth:`_draw`; the public :meth:`sample` handles
    size resolution and validation, and :meth:`profile` /
    :meth:`profile_batch` additionally reduce the sample to its
    frequency profile — the quantity every estimator consumes.

    Schemes whose per-class sample multiplicities follow a closed-form
    law over the column's class sizes also define :meth:`_draw_counts`
    and :meth:`_class_path_pays`; a :class:`~repro.data.column.Column`
    passed to :meth:`profile` or :meth:`profile_batch` then draws its
    profiles from class counts whenever that is cheaper than drawing
    rows.
    """

    #: Stable identifier used in experiment configs and reports.
    name: str = "base"

    #: Whether the scheme guarantees no row is inspected twice.
    without_replacement: bool = True

    def sample(
        self,
        column: npt.ArrayLike,
        rng: np.random.Generator,
        size: int | None = None,
        fraction: float | None = None,
    ) -> npt.NDArray[Any]:
        """Draw a sample of rows from ``column``."""
        data = as_column(column)
        return self._draw(data, self._sample_size(data.size, size, fraction), rng)

    def profile(
        self,
        column: npt.ArrayLike | Column,
        rng: np.random.Generator,
        size: int | None = None,
        fraction: float | None = None,
    ) -> FrequencyProfile:
        """Draw a sample and return its frequency profile.

        The one-trial case of :meth:`profile_batch`, taking the same
        path.
        """
        return self._profiles(column, rng, 1, size, fraction)[0]

    def profile_batch(
        self,
        column: npt.ArrayLike | Column,
        rng: np.random.Generator,
        trials: int,
        size: int | None = None,
        fraction: float | None = None,
    ) -> list[FrequencyProfile]:
        """Draw ``trials`` independent samples and return their profiles.

        Equal bit for bit to calling :meth:`profile` ``trials`` times
        with the same generator, and leaves the stream at the same
        position.  There are two paths:

        * **rows** — every raw array, and a :class:`Column` whose scheme
          has no class-count law or whose crossover favours rows.  The
          trials' rows are drawn (:meth:`_draw_batch`) and reduced to
          profiles in one vectorized pass; the stream is consumed
          exactly as successive :meth:`_draw` calls consume it.
        * **classes** — a :class:`Column` whose scheme defines
          :meth:`_draw_counts`, when :meth:`_class_path_pays` for its
          ``(D, n, r)``.  Each trial draws its per-class multiplicities
          directly from the column's class sizes (taken in ascending
          order, so the result depends only on their multiset) and the
          matrix becomes profiles with one ``bincount``.  The profiles
          have the row path's distribution but come from a different
          random stream.
        """
        if trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {trials}")
        return self._profiles(column, rng, trials, size, fraction)

    def _sample_size(
        self, population_size: int, size: int | None, fraction: float | None
    ) -> int:
        return resolve_sample_size(
            population_size,
            size=size,
            fraction=fraction,
            allow_oversample=not self.without_replacement,
        )

    def _profiles(
        self,
        column: npt.ArrayLike | Column,
        rng: np.random.Generator,
        trials: int,
        size: int | None,
        fraction: float | None,
    ) -> list[FrequencyProfile]:
        """Dispatch one :meth:`profile` / :meth:`profile_batch` call.

        With telemetry on, the ``sample.<scheme>`` span carries the
        chosen ``path`` and holds a ``sample.draw`` and a
        ``sample.reduce`` child; the ``sample.path.<path>`` counter
        tallies calls per path.
        """
        values = column.values if isinstance(column, Column) else as_column(column)
        r = self._sample_size(values.size, size, fraction)
        class_sizes: npt.NDArray[np.int64] | None = None
        if isinstance(column, Column) and self._class_path_pays(
            column.distinct_count, values.size, r
        ):
            class_sizes = column.class_sizes
        path = "rows" if class_sizes is None else "classes"
        with OBS.span(
            f"sample.{self.name}", trials=trials, requested_size=r, path=path
        ):
            if class_sizes is not None:
                profiles = self._class_profiles(class_sizes, r, rng, trials)
            else:
                with OBS.span("sample.draw"):
                    samples = self._draw_batch(values, r, rng, trials)
                with OBS.span("sample.reduce"):
                    # Equal either way, but a lone sample of a high-D
                    # column reduces up to 30x faster on its own: the
                    # batch's dense pair table spans the value range.
                    profiles = (
                        profiles_from_samples(samples)
                        if trials > 1
                        else [FrequencyProfile.from_sample(samples[0])]
                    )
        if OBS.enabled:
            OBS.add(f"sample.path.{path}")
            OBS.add("sample.trials", trials)
            OBS.add("sample.rows_sampled", sum(p.sample_size for p in profiles))
        return profiles

    def _class_profiles(
        self,
        class_sizes: npt.NDArray[np.int64],
        r: int,
        rng: np.random.Generator,
        trials: int,
    ) -> list[FrequencyProfile]:
        """The classes path: ``trials`` profiles drawn from class counts.

        The sizes are taken in ascending order, so the profiles depend
        only on their multiset, not on how the column orders its values.
        """
        with OBS.span("sample.draw"):
            canonical = np.sort(class_sizes)
            counts = np.stack(
                [self._draw_counts(canonical, r, rng) for _ in range(trials)]
            )
        with OBS.span("sample.reduce"):
            return profiles_from_counts(counts)

    @abstractmethod
    def _draw(
        self, column: npt.NDArray[Any], r: int, rng: np.random.Generator
    ) -> npt.NDArray[Any]:
        """Draw exactly ``r`` rows (or approximately, for Bernoulli) from ``column``."""

    def _draw_batch(
        self,
        column: npt.NDArray[Any],
        r: int,
        rng: np.random.Generator,
        trials: int,
    ) -> Sequence[npt.NDArray[Any]]:
        """Draw ``trials`` samples for the batched profile reduction.

        Returns one array of sampled values per trial.  The default is
        ``trials`` successive :meth:`_draw` calls; an override MUST
        consume ``rng`` exactly as they would, so that batched and
        serial runs stay interchangeable bit for bit under a fixed seed.
        """
        return [self._draw(column, r, rng) for _ in range(trials)]

    def _draw_counts(
        self,
        class_sizes: npt.NDArray[np.int64],
        r: int,
        rng: np.random.Generator,
    ) -> npt.NDArray[np.int64]:
        """One trial's per-class multiplicities, drawn without rows.

        ``class_sizes`` holds the column's class sizes ``n_j`` (summing
        to ``n``); the result holds how many rows of each class one
        sample of target size ``r`` contains, with the same law as the
        classes of :meth:`_draw`'s rows.  Schemes without a closed-form
        law over class counts (Reservoir, Block, custom subclasses) do
        not define it and stay row-based: their :meth:`_class_path_pays`
        never selects this path.
        """
        raise NotImplementedError(f"{self.name} has no class-count law")

    def _class_path_pays(self, distinct: int, n: int, r: int) -> bool:
        """Whether drawing ``distinct`` class counts beats drawing rows.

        Each scheme with a :meth:`_draw_counts` law states its measured
        crossover here (see ``benchmarks/bench_perf_sampling.py``), and
        only such a scheme may override this; the default keeps every
        input on the row path.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
