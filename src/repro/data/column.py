"""The Column abstraction shared by generators, the DB substrate, and experiments.

A column is a named 1-D array of values together with cached ground
truth (the true distinct count and class sizes) so experiments never
recompute exact answers per trial.

A column built from class sizes (:meth:`Column.from_class_sizes`, what
every generator returns) starts as those sizes plus a layout seed.  Its
row array is laid out on the first read of :attr:`Column.values`: the
estimators, and every sampling scheme but page-level Block, read only
the class sizes, so most generated columns never pay for their rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.frequency.profile import FrequencyProfile
from repro.obs.recorder import OBS

__all__ = ["Column"]


class Column:
    """A named column of values with cached ground-truth statistics."""

    def __init__(
        self,
        name: str,
        values: np.ndarray,
        _class_sizes: np.ndarray | None = None,
    ) -> None:
        values = np.asarray(values)
        if values.ndim != 1:
            raise InvalidParameterError(
                f"column {name!r} must be 1-D, got shape {values.shape}"
            )
        if values.size == 0:
            raise InvalidParameterError(f"column {name!r} must be non-empty")
        self.name = name
        self._values: np.ndarray | None = values
        self._n_rows = int(values.size)
        self._class_sizes = _class_sizes
        self._layout_seed: int | None = None
        self._value_offset = 0
        self._population_profile: FrequencyProfile | None = None

    @classmethod
    def from_class_sizes(
        cls,
        name: str,
        class_sizes: np.ndarray,
        layout_seed: int,
        value_offset: int = 0,
    ) -> Column:
        """A column of the given class sizes whose rows are laid out lazily.

        ``class_sizes`` must be positive and non-empty; the column keeps
        them sorted ascending (its only D-sized array).  Value
        ``value_offset + i`` receives the ``i``-th largest size, so a
        Zipf column's value 0 is its head, and the first read of
        :attr:`values` places the rows at uniformly random positions
        drawn from ``np.random.default_rng(layout_seed)``.
        """
        column = cls.__new__(cls)
        column.name = name
        column._values = None
        column._class_sizes = np.sort(np.asarray(class_sizes, dtype=np.int64))
        column._n_rows = int(column._class_sizes.sum())
        column._layout_seed = int(layout_seed)
        column._value_offset = int(value_offset)
        column._population_profile = None
        return column

    @property
    def values(self) -> np.ndarray:
        """The row array (laid out on first read for a generated column)."""
        if self._values is None:
            self._values = self._lay_out()
        return self._values

    def _lay_out(self) -> np.ndarray:
        assert self._class_sizes is not None and self._layout_seed is not None
        sizes = self._class_sizes
        offset = self._value_offset
        with OBS.span("data.layout", column=self.name, n_rows=self._n_rows):
            values = np.repeat(
                np.arange(offset, offset + sizes.size, dtype=np.int64), sizes[::-1]
            )
            np.random.default_rng(self._layout_seed).shuffle(values)
        if OBS.enabled:
            OBS.add("data.layouts_materialized")
            OBS.add("data.rows_materialized", self._n_rows)
        return values

    def canonical_layout(self) -> np.ndarray:
        """A layout-free stand-in for the rows: value ``i`` repeated, ascending.

        Holds ``np.repeat(arange(D), sort(class_sizes))``, so it depends
        only on the class-size multiset.  Built per call and not cached.
        """
        sizes = np.sort(self.class_sizes)
        return np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)

    @property
    def n_rows(self) -> int:
        """Number of rows, ``n``."""
        return self._n_rows

    @property
    def class_sizes(self) -> np.ndarray:
        """Per-distinct-value multiplicities ``n_j`` (computed once)."""
        if self._class_sizes is None:
            _, counts = np.unique(self.values, return_counts=True)
            self._class_sizes = counts
        return self._class_sizes

    @property
    def distinct_count(self) -> int:
        """The exact number of distinct values ``D``."""
        return int(self.class_sizes.size)

    def population_profile(self) -> FrequencyProfile:
        """Frequency profile of the *entire* column (ground truth spectrum).

        Computed once and cached; the single ``np.unique`` over
        :attr:`class_sizes` replaces the historical per-multiplicity
        Python loop.  Frequencies enter the profile in first-encounter
        order of the class sizes — exactly the insertion order
        ``from_multiplicities`` would produce — so the cached profile is
        indistinguishable from the loop-built one.
        """
        if self._population_profile is None:
            freqs, first, counts = np.unique(
                self.class_sizes, return_index=True, return_counts=True
            )
            order = np.argsort(first)
            self._population_profile = FrequencyProfile(
                dict(
                    zip(freqs[order].tolist(), counts[order].tolist())
                )
            )
        return self._population_profile

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Column(name={self.name!r}, n_rows={self.n_rows})"
