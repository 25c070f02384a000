"""The Column abstraction shared by generators, the DB substrate, and experiments.

A column is a named 1-D array of values together with cached ground
truth (the true distinct count and class sizes) so experiments never
recompute exact answers per trial.

A column built from class sizes (:meth:`Column.from_class_sizes`, what
every generator returns) starts as those sizes plus a layout seed.  Its
row array is laid out on the first read of :attr:`Column.values`: the
estimators, and every sampling scheme but page-level Block, read only
the class sizes (a layout-free scheme maps the row positions it draws
to classes with :meth:`Column.classes_at`), so most generated columns
never pay for their rows.
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
        self._sorted_sizes: np.ndarray | None = None
        self._size_groups: tuple[np.ndarray, ...] | None = None
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
        column._sorted_sizes = column._class_sizes
        column._size_groups = None
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

    def classes_at(self, positions: np.ndarray) -> np.ndarray:
        """The classes of the canonical layout's rows at ``positions``, ascending.

        The canonical layout holds class ``j`` (the ``j``-th entry of
        :attr:`sorted_class_sizes`) on its ``j``-th run of rows, so it
        depends only on the class-size multiset; it is never built.
        Classes of equal size form one group: the ``G`` distinct sizes
        sum to at most ``n``, so ``G <= sqrt(2 n)``.  Group ``g`` covers
        rows ``[start_g, end_g)`` with classes of size ``s_g`` from
        index ``first_g`` on, so row ``p`` of group ``g`` is class
        ``first_g + (p - start_g) // s_g``.  The ``G``-row table is
        built once per column.  The positions are sorted first, which
        also sorts the classes and lets ``G`` searches split the
        positions by group.
        """
        if self._size_groups is None:
            sizes, first, count = np.unique(
                self.sorted_class_sizes, return_index=True, return_counts=True
            )
            end = np.cumsum(sizes * count)
            self._size_groups = (end, end - sizes * count, first, sizes)
        end, start, first, sizes = self._size_groups
        positions = np.sort(positions)
        per_group = np.diff(np.searchsorted(positions, end), prepend=0)
        offsets = positions - np.repeat(start, per_group)
        return np.repeat(first, per_group) + offsets // np.repeat(sizes, per_group)

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
    def sorted_class_sizes(self) -> np.ndarray:
        """:attr:`class_sizes` in ascending order (sorted at most once).

        A generated column's own sizes; an eager column keeps
        :attr:`class_sizes` in value order, which
        :meth:`population_profile`'s insertion order depends on.
        """
        if self._sorted_sizes is None:
            self._sorted_sizes = np.sort(self.class_sizes)
        return self._sorted_sizes

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
