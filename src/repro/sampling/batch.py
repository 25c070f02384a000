"""Vectorized reduction of many sampling trials to frequency profiles.

The measurement harness draws ``T`` independent samples per
configuration and needs one :class:`~repro.frequency.profile.FrequencyProfile`
per trial.  Reducing each sample separately costs ``T`` sorts plus ``T``
rounds of Python dict handling; this module validates the batch once and
reduces all trials in a single pass: factorize the concatenated values
once (integer columns with a modest value range skip the factorizing
sort entirely and use their values as dense codes), then count
``(trial, code)`` pairs and the per-trial multiplicity histogram with
two ``np.bincount`` calls over dense keys.  Key spaces whose range would
explode memory fall back to sort-based counting, chosen from the input
alone.

The result is exactly ``[FrequencyProfile.from_sample(s) for s in
samples]``: all counting is integer-exact and histogram keys are
inserted in ascending ``(trial, frequency)`` order — the insertion order
:class:`~repro.frequency.profile.FrequencyProfile` preserves and the
estimators' accumulation loops depend on — so the batched reduction is
interchangeable with the serial one bit for bit.

Samplers that draw per-class multiplicities instead of rows (the
class-count path of :meth:`~repro.sampling.base.RowSampler.profile_batch`)
already hold pass 1's output; :func:`profiles_from_counts` runs pass 2
on it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.errors import InvalidSampleError
from repro.frequency.profile import FrequencyProfile
from repro.obs.recorder import OBS

__all__ = ["profiles_from_counts", "profiles_from_samples", "reduce_samples"]

#: Dense-key budget for the bincount passes: a key space larger than
#: ``max(_DENSE_KEY_FACTOR * occupied, _DENSE_KEY_FLOOR)`` falls back to
#: the sort-based pass so pathological ranges cannot blow up memory.
_DENSE_KEY_FACTOR = 8
_DENSE_KEY_FLOOR = 1 << 21


def _dense_cap(occupied: int) -> int:
    return max(_DENSE_KEY_FACTOR * occupied, _DENSE_KEY_FLOOR)


def _factorize(
    flat: npt.NDArray[Any], total: int
) -> tuple[npt.NDArray[np.int64], int]:
    """Map ``flat`` onto non-negative int64 codes, order-preserving.

    Integer columns whose value range fits the dense-key budget skip the
    ``np.unique`` sort and use offset values directly; the codes are
    then not contiguous, but they stay injective and order-preserving,
    which is all the pair-counting passes need (only the *grouping* of
    ``(trial, code)`` pairs and their sort order matter downstream).
    Everything else — floats (NaN semantics), strings, objects — is
    factorized by ``np.unique``.
    """
    if flat.dtype.kind in ("i", "u"):
        low = int(flat.min())
        high = int(flat.max())
        span = high - low + 1
        if span <= _dense_cap(total):
            if OBS.enabled:
                OBS.add("kernel.factorize_dense")
            return (flat - low).astype(np.int64, copy=False), span
    if OBS.enabled:
        OBS.add("kernel.factorize_sort")
    _, codes = np.unique(flat, return_inverse=True)
    codes = codes.astype(np.int64, copy=False)
    n_codes = max(int(codes.max()) + 1, 1)
    return codes, n_codes


def _concat(
    arrays: list[npt.NDArray[Any]],
) -> tuple[npt.NDArray[Any], npt.NDArray[np.int64], int]:
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    flat = np.concatenate(arrays)
    trial_ids = np.repeat(np.arange(len(arrays), dtype=np.int64), lengths)
    return flat, trial_ids, int(lengths.sum())


def _build_histograms(
    trials: int,
    key_trials: list[int],
    key_freqs: list[int],
    key_counts: list[int],
) -> list[dict[int, int]]:
    """Assemble per-trial dicts in ascending ``(trial, frequency)`` order."""
    counts: list[dict[int, int]] = [{} for _ in range(trials)]
    for trial, frequency, count in zip(key_trials, key_freqs, key_counts):
        counts[trial][frequency] = count
    return counts


def _pair_counts_dense(
    keys: npt.NDArray[np.int64], key_space: int, occupied_bound: int
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Sorted ``(unique key, count)`` via bincount or, over budget, a sort.

    Both branches return the occupied keys in ascending order with exact
    integer counts, so they are interchangeable bit for bit.
    """
    if key_space <= _dense_cap(occupied_bound):
        if OBS.enabled:
            OBS.add("kernel.dense")
        dense = np.bincount(keys, minlength=key_space)
        occupied = np.nonzero(dense)[0].astype(np.int64, copy=False)
        return occupied, dense[occupied].astype(np.int64, copy=False)
    if OBS.enabled:
        OBS.add("kernel.sort_fallback")
    unique_keys, counts = np.unique(keys, return_counts=True)
    return (
        unique_keys.astype(np.int64, copy=False),
        counts.astype(np.int64, copy=False),
    )


def reduce_samples(arrays: list[npt.NDArray[Any]]) -> list[dict[int, int]]:
    """Reduce per-trial sample arrays to per-trial frequency histograms.

    The arrays must be 1-D, non-empty in aggregate, and already
    validated — :func:`profiles_from_samples` is the public entry point.

    With telemetry on, each reduction updates the ``kernel.batch_trials``
    / ``kernel.batch_rows`` gauges (last batch shape), tallies the row
    count into the ``kernel.batch_rows`` histogram, and counts its
    branch selections (``kernel.dense`` vs ``kernel.sort_fallback``,
    ``kernel.factorize_dense`` vs ``kernel.factorize_sort``) — all
    visible in ``repro stats``.
    """
    flat, trial_ids, total = _concat(arrays)
    if OBS.enabled:
        OBS.gauge("kernel.batch_trials", len(arrays))
        OBS.gauge("kernel.batch_rows", total)
        OBS.observe("kernel.batch_rows", total)
    codes, n_codes = _factorize(flat, total)
    # ``max(..., 1)`` restates the >= 1 invariant of ``_factorize`` in a
    # form the interval prover can discharge.
    n_codes = max(n_codes, 1)

    # Pass 1: multiplicity of every (trial, value) pair.
    pair_keys, multiplicities = _pair_counts_dense(
        trial_ids * n_codes + codes, len(arrays) * n_codes, total
    )
    return _multiplicity_histograms(
        len(arrays), pair_keys // n_codes, multiplicities
    )


def _multiplicity_histograms(
    trials: int,
    pair_trials: npt.NDArray[np.int64],
    multiplicities: npt.NDArray[np.int64],
) -> list[dict[int, int]]:
    """Pass 2: per trial, how many values occur with each multiplicity.

    ``pair_trials[k]`` is the trial of the ``k``-th occupied (trial,
    value) pair, in ascending trial order, and ``multiplicities[k]`` its
    positive multiplicity.
    """
    stride = max(int(multiplicities.max(initial=0)) + 1, 1)
    freq_keys, value_counts = _pair_counts_dense(
        pair_trials * stride + multiplicities,
        trials * stride,
        int(pair_trials.size),
    )
    return _build_histograms(
        trials,
        (freq_keys // stride).tolist(),
        (freq_keys % stride).tolist(),
        value_counts.tolist(),
    )


def profiles_from_counts(
    counts: npt.NDArray[np.int64],
) -> list[FrequencyProfile]:
    """One profile per row of a ``(trials, classes)`` multiplicity matrix.

    ``counts[t, j]`` is how many times class ``j`` occurs in trial
    ``t``'s sample (zero for a missed class), as the class-count
    samplers draw it.  The matrix skips pass 1 of :func:`reduce_samples`
    — the multiplicities are given — and goes straight to its pass 2,
    so the profiles carry the same ascending-frequency insertion order
    as the row path's.
    """
    pair_trials, classes = np.nonzero(counts)
    multiplicities = counts[pair_trials, classes].astype(np.int64, copy=False)
    histograms = _multiplicity_histograms(
        counts.shape[0], pair_trials.astype(np.int64, copy=False), multiplicities
    )
    return [FrequencyProfile(h) for h in histograms]


def profiles_from_samples(
    samples: Sequence[npt.NDArray[Any]],
) -> list[FrequencyProfile]:
    """Reduce a batch of sample arrays to one profile per trial.

    ``samples`` holds one 1-D array of sampled values per trial; the
    arrays may differ in length (Bernoulli trials do).  Returns the
    trials' profiles in order, equal to calling
    :meth:`FrequencyProfile.from_sample` on each array.
    """
    arrays: list[npt.NDArray[Any]] = []
    for sample in samples:
        array = np.asarray(sample)
        if array.ndim != 1:
            raise InvalidSampleError(
                f"sample arrays must be 1-D, got shape {array.shape}"
            )
        arrays.append(array)
    if not arrays:
        return []
    if sum(a.size for a in arrays) == 0:
        return [FrequencyProfile.empty() for _ in arrays]
    return [FrequencyProfile(c) for c in reduce_samples(arrays)]
