"""Vectorised dominance kernel and static skyline via NumPy.

:func:`dominance_blocks` is the one dominance kernel the library's
NumPy paths share (this static skyline and the shard merges of
:mod:`repro.parallel.merge`).  It compares a candidate matrix against a
reference matrix and builds the ``candidates x references`` weak and
strict masks one dimension at a time with in-place ``&=`` / ``|=``, the
idiom of ``SoARTree.report_dominated_batch``.  It walks the candidates
in row blocks of at most :data:`BLOCK_PAIRS` pairs (at least one row),
so its masks stay within that budget, well under 1 MB, instead of
growing with ``candidates x references``.

:func:`pareto_mask` agrees with :func:`repro.baselines.naive.naive_skyline`
on NaN-free input (strict Pareto dominance, min-skyline, all duplicate
copies reported); a row holding NaN is always reported and never
dominates another.

* Rows are visited in ascending coordinate-sum order, ties broken by
  the coordinates themselves.  This is a linear extension of
  dominance: every dominator precedes its victims, even when rounding
  makes two sums equal.
* Each block of :data:`BLOCK_ROWS` rows is tested against the skyline
  rows kept so far, which sit in one preallocated buffer, and the
  block's survivors are then tested against each other.

Work is ``O(n * s * d)`` compares for ``n`` rows with ``s`` skyline
rows, done in ``O(n / BLOCK_ROWS)`` array passes rather than one per
row; memory is the ``n x d`` input, one ``n x d`` kept buffer and the
kernel's block budget.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

#: Candidate x reference pairs one kernel block holds.
BLOCK_PAIRS = 1 << 16

#: Sorted rows :func:`pareto_mask` screens per pass.
BLOCK_ROWS = 256


def dominance_blocks(
    candidates: np.ndarray, references: np.ndarray
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Dominance masks of ``candidates`` rows ``lo:hi`` against every
    reference row, one row block at a time.

    Yields ``(lo, hi, weak, strict)`` with ``weak[i, j]`` iff
    ``references[j] <= candidates[lo + i]`` in every dimension and
    ``strict[i, j]`` iff ``references[j] < candidates[lo + i]`` in at
    least one, so ``weak & strict`` is strict Pareto dominance and
    ``weak & ~strict`` exact equality.  The masks are fresh and owned by
    the caller, who may combine them in place.
    """
    n, d = candidates.shape
    step = max(1, BLOCK_PAIRS // max(1, references.shape[0]))
    columns = np.ascontiguousarray(references.T)
    for lo in range(0, n, step):
        block = candidates[lo : lo + step]
        weak = columns[0] <= block[:, :1]
        strict = columns[0] < block[:, :1]
        for j in range(1, d):
            weak &= columns[j] <= block[:, j : j + 1]
            strict |= columns[j] < block[:, j : j + 1]
        yield lo, lo + block.shape[0], weak, strict


def _dominated(candidates: np.ndarray, references: np.ndarray) -> np.ndarray:
    """``out[i]`` iff some reference row strictly dominates
    ``candidates[i]``."""
    out = np.zeros(candidates.shape[0], dtype=bool)
    for lo, hi, weak, strict in dominance_blocks(candidates, references):
        weak &= strict
        out[lo:hi] = weak.any(axis=1)
    return out


def numpy_skyline(points: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the skyline of ``points``, ascending.

    Accepts anything convertible to a 2-d float array (one row per
    point).  Matches the semantics of every other baseline.
    """
    return [int(i) for i in np.flatnonzero(pareto_mask(points))]


def pareto_mask(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Boolean mask: ``mask[i]`` iff ``points[i]`` is a skyline member.

    Raises
    ------
    ValueError
        If the input is not interpretable as ``(n, d)`` with ``d >= 1``.
    """
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=bool)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(
            f"expected an (n, d) array of points, got shape {arr.shape}"
        )
    n = arr.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        sums = arr.sum(axis=1)
    # NaN rows take part in no dominance, so their place is free.  A NaN
    # sum of a NaN-free row comes from +inf + -inf; its dominators also
    # hold -inf, so sorting it first with the other -inf sums keeps
    # every dominator ahead of its victims.
    sums[np.isnan(sums)] = -np.inf
    order = np.lexsort((*arr.T[::-1], sums))
    mask = np.zeros(n, dtype=bool)
    kept = np.empty_like(arr)
    size = 0
    for lo in range(0, n, BLOCK_ROWS):
        rows = order[lo : lo + BLOCK_ROWS]
        block = arr[rows]
        live = ~_dominated(block, kept[:size])
        rows, block = rows[live], block[live]
        # A survivor beaten only by a screened-out row is also beaten by
        # whatever kept row screened that row out, so survivors need
        # only be tested against each other.
        live = ~_dominated(block, block)
        rows, block = rows[live], block[live]
        mask[rows] = True
        kept[size : size + rows.shape[0]] = block
        size += rows.shape[0]
    return mask
