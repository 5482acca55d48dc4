"""Exact merge of per-shard stabbing answers.

**Skyline (n-of-N) merge.**  Candidates are the union of the shards'
stab answers at the global stab point ``t = M - n + 1``.  By Theorem 1
every element of the global answer appears among the candidates: if
nothing in the window beats ``e``, then nothing in ``e``'s sub-stream
suffix beats it either, so its own shard reports it.  Conversely every
*beaten* candidate is beaten (transitively) by some global answer
element — which is itself a candidate — so filtering the candidate pool
down to its own skyline removes exactly the non-answers.

That filter needs only **cross-shard** tests.  Each shard's answer is
the skyline of its own sub-stream suffix under the library tie rule
(DESIGN.md §7): its members are mutually non-dominated and
value-distinct (of equal copies only the youngest survives), so no
candidate is ever beaten by another candidate of its own shard.  A
candidate is therefore dropped iff a candidate of *another* shard
strictly dominates it, or equals it and is younger ("an equal, younger
copy beats you").  When at most one shard answers there is nothing to
test and its answer is returned as is.  Otherwise the pool becomes one
value matrix and each shard's rows go through the blocked kernel
:func:`repro.accel.numpy_skyline.dominance_blocks` against the other
shards' rows only, so same-shard pairs are never compared and memory
stays within the kernel's block budget however large the pool grows.

**k-skyband merge.**  Candidates alone are not enough: a candidate
with fewer than ``k`` dominators in *every* sub-stream may still have
``>= k`` dominators globally.  The witnesses are the union of the
shards' retained in-window suffixes: within one shard, the ``k``
youngest in-window dominators of any point are always retained
(pruning one would require ``k`` younger in-shard dominators of it —
all of which also dominate the point and are younger, a contradiction
with "youngest").  Hence if a candidate has ``>= k`` in-window
dominators globally, at least ``k`` survive into the witness union
(either one shard contributes ``k``, or every shard's full count does),
and if it has fewer than ``k``, the witness count can only be smaller
still — the ``< k`` test over the union decides membership exactly.
The same kernel counts every candidate block's witnesses at once.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence

import numpy as np

from repro.accel.numpy_skyline import dominance_blocks
from repro.core.element import StreamElement


def _values(elements: Sequence[StreamElement]) -> np.ndarray:
    dim = len(elements[0].values)
    flat = chain.from_iterable(element.values for element in elements)
    return np.fromiter(flat, np.float64, len(elements) * dim).reshape(-1, dim)


def _kappas(elements: Sequence[StreamElement]) -> np.ndarray:
    return np.fromiter(
        (element.kappa for element in elements), np.int64, len(elements)
    )


def _in_kappa_order(
    elements: Sequence[StreamElement], kappas: np.ndarray, keep: np.ndarray
) -> List[StreamElement]:
    rows = np.flatnonzero(keep)
    rows = rows[np.argsort(kappas[rows], kind="stable")]
    return [elements[i] for i in rows.tolist()]


def merge_skyline(
    per_shard: Sequence[Sequence[StreamElement]],
) -> List[StreamElement]:
    """The exact global skyline from per-shard stab answers,
    kappa-ascending.

    Each shard's answer must be its own stab answer: kappa-ascending,
    mutually non-dominated and value-distinct.
    """
    answering = [answers for answers in per_shard if answers]
    if len(answering) <= 1:
        return list(answering[0]) if answering else []
    pool = [element for answers in answering for element in answers]
    values = _values(pool)
    kappas = _kappas(pool)
    beaten = np.zeros(len(pool), dtype=bool)
    hi = 0
    for answers in answering:
        lo, hi = hi, hi + len(answers)
        others = np.r_[0:lo, hi : len(pool)]
        other_kappas = kappas[others]
        mine = beaten[lo:hi]
        for a, b, weak, strict in dominance_blocks(
            values[lo:hi], values[others]
        ):
            # An equal copy beats this candidate iff it is younger.
            strict |= other_kappas > kappas[lo + a : lo + b, None]
            weak &= strict
            mine[a:b] = weak.any(axis=1)
    return _in_kappa_order(pool, kappas, ~beaten)


def merge_skyband(
    per_shard: Sequence[Sequence[StreamElement]],
    witnesses: Sequence[StreamElement],
    k: int,
) -> List[StreamElement]:
    """The exact global k-skyband from per-shard stab answers and the
    union of the shards' retained in-window elements, kappa-ascending.

    A witness ``w`` counts against candidate ``c`` under the library
    tie rule: ``w`` weakly dominates ``c`` and is strictly dominating
    or younger (``c`` itself never counts — equal values, same kappa).
    """
    candidates = [element for answers in per_shard for element in answers]
    if not candidates:
        return []
    if not witnesses:
        # Candidates are retained and in-window, so they are their own
        # witnesses; an empty union can only mean no dominators at all.
        return sorted(candidates, key=lambda element: element.kappa)
    kappas = _kappas(candidates)
    witness_kappas = _kappas(witnesses)
    keep = np.zeros(len(candidates), dtype=bool)
    for lo, hi, weak, strict in dominance_blocks(
        _values(candidates), _values(witnesses)
    ):
        strict |= witness_kappas > kappas[lo:hi, None]
        weak &= strict
        keep[lo:hi] = np.count_nonzero(weak, axis=1) < k
    return _in_kappa_order(candidates, kappas, keep)
