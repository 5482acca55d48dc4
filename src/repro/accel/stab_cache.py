"""Versioned read-path cache for interval-tree stabbing queries.

The paper reduces every n-of-N query to *one stabbing query* over the
interval encoding of the critical dominance graph (Theorem 3).  The
engines' write path keeps that encoding in an augmented red-black tree
(:class:`~repro.structures.interval_tree.IntervalTree`), which is the
right structure for ``O(log m)`` updates — but answering reads through
it pays pure-Python pointer chasing per node.

The tree therefore also keeps a **write-maintained flat slot view**:
``float64`` ``low``/``high`` slot arrays, a payload list and, once a sort
key is attached, a per-slot key, all written by ``insert``/``remove``
themselves (see :mod:`repro.structures.interval_tree`).  There is no
snapshot to rebuild after a write, and :class:`StabCache` reads the
slots directly:

* **Vectorised stab** — a stab at ``t`` is one
  ``flatnonzero((low < t) & (high >= t))`` over the slots (freed slots
  hold ``low = +inf``, ``high = -inf`` and never match).  The hits are
  ordered in C: by one ``argsort`` of the per-slot key when the cache
  has a ``sort_key`` (the engines use ``kappa``), otherwise by one
  ``lexsort`` on ``(low, high, slot)``.  Python only builds the
  output list, one step per answer.
* **Versioned invalidation** — the tree bumps an integer version on
  every insert/remove; the cache compares that single integer per
  query, so invalidation is O(1) and *exact*: a memoized answer is
  reused iff the interval set is bit-for-bit the one it was computed
  from.
* **Elementary-span memo** — the answer to a stab is constant between
  consecutive interval endpoints: for ``t`` inside a span
  ``(v_i, v_{i+1}]`` of the sorted endpoint values, every ``low < t``
  and ``t <= high`` comparison has the same outcome for all of the
  span.  The memo keys on the span index — one ``bisect`` per query —
  so *distinct but equivalent* stab points share one entry.  The span
  bounds (one ``np.unique`` over the slots) are built only when a
  version serves a *second* query: the first answer at each version is
  held aside and filed under its span then, so a query after every
  write pays no bounds at all, and a repeated query still hits.

Callers receive a **fresh list** per call and may mutate it freely; the
memo stores immutable tuples.  The cache never changes the tree's
intervals and may be dropped or re-attached at any time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from repro.structures.interval_tree import IntervalTree

D = TypeVar("D")

#: Memo entries kept before the table is dropped wholesale.  Bounds
#: memory when the tree holds more elementary spans than this; a plain
#: clear beats an LRU here because the flat path a miss falls back to
#: is already cheap.
DEFAULT_MAX_MEMO = 1024


class StabCache(Generic[D]):
    """Read-optimised view of one :class:`IntervalTree`.

    Parameters
    ----------
    tree:
        The live tree to read.  The cache reads ``tree.version`` and the
        tree's slot view only.
    max_memo:
        Memo-table capacity (distinct elementary spans); the table is
        cleared when full.
    sort_key:
        When given, answers are ordered by it.  The key is attached to
        the tree (:meth:`IntervalTree.set_sort_key`), which stores its
        value per slot at insert time, so ordering a miss is one
        ``argsort``.  Without it results ascend by
        ``(low, high, slot)``, the order of ``tree.intervals()``.

    Attributes
    ----------
    hits / misses:
        Memo-table hits and misses across the cache's lifetime.
    rebuilds:
        How many tree versions the cache has served (each write that a
        later stab observes starts a fresh memo).
    """

    __slots__ = (
        "_tree",
        "_version",
        "_keyed",
        "_bounds",
        "_first",
        "_memo",
        "_max_memo",
        "hits",
        "misses",
        "rebuilds",
    )

    def __init__(
        self,
        tree: IntervalTree[D],
        max_memo: int = DEFAULT_MAX_MEMO,
        sort_key: Optional[Callable[[D], Any]] = None,
    ) -> None:
        if max_memo < 1:
            raise ValueError(f"max_memo must be >= 1, got {max_memo}")
        if sort_key is not None:
            tree.set_sort_key(sort_key)
        self._tree = tree
        self._keyed = sort_key is not None
        self._version = -1  # tree versions start at 0: forces a refresh
        # Span bounds of the current version, built on its second query;
        # until then its first answer waits in ``_first`` as (t, answer).
        self._bounds: Optional[List[float]] = None
        self._first: Optional[Tuple[float, Tuple[D, ...]]] = None
        self._memo: Dict[int, Tuple[D, ...]] = {}
        self._max_memo = max_memo
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stab(self, t: float) -> List[D]:
        """Payloads of every interval with ``low < t <= high``.

        Same answer set as :meth:`IntervalTree.stab`; output is ordered
        by ``sort_key`` when one was given, otherwise by
        ``(low, high, slot)``.  Always returns a fresh list.
        """
        if self._tree.version != self._version:
            self._refresh()
        bounds = self._bounds
        if bounds is None:
            first = self._first
            if first is None:
                self.misses += 1
                out = self._slot_stab(t)
                self._first = (t, tuple(out))
                return out
            bounds = self._bounds = self._span_bounds()
            self._memo[bisect_left(bounds, first[0])] = first[1]
            self._first = None
        # Stab answers are constant on the elementary spans between
        # consecutive endpoint values; the span index is the memo key.
        span = bisect_left(bounds, t)
        cached = self._memo.get(span)
        if cached is not None:
            self.hits += 1
            return list(cached)
        self.misses += 1
        out = self._slot_stab(t)
        if len(self._memo) >= self._max_memo:
            self._memo.clear()
        self._memo[span] = tuple(out)
        return out

    def is_fresh(self) -> bool:
        """Whether the memo belongs to the tree's current version."""
        return self._tree.version == self._version

    def snapshot_arrays(self) -> Tuple[Any, Any, List[D]]:
        """The live intervals as ``(lows, highs, data)``, sorted by
        ``(low, high, slot)`` — the order of ``tree.intervals()``.

        ``lows``/``highs`` are fresh ``float64`` arrays compacted from
        the tree's slot view (:meth:`IntervalTree.sorted_slots`); the
        shared-memory shard replicas (:mod:`repro.parallel.replicas`)
        publish the same arrays.
        """
        return self._tree.sorted_slots()

    def invalidate(self) -> None:
        """Drop the memo, forcing a refresh on the next stab."""
        self._version = -1
        self._memo.clear()
        self._bounds = None
        self._first = None

    def stats(self) -> Dict[str, int]:
        """Lifetime counters, for telemetry and the benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "memo_size": len(self._memo) + (self._first is not None),
            "snapshot_size": len(self._tree),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Start serving the tree's current version with an empty memo."""
        self._version = self._tree.version
        self._memo.clear()
        self._bounds = None
        self._first = None
        self.rebuilds += 1

    def _span_bounds(self) -> List[float]:
        """Sorted distinct endpoint values over the slots.

        A freed slot adds ``+inf``/``-inf``; an extra bound only splits
        a span in two, which keeps every span's answer constant.  (A
        plain list: ``bisect`` on it beats a scalar ``searchsorted``.)
        """
        low, high, _, _ = self._tree.slots()
        bounds: List[float] = np.unique(np.concatenate((low, high))).tolist()
        return bounds

    def _slot_stab(self, t: float) -> List[D]:
        """Vectorised stab over the slot view: ``low < t <= high``."""
        low, high, key, data = self._tree.slots()
        hit = np.flatnonzero((low < t) & (high >= t))
        if self._keyed:
            hit = hit[np.argsort(key[hit])]
        else:  # stable: ties keep slot order, as tree.intervals() does
            hit = hit[np.lexsort((high[hit], low[hit]))]
        return [data[i] for i in hit.tolist()]
