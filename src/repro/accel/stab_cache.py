"""Versioned memo for interval-tree stabbing queries.

The paper reduces every n-of-N query to *one stabbing query* over the
interval encoding of the critical dominance graph (Theorem 3).  A stab
of :class:`~repro.structures.interval_tree.IntervalTree` is already one
vectorised pass over its slot arrays; :class:`StabCache` adds the one
thing a stab cannot do alone — reuse an answer across queries:

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

A memo miss is a plain :meth:`IntervalTree.stab`, so answers (and
their order) are exactly the tree's.  Callers receive a **fresh list**
per call and may mutate it freely; the memo stores immutable tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from repro.structures.interval_tree import IntervalTree

D = TypeVar("D")

#: Memo entries kept before the table is dropped wholesale.  Bounds
#: memory when the tree holds more elementary spans than this; a plain
#: clear beats an LRU here because the vectorised stab a miss falls
#: back to is already cheap.
DEFAULT_MAX_MEMO = 1024


class StabCache(Generic[D]):
    """Versioned stab memo over one :class:`IntervalTree`.

    Parameters
    ----------
    tree:
        The live tree to read.  The cache reads ``tree.version``, the
        tree's slot view (for the span bounds) and ``tree.stab``.
    max_memo:
        Memo-table capacity (distinct elementary spans); the table is
        cleared when full.
    sort_key:
        When given, answers are ordered by it.  The key is attached to
        the tree (:meth:`IntervalTree.set_sort_key`), which stores its
        value per slot at insert time, so ordering a miss is one
        ``argsort``.  Without one results follow the tree's stab order,
        ``(low, high, slot)``.

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

        Same answer, in the same order, as :meth:`IntervalTree.stab`.
        Always returns a fresh list.
        """
        if self._tree.version != self._version:
            self._refresh()
        bounds = self._bounds
        if bounds is None:
            first = self._first
            if first is None:
                self.misses += 1
                out = self._tree.stab(t)
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
        out = self._tree.stab(t)
        if len(self._memo) >= self._max_memo:
            self._memo.clear()
        self._memo[span] = tuple(out)
        return out

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
