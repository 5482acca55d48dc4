"""Windowed k-skybands: the paper's machinery, one level deeper.

The *k-skyband* of a point set contains every point dominated by fewer
than ``k`` others (``k = 1`` is the skyline).  This module answers
**n-of-N k-skyband queries** — the k-skyband of the most recent ``n``
elements, for any ``n <= N`` — by generalising the paper's two pillars:

**Pruning (Theorem 1, generalised).**  An element with ``>= k``
*younger* dominators can never enter the k-skyband of any window that
contains it (those dominators are in every such window).  The minimal
retained set ``R_N^k`` therefore keeps elements with fewer than ``k``
younger weak dominators; each retained element tracks its younger-
dominator count ``j``.

**Encoding (Theorem 3, generalised).**  Retained element ``e`` is in
the k-skyband of the most recent ``n`` elements iff fewer than ``k``
of its dominators lie inside the window.  Its ``j`` younger dominators
always do; so ``e`` qualifies iff fewer than ``k - j`` of its *older*
dominators do — i.e. iff its ``(k-j)``-th youngest older dominator
precedes the window.  Encoding ``e`` as the half-open interval
``(kappa(that dominator), kappa(e)]`` (0 when it does not exist) turns
the query into the same **stabbing query** at ``M - n + 1``.

Why older-dominator ranks computed against ``R_N^k`` are exact even
though pruned elements also dominate: if a pruned ``x`` dominates
``e``, then ``x``'s ``>= k`` younger dominators transitively dominate
``e`` and are younger than ``x`` — so the ``k`` *youngest* older
dominators of ``e`` can never be pruned elements, and the top-``k``
best-first search over the retained R-tree returns the true list.

Unlike Algorithm 1, expiry needs **no re-rooting**: thresholds are raw
positions, and a stab point ``M - n + 1 >= M - N + 1`` always clears an
expired dominator's position, so intervals age out of relevance by
themselves; per arrival only the dominated elements' intervals move.

Tie convention matches the rest of the library (DESIGN.md §7): a
*younger* exact duplicate counts as a dominator (so old copies fade as
new ones arrive) while an *older* duplicate does not count against the
newcomer — i.e. an element is reported when fewer than ``k`` in-window
elements strictly dominate it or duplicate it more recently.  For
``k = 1`` this engine reproduces :class:`~repro.core.nofn.NofNSkyline`
exactly (property-tested).

The per-arrival loop, its top-k older-dominator search and the batched
chunk frame are the shared :class:`~repro.core.window.WindowCore` (at
depth ``k``); this module supplies the policy: a dominated element
counts toward ``k``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.element import StreamElement
from repro.core.window import WindowCore
from repro.sanitize.sanitizer import SanitizeArg
from repro.structures.interval_tree import IntervalHandle
from repro.structures.rtree_soa import DEFAULT_MAX_ENTRIES


class _BandRecord:
    """Book-keeping for one element of ``R_N^k``."""

    __slots__ = ("element", "younger", "older_doms", "handle")

    def __init__(self, element: StreamElement) -> None:
        self.element = element
        #: Number of younger weak dominators seen so far (< k).
        self.younger = 0
        #: kappas of the youngest older weak dominators, youngest first
        #: (at most k entries; computed exactly on arrival).
        self.older_doms: List[int] = []
        self.handle: Optional[IntervalHandle] = None


class KSkybandEngine(WindowCore[_BandRecord]):
    """Sliding-window engine answering all n-of-N k-skyband queries.

    Parameters
    ----------
    dim, capacity, rtree_max_entries, sanitize:
        As for :class:`~repro.core.window.WindowCore`; queries may use
        any ``n <= capacity``.
    k:
        Band depth: report elements dominated by fewer than ``k``
        in-window elements.  ``k = 1`` is the skyline.
    batch_chunk:
        The :meth:`append_many` slice size, clamped to ``capacity``
        here so no chunk member can expire before its in-chunk pruner
        arrives.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        k: int,
        rtree_max_entries: int = DEFAULT_MAX_ENTRIES,
        sanitize: SanitizeArg = "off",
        batch_chunk: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        super().__init__(
            dim, capacity, rtree_max_entries, sanitize, batch_chunk, depth=k
        )
        self.k = k

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> StreamElement:
        """Ingest one stream element; return it."""
        self._m += 1
        element = StreamElement(values, self._m, payload)
        self._arrive(element, self._m)
        return element

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[StreamElement]:
        """Ingest a batch of stream elements; return them.

        Semantically identical to calling :meth:`append` once per point
        — identical retained set, interval encoding, query answers and
        maintenance stats afterwards — but faster on bursty feeds: the
        vectorised intra-batch prefilter (at skyband depth ``k``)
        identifies members that accumulate ``k`` younger same-batch weak
        dominators before the batch ends; they skip all index
        maintenance, contributing only their kappa to other members'
        older-dominator lists while "alive".

        Validation is all-or-nothing: dimension mismatches and invalid
        values raise before any engine state changes.
        """
        elements = self._batch_elements(points, payloads)
        self._ingest(elements, [e.kappa for e in elements])
        return elements

    def _batch_chunk_size(self) -> int:
        """Largest batch chunk whose members cannot expire before their
        in-chunk ``k``-th dominator arrives (kappas are consecutive
        here; the sharded sub-stream variant tightens this for its
        strided kappa sequence)."""
        return min(self._batch_chunk, self.capacity)

    # -- policy: a dominated element counts toward k -------------------

    def _new_record(
        self, element: StreamElement, label: float, found: List[_BandRecord]
    ) -> _BandRecord:
        """The newcomer's exact top-k older *strict* dominators are
        ``found``, computed before this arrival's pruning: an element
        pruned by this very arrival counts the newcomer among its k
        younger dominators, so it has only k-1 older witnesses and must
        still be visible (the module-doc argument covers elements
        pruned on *earlier* arrivals only)."""
        record = _BandRecord(element)
        record.older_doms = [r.element.kappa for r in found]
        return record

    def _low(self, record: _BandRecord, found: List[_BandRecord]) -> float:
        return float(self._threshold_kappa(record))

    def _dominated(self, record: _BandRecord, kappa: int) -> bool:
        """One more younger dominator; at ``k`` the element is pruned
        (generalised Theorem 1), else its interval is re-encoded."""
        record.younger += 1
        if record.younger >= self.k:
            self._discard(record)
            return True
        self._reseat(record)
        return False

    def _expire(self, record: _BandRecord) -> _BandRecord:
        """Drop a retained element that left the window.  Its position
        falls below every admissible stab point, so nobody else's
        interval needs touching."""
        self._discard(record)
        self._unindex(record.element.kappa)
        return record

    def _threshold_kappa(self, record: _BandRecord) -> int:
        """Position of the dominator whose window-exit admits ``record``.

        The ``(k - younger)``-th youngest older dominator, or 0 when
        fewer exist (the element qualifies for every window holding it).
        """
        need = self.k - record.younger
        if len(record.older_doms) < need:
            return 0
        return record.older_doms[need - 1]

    def _reseat(self, record: _BandRecord) -> None:
        """Re-encode a record after its younger-dominator count grew."""
        record.handle = self._intervals.replace(
            record.handle,
            float(self._threshold_kappa(record)),
            float(record.element.kappa),
        )

    def _discard(self, record: _BandRecord) -> None:
        """Remove a record's interval, label and entry in ``_records``
        (the caller removes its index entry)."""
        kappa = record.element.kappa
        self._intervals.remove(record.handle)
        record.handle = None
        self._labels.remove(kappa)
        del self._records[kappa]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, n: int) -> List[StreamElement]:
        """The k-skyband of the most recent ``n`` elements, sorted by
        ``kappa``.

        Raises
        ------
        InvalidWindowError
            If ``n`` is not in ``[1, capacity]``.
        """
        return self._answer(self._stab_point(n))

    def skyband(self) -> List[StreamElement]:
        """The k-skyband of the whole window."""
        return self.query(self.capacity)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def retained_size(self) -> int:
        """``|R_N^k|`` — elements with fewer than k younger dominators."""
        return len(self._records)

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify cross-structure consistency and band membership
        against brute force.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_skyband

        verify_skyband(self)
