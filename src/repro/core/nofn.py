"""The n-of-N skyline engine (paper sections 3.1-3.3).

:class:`NofNSkyline` maintains, over an append-only stream, exactly the
state the paper proves sufficient for answering *every* n-of-N skyline
query (``n <= N``):

* ``R_N`` — the non-redundant elements (Theorem 1), held in an
  in-memory R-tree, an ordered label set, and an interval tree, wired
  together as in Figure 6;
* the **critical dominance graph** ``G_{R_N}`` — each element points to
  its youngest older dominator within ``R_N`` (a forest) — encoded as
  half-open intervals ``(kappa(parent), kappa(e)]`` (roots:
  ``(0, kappa(e)]``).

Per arrival, :meth:`append` runs Algorithm 1 on the skeleton shared by
all window engines (:class:`~repro.core.window.WindowCore`):

1. expire the oldest ``R_N`` element once it leaves the window,
   re-rooting its children's intervals to ``(0, kappa(child)]``;
2. find the newcomer's critical dominator via best-first R-tree search
   (an exact older twin is skipped: step 3 ejects it);
3. eject ``D_{e_new}`` — everything the newcomer weakly dominates —
   via R-tree dominance reporting;
4. install the newcomer's interval, R-tree entry and label.

:meth:`query` then answers an n-of-N query as a **stabbing query**
(Theorem 3): stab the interval tree with ``M - n + 1`` and report the
elements owning the stabbed intervals — one vectorised pass over the
interval slots, memoized per elementary span.

This module holds the policy only: a dominated element leaves ``R_N``,
and a newcomer's interval starts at its critical dominator's label.
The label and window-start hooks let
:class:`repro.core.timewindow.TimeWindowSkyline` reuse the whole engine
with timestamps instead of positions (the paper's closing remark in
section 6).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome, BatchOutcome, ExpiredRecord
from repro.core.window import WindowCore
from repro.exceptions import StructureCorruptionError
from repro.sanitize.sanitizer import SanitizeArg
from repro.structures.interval_tree import IntervalHandle
from repro.structures.rtree_soa import DEFAULT_MAX_ENTRIES


class _Record:
    """Book-keeping for one element of ``R_N``.

    Realises the 1-1 links of Figure 6: element <-> R-tree entry <->
    interval <-> label.
    """

    __slots__ = ("element", "label", "parent_kappa", "children", "handle")

    def __init__(self, element: StreamElement, label: float) -> None:
        self.element = element
        self.label = label
        self.parent_kappa: int = 0
        self.children: Set[int] = set()
        self.handle: Optional[IntervalHandle] = None


class NofNSkyline(WindowCore[_Record]):
    """Sliding-window engine answering all n-of-N skyline queries.

    Parameters
    ----------
    dim, capacity, rtree_max_entries, sanitize, batch_chunk:
        As for :class:`~repro.core.window.WindowCore`; ``capacity`` is
        ``N``, and queries may use any ``n <= N``.

    Notes
    -----
    Dominance is *weak* (coordinate-wise ``<=``): of exactly duplicated
    points only the youngest copy is retained and reported (DESIGN.md
    §7); under the paper's distinct-values assumption behaviour is
    identical to strict dominance.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        rtree_max_entries: int = DEFAULT_MAX_ENTRIES,
        sanitize: SanitizeArg = "off",
        batch_chunk: Optional[int] = None,
    ) -> None:
        super().__init__(dim, capacity, rtree_max_entries, sanitize, batch_chunk)

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 1)
    # ------------------------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> ArrivalOutcome:
        """Ingest one stream element; return what changed.

        The returned :class:`ArrivalOutcome` feeds the continuous-query
        manager (Algorithm 2); ad-hoc users may ignore it.
        """
        self._m += 1
        return self._arrive(StreamElement(values, self._m, payload), self._m)

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> BatchOutcome:
        """Ingest a batch of stream elements; return what changed.

        Semantically identical to calling :meth:`append` once per point
        (the returned :class:`~repro.core.events.BatchOutcome` carries
        the exact per-element :class:`ArrivalOutcome` sequence those
        calls would have produced), but much faster on bursty feeds: a
        vectorised intra-batch prefilter proves which batch members are
        dominated by a younger same-batch member before any query could
        observe them, and those members skip all R-tree / interval-tree
        / label-set maintenance.  The window-expiry scan is likewise
        gated once per chunk instead of once per arrival.

        Validation is all-or-nothing: dimension mismatches and invalid
        values raise before any engine state changes.
        """
        elements = self._batch_elements(points, payloads)
        outcomes: List[ArrivalOutcome] = []
        dropped = self._ingest(elements, [e.kappa for e in elements], outcomes)
        return BatchOutcome(tuple(outcomes), prefilter_dropped=dropped)

    # -- policy: a dominated element leaves R_N ------------------------

    def _new_record(
        self, element: StreamElement, label: float, found: List[_Record]
    ) -> _Record:
        record = _Record(element, label)
        if found:  # the critical dominator
            parent = found[0]
            record.parent_kappa = parent.element.kappa
            parent.children.add(element.kappa)
        return record

    def _low(self, record: _Record, found: List[_Record]) -> float:
        return found[0].label if found else 0.0

    def _dominated(self, record: _Record, kappa: int) -> bool:
        """Eject a dominated element: its interval, label and parent
        link go (Algorithm 1 lines 9-13)."""
        self._intervals.remove(record.handle)
        record.handle = None
        parent = self._records.get(record.parent_kappa)
        if parent is not None:
            parent.children.discard(record.element.kappa)
        self._labels.remove(record.label)
        del self._records[record.element.kappa]
        return True

    def _release(self, record: _Record, pending: Dict[int, _Record]) -> None:
        parent = self._records.get(record.parent_kappa) or pending.get(
            record.parent_kappa
        )
        if parent is not None:
            parent.children.discard(record.element.kappa)

    def _expire_due(
        self, label: float, pending: Dict[int, _Record]
    ) -> List[ExpiredRecord]:
        """Expire, oldest first, indexed and parked elements alike.  A
        parked member can leave the window before its killer arrives
        when the chunk spans more than a window (time windows, count
        windows smaller than the chunk)."""
        threshold = self._window_start(label)
        expired: List[ExpiredRecord] = []
        while True:
            tree_oldest = self._labels.oldest() if self._labels else None
            pend_oldest = pending[next(iter(pending))] if pending else None
            if tree_oldest is not None and (
                pend_oldest is None or tree_oldest[0] <= pend_oldest.label
            ):
                if tree_oldest[0] >= threshold:
                    break
                expired.append(self._expire(tree_oldest[1], pending))
            elif pend_oldest is not None:
                if pend_oldest.label >= threshold:
                    break
                expired.append(self._expire_pending(pend_oldest, pending))
            else:
                break
        return expired

    def _expire(
        self, record: _Record, pending: Optional[Dict[int, _Record]] = None
    ) -> ExpiredRecord:
        """Remove an expired root from ``R_N``, re-rooting its children
        (Algorithm 1 lines 2-8).  A child may be a parked chunk member
        (in ``pending``): it has no interval yet, only a parent link to
        clear."""
        if record.parent_kappa != 0:
            raise StructureCorruptionError(
                f"expiring element {record.element.kappa} is not a root of "
                f"the dominance graph (critical parent "
                f"{record.parent_kappa} outlived it)"
            )
        children_elements: List[StreamElement] = []
        for child_kappa in sorted(record.children):
            child = self._records.get(child_kappa)
            if child is not None:
                child.handle = self._intervals.replace(
                    child.handle, 0.0, child.label
                )
            elif pending is not None and child_kappa in pending:
                child = pending[child_kappa]
            else:
                raise StructureCorruptionError(
                    f"dominance-graph child {child_kappa} of expiring "
                    f"element {record.element.kappa} is missing from R_N"
                )
            child.parent_kappa = 0
            children_elements.append(child.element)
        self._intervals.remove(record.handle)
        self._unindex(record.element.kappa)
        self._labels.remove(record.label)
        del self._records[record.element.kappa]
        record.handle = None
        return ExpiredRecord(
            element=record.element,
            children=tuple(children_elements),
        )

    def _expire_pending(
        self, record: _Record, pending: Dict[int, _Record]
    ) -> ExpiredRecord:
        """Expire a parked member that left the window before its
        in-chunk killer arrived.  It owns no index entries — only the
        dominance-graph links need maintenance."""
        if record.parent_kappa != 0:
            raise StructureCorruptionError(
                f"expiring element {record.element.kappa} is not a root of "
                f"the dominance graph (critical parent "
                f"{record.parent_kappa} outlived it)"
            )
        del pending[record.element.kappa]
        children_elements: List[StreamElement] = []
        for child_kappa in sorted(record.children):
            child = pending.get(child_kappa)
            if child is None:
                raise StructureCorruptionError(
                    f"dominance-graph child {child_kappa} of expiring "
                    f"element {record.element.kappa} is missing from R_N"
                )
            child.parent_kappa = 0
            children_elements.append(child.element)
        return ExpiredRecord(
            element=record.element,
            children=tuple(children_elements),
        )

    # ------------------------------------------------------------------
    # Query processing (Theorem 3 / section 3.2)
    # ------------------------------------------------------------------

    def query(self, n: int) -> List[StreamElement]:
        """Skyline of the most recent ``n`` elements, sorted by ``kappa``.

        Raises
        ------
        InvalidWindowError
            If ``n`` is not in ``[1, capacity]``.
        """
        return self._answer(self._stab_point(n))

    def skyline(self) -> List[StreamElement]:
        """Skyline of the whole window (the classic sliding-window case,
        ``n = N``)."""
        return self.query(self.capacity)

    def query_scan(self, n: int) -> List[StreamElement]:
        """Ablation/debug variant of :meth:`query`: answer by scanning
        ``R_N`` in Python and applying Theorem 3 directly, without the
        interval tree.

        Returns exactly what :meth:`query` returns; exists so the
        benchmarks can price the interval-tree design choice and so
        tests have an independent second implementation.
        """
        stab = self._stab_point(n)
        if stab is None:
            self.stats.record_query(0)
            return []
        results = []
        for kappa, record in self._records.items():
            parent_label = (
                0.0
                if record.parent_kappa == 0
                else self._records[record.parent_kappa].label
            )
            if parent_label < stab <= record.label:
                results.append(record.element)
        results.sort(key=lambda e: e.kappa)
        self.stats.record_query(len(results))
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rn_size(self) -> int:
        """``|R_N|`` — the minimized element count of Theorem 1."""
        return len(self._records)

    def non_redundant(self) -> List[StreamElement]:
        """The elements of ``R_N``, oldest first."""
        return [record.element for _, record in self._labels.items()]

    def critical_parent(self, kappa: int) -> Optional[StreamElement]:
        """The critical dominator of the ``R_N`` element labelled
        ``kappa`` (``None`` for roots)."""
        record = self._records[kappa]
        if record.parent_kappa == 0:
            return None
        return self._records[record.parent_kappa].element

    def children_of(self, kappa: int) -> List[StreamElement]:
        """Elements critically dominated by the element labelled
        ``kappa``, sorted by arrival."""
        record = self._records[kappa]
        return [self._records[c].element for c in sorted(record.children)]

    def dominance_graph_edges(self) -> List[tuple]:
        """All critical-dominance edges as ``(parent_kappa, child_kappa)``
        pairs (``parent_kappa == 0`` for roots)."""
        return sorted(
            (record.parent_kappa, kappa) for kappa, record in self._records.items()
        )

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify cross-structure consistency, the forest property and
        the paper's theorems over the current state.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_nofn

        verify_nofn(self)
