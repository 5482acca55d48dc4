"""(n1,n2)-of-N skyline queries (paper section 4).

An (n1,n2)-of-N query asks for the skyline of the elements between the
``n2``-th and the ``n1``-th most recent arrivals (``n1 <= n2 <= N``) —
recent "historic" information, with n-of-N as the special case
``n1 = 1``.

Unlike n-of-N processing, *all* of ``P_N`` must be retained (``n1``
could equal ``n2``).  Every element ``e`` carries two ancestors:

* ``a_e`` — the **critical ancestor**: youngest *older* dominator
  (Equation 1; ``0`` when none exists), and
* ``b_e`` — the **backward critical ancestor**: oldest *younger*
  dominator (Equation 2; ``infinity`` — stored as ``None`` — while no
  younger dominator exists, i.e. while ``e`` is in ``R_N``).

Theorem 4: ``e`` answers an (n1,n2)-of-N query iff ::

    kappa(a_e) < M - n2 + 1 <= kappa(e) <= M - n1 + 1 < kappa(b_e)

The edge set (the *CBC dominance graph*) is encoded as intervals
``(kappa(a_e), kappa(e)]`` annotated with ``kappa(b_e)`` and split over
two interval trees (Figure 11):

* ``I_RN`` — elements still in ``R_N`` (``b_e = infinity``), which is
  exactly the n-of-N structure of section 3.2, and
* ``I_RN-`` — superseded elements (finite ``b_e``).

Queries stab both trees with ``M - n2 + 1`` and post-filter on the
``b_e`` condition (Algorithm 3); maintenance (Algorithm 4) is
Algorithm 1's loop (the shared :class:`~repro.core.window.WindowCore`)
with dominated elements *demoted* from ``I_RN`` to ``I_RN-`` instead
of discarded.  Every element moves between the trees
at most once, keeping updates amortised ``O(log N)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.accel.stab_cache import StabCache
from repro.core.element import StreamElement
from repro.core.window import WindowCore
from repro.exceptions import InvalidWindowError, StructureCorruptionError
from repro.sanitize.sanitizer import SanitizeArg
from repro.structures.interval_tree import IntervalHandle, IntervalTree
from repro.structures.rtree_soa import DEFAULT_MAX_ENTRIES


class _WindowRecord:
    """Book-keeping for one element of ``P_N`` (CBC graph vertex)."""

    __slots__ = (
        "element",
        "a_kappa",
        "b_kappa",
        "handle",
        "in_rn",
        "dependents",
    )

    def __init__(self, element: StreamElement) -> None:
        self.element = element
        self.a_kappa: int = 0
        self.b_kappa: Optional[int] = None  # None encodes +infinity
        self.handle: Optional[IntervalHandle] = None
        self.in_rn = True
        #: kappas of elements whose critical ancestor is this element.
        self.dependents: Set[int] = set()


class N1N2Skyline(WindowCore[_WindowRecord]):
    """Sliding-window engine answering all (n1,n2)-of-N skyline queries.

    Parameters
    ----------
    dim, capacity, rtree_max_entries, sanitize, batch_chunk:
        As for :class:`~repro.core.window.WindowCore`; queries may use
        any ``1 <= n1 <= n2 <= capacity``.

    Notes
    -----
    ``I_RN`` is the skeleton's interval tree; ``I_RN-`` is a second one.
    Each has its own stab memo; the memoized answers are the *raw* stab
    lists, post-filtered per query on the Theorem-4 bounds.  The label
    set holds all of ``P_N``.

    Space is ``O(N)``: the whole window is retained, as section 4
    requires.  Use :class:`repro.core.nofn.NofNSkyline` when only
    ``n1 = 1`` queries are needed — it stores only ``R_N``.
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
        self._superseded: IntervalTree[_WindowRecord] = IntervalTree()  # I_RN-
        self._superseded_cache: StabCache[_WindowRecord] = StabCache(
            self._superseded
        )

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 4)
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
        — identical window contents, CBC-graph ancestors, query answers
        and maintenance stats afterwards — but faster on bursty feeds:
        batch members the vectorised intra-batch prefilter proves
        dominated by a younger same-batch member are installed as
        superseded records directly (their backward critical ancestor is
        already known), skipping the R-tree and ``I_RN`` insert/remove
        cycle entirely.

        Validation is all-or-nothing: dimension mismatches and invalid
        values raise before any engine state changes.
        """
        elements = self._batch_elements(points, payloads)
        self._ingest(elements, [e.kappa for e in elements])
        return elements

    def _batch_chunk_size(self) -> int:
        """At most ``capacity`` per chunk, so no chunk member can expire
        before its in-chunk dominator arrives."""
        return min(self._batch_chunk, self.capacity)

    # -- policy: a dominated element is demoted with b_e ----------------

    def _new_record(
        self,
        element: StreamElement,
        label: float,
        found: List[_WindowRecord],
    ) -> _WindowRecord:
        record = _WindowRecord(element)
        if found:  # the critical ancestor a_e
            parent = found[0]
            record.a_kappa = parent.element.kappa
            parent.dependents.add(element.kappa)
        return record

    def _low(self, record: _WindowRecord, found: List[_WindowRecord]) -> float:
        return float(record.a_kappa)

    def _alive(self, kappa: int) -> Optional[_WindowRecord]:
        record = self._records.get(kappa)
        return record if record is not None and record.in_rn else None

    def _dominated(self, record: _WindowRecord, kappa: int) -> bool:
        """Move a newly-dominated element from ``I_RN`` to ``I_RN-``:
        the newcomer ``kappa`` becomes its backward critical ancestor;
        its interval keeps the same endpoints."""
        self._intervals.remove(record.handle)
        record.handle = self._superseded.insert(
            float(record.a_kappa), float(record.element.kappa), record
        )
        record.b_kappa = kappa
        record.in_rn = False
        return True

    def _park(self, record: _WindowRecord, killer: int) -> None:
        """A member the prefilter proved dominated by younger chunk
        member ``killer`` is installed as superseded straight away: it
        is in ``P_N``, only never in the index."""
        record.b_kappa = killer
        record.in_rn = False
        record.handle = self._superseded.insert(
            float(record.a_kappa), float(record.element.kappa), record
        )
        self._labels.append(record.element.kappa, record)
        self._records[record.element.kappa] = record

    def _expire(self, record: _WindowRecord) -> _WindowRecord:
        """Drop the oldest window element, re-rooting its dependents."""
        if record.a_kappa != 0:
            raise StructureCorruptionError(
                f"expiring element {record.element.kappa} of P_N still has "
                f"a live critical ancestor ({record.a_kappa})"
            )
        for dep_kappa in sorted(record.dependents):
            dep = self._records[dep_kappa]
            tree = self._intervals if dep.in_rn else self._superseded
            dep.handle = tree.replace(dep.handle, 0.0, float(dep_kappa))
            dep.a_kappa = 0
        record.dependents.clear()
        tree = self._intervals if record.in_rn else self._superseded
        tree.remove(record.handle)
        record.handle = None
        if record.in_rn:
            self._unindex(record.element.kappa)
        self._labels.remove(record.element.kappa)
        del self._records[record.element.kappa]
        return record

    # ------------------------------------------------------------------
    # Query processing (Algorithm 3)
    # ------------------------------------------------------------------

    def query(self, n1: int, n2: int) -> List[StreamElement]:
        """Skyline of the elements between the ``n2``-th and ``n1``-th
        most recent arrivals, sorted by ``kappa``.

        Raises
        ------
        InvalidWindowError
            Unless ``1 <= n1 <= n2 <= capacity``.
        """
        if not 1 <= n1 <= n2 <= self.capacity:
            raise InvalidWindowError(
                f"need 1 <= n1 <= n2 <= {self.capacity}, got ({n1}, {n2})"
            )
        self.stats.queries += 1
        if self._m == 0:
            return []
        upper = self._m - n1 + 1  # kappa of the n1-th most recent element
        if upper < 1:
            return []  # the requested slice predates the stream
        stab = max(1, self._m - n2 + 1)

        results: List[StreamElement] = []
        for record in self._stab_cache.stab(stab):
            # Live elements have b = infinity; only the upper bound on
            # kappa(e) needs checking.
            if record.element.kappa <= upper:
                results.append(record.element)
        if n1 > 1:
            # Superseded elements have finite b <= M; they can only
            # qualify when the slice ends strictly before the present.
            for record in self._superseded_cache.stab(stab):
                if record.element.kappa <= upper < record.b_kappa:
                    results.append(record.element)
        results.sort(key=lambda e: e.kappa)
        self.stats.query_results += len(results)
        return results

    def query_nofn(self, n: int) -> List[StreamElement]:
        """The n-of-N special case (``n1 = 1``)."""
        return self.query(1, n)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def window_size(self) -> int:
        """Current ``|P_N|`` (= min(M, N))."""
        return len(self._records)

    @property
    def rn_size(self) -> int:
        """Current ``|R_N|`` within the window."""
        return len(self._intervals)

    def window_elements(self) -> List[StreamElement]:
        """Every element of ``P_N``, oldest first."""
        return [record.element for _, record in self._labels.items()]

    def ancestors(self, kappa: int) -> Tuple[int, Optional[int]]:
        """``(kappa(a_e), kappa(b_e))`` for the window element labelled
        ``kappa`` (``0`` means no critical ancestor; ``None`` means the
        backward critical ancestor does not exist yet)."""
        record = self._records[kappa]
        return record.a_kappa, record.b_kappa

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify CBC-graph and cross-structure consistency, with the
        Theorem-4 ancestors recomputed by brute force.

        Raises
        ------
        StructureCorruptionError
            On the first violated invariant (survives ``python -O``).
        """
        from repro.sanitize.checks import verify_n1n2

        verify_n1n2(self)

    @property
    def structure_version(self) -> int:
        """Monotonic version of the interval encoding: the sum of both
        trees' versions (every demotion, expiry or arrival bumps it)."""
        return self._intervals.version + self._superseded.version

    def cache_stats(self) -> Dict[str, int]:
        """Combined hit/miss/rebuild counters of the two stab memos."""
        merged = dict(self._stab_cache.stats())
        for key, value in self._superseded_cache.stats().items():
            merged[key] += value
        return merged


class ContinuousN1N2Query:
    """A continuous (n1,n2)-of-N query.

    The paper develops a space-efficient trigger algorithm for this case
    but omits it for space (section 4, final paragraph); following
    DESIGN.md §4, this wrapper maintains the result by re-running the
    stabbing query per arrival — the strategy the paper itself
    benchmarks as "running nN per new data element" in Figure 16 — and
    reports the per-arrival result delta so applications can react to
    changes only.
    """

    def __init__(self, engine: N1N2Skyline, n1: int, n2: int) -> None:
        if not 1 <= n1 <= n2 <= engine.capacity:
            raise InvalidWindowError(
                f"need 1 <= n1 <= n2 <= {engine.capacity}, got ({n1}, {n2})"
            )
        self.engine = engine
        self.n1 = n1
        self.n2 = n2
        self._current: List[StreamElement] = engine.query(n1, n2)

    def append(
        self, values: Sequence[float], payload: Any = None
    ) -> Tuple[List[StreamElement], List[StreamElement]]:
        """Feed one element; return ``(added, removed)`` result changes."""
        self.engine.append(values, payload)
        return self.refresh()

    def refresh(self) -> Tuple[List[StreamElement], List[StreamElement]]:
        """Recompute the result; return ``(added, removed)``."""
        fresh = self.engine.query(self.n1, self.n2)
        old = {e.kappa: e for e in self._current}
        new = {e.kappa: e for e in fresh}
        added = [e for k, e in new.items() if k not in old]
        removed = [e for k, e in old.items() if k not in new]
        self._current = fresh
        return added, removed

    def result(self) -> List[StreamElement]:
        """The current result, sorted by arrival position."""
        return list(self._current)
