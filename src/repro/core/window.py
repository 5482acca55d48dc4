"""One skeleton for the sliding-window engines.

Algorithm 1 (n-of-N), its k-skyband generalisation and Algorithm 4
((n1,n2)-of-N) run the same per-arrival loop:

1. expire the elements whose label fell below the window start;
2. find the newcomer's youngest older weak dominators (one for the
   skyline engines — the critical dominator — ``k`` for the k-skyband);
3. report the elements the newcomer weakly dominates;
4. install the newcomer: its interval, label, record and index entry.

They differ only in *policy*: what a dominated element does (Alg. 1
drops it, the skyband counts it toward ``k``, Alg. 4 demotes it with
``b_e``), how a newcomer's interval low is derived, and — for
:class:`~repro.core.timewindow.TimeWindowSkyline` — what a label is.
:class:`WindowCore` owns everything else: the knobs, the dominance
index, the interval slots and their stab memo, the label set, the
stats, the sanitizer hook, the per-arrival loop, the batched chunk
frame and the introspection surface.  Subclasses fill in the policy
hooks (``_new_record``, ``_low``, ``_dominated``, ``_expire`` and, where
needed, ``_park`` / ``_release``).

**The chunk frame.**  ``append_many`` slices a batch into chunks and
runs each with the dominance index *frozen*: both chunk-wide searches
(:meth:`SoARTree.report_dominated_batch`,
:meth:`SoARTree.max_kappa_dominator_batch`) run once up front against
the chunk-start state, every index mutation is deferred (a delete of a
member inserted earlier in the same chunk just cancels the insert), and
the chunk flushes with one :meth:`SoARTree.delete_many` and one
:meth:`SoARTree.insert_many`.  The intra-chunk prefilter
(:class:`~repro.accel.batch_prefilter.BatchPrefilter`, at the engine's
depth) proves which members die to a younger member of the same chunk;
those are *parked* — logically retained until their killer arrives, but
never indexed.  Per-element semantics are reconstructed exactly: frozen
answers are only used while their element is still alive, and a
member's dominators merge the chunk's own members (youngest first; any
live one outranks the whole index, chunk kappas being the largest) with
the frozen index answer, walked past entries that died mid-chunk.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    Any,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.accel.batch_prefilter import (
    BatchPrefilter,
    iter_chunks,
    resolve_batch_chunk,
)
from repro.accel.stab_cache import StabCache
from repro.core.element import StreamElement
from repro.core.events import ArrivalOutcome
from repro.core.stats import EngineStats
from repro.exceptions import (
    DimensionMismatchError,
    InvalidWindowError,
    StructureCorruptionError,
)
from repro.sanitize.sanitizer import InvariantSanitizer, SanitizeArg
from repro.structures.interval_tree import IntervalTree
from repro.structures.labelset import LabelSet
from repro.structures.rtree_soa import DEFAULT_MAX_ENTRIES, SoAEntry, SoARTree

R = TypeVar("R")


def batch_elements(
    dim: int,
    seen: int,
    points: Sequence[Sequence[float]],
    payloads: Optional[Sequence[Any]],
) -> List[StreamElement]:
    """The elements ``seen + 1, seen + 2, ...`` for a batch, validated
    before anything is ingested (all-or-nothing ingestion).

    Raises
    ------
    ValueError
        If ``payloads`` disagrees with ``points`` in length, or a value
        is invalid.
    DimensionMismatchError
        If a point does not have ``dim`` coordinates.
    """
    pts = list(points)
    if payloads is None:
        payloads = [None] * len(pts)
    elif len(payloads) != len(pts):
        raise ValueError(f"got {len(pts)} points but {len(payloads)} payloads")
    elements = []
    for offset, (values, payload) in enumerate(zip(pts, payloads)):
        element = StreamElement(values, seen + offset + 1, payload)
        if len(element.values) != dim:
            raise DimensionMismatchError(dim, len(element.values))
        elements.append(element)
    return elements


def _record_kappa(record: Any) -> int:
    """Query-order sort key (module-level so the cache can share it)."""
    return int(record.element.kappa)


def _kappa_of(found: List[Any]) -> int:
    """Kappa of the youngest dominator found (0 when there is none)."""
    return int(found[0].element.kappa) if found else 0


class WindowCore(Generic[R]):
    """The engine skeleton shared by the sliding-window engines.

    Parameters
    ----------
    dim:
        Dimensionality of the stream's value vectors.
    capacity:
        ``N`` — the window size.
    rtree_max_entries:
        Fan-out of the dominance index
        (:class:`~repro.structures.rtree_soa.SoARTree`): its block
        capacity is ``max(32, 4 * rtree_max_entries)``.  Must be
        ``>= 4``.
    sanitize:
        Runtime invariant checking: ``"off"`` (default), ``"sampled"``,
        ``"full"``, or a ready-made
        :class:`~repro.sanitize.InvariantSanitizer` to share between
        engines.  See :mod:`repro.sanitize`.
    batch_chunk:
        Slice size of the :meth:`append_many` pipeline (``None`` — the
        default — means :data:`repro.accel.batch_prefilter.CHUNK`).
        Larger chunks amortise more index work per NumPy call; chunks
        are also the granularity of sanitizer verification during a
        batch.  Must be ``>= 1``.
    depth:
        How many younger weak dominators remove an element (``k`` of
        the k-skyband; 1 for the skyline engines).  It is the depth of
        the intra-chunk prefilter and the number of older dominators
        each newcomer looks for.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        rtree_max_entries: int = DEFAULT_MAX_ENTRIES,
        sanitize: SanitizeArg = "off",
        batch_chunk: Optional[int] = None,
        depth: int = 1,
    ) -> None:
        if capacity < 1:
            raise InvalidWindowError(f"capacity must be >= 1, got {capacity}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.capacity = capacity
        self._depth = depth
        self._batch_chunk = resolve_batch_chunk(batch_chunk)
        self._sanitizer = InvariantSanitizer.coerce(sanitize)
        self._m = 0
        self._records: Dict[int, R] = {}
        self._labels: LabelSet[R] = LabelSet()
        self._intervals: IntervalTree[R] = IntervalTree()
        # Queries stab through a per-span memo; answers come back sorted
        # by kappa, so the query path never re-sorts.
        self._stab_cache: StabCache[R] = StabCache(
            self._intervals, sort_key=_record_kappa
        )
        self._rtree = SoARTree(dim, max_entries=rtree_max_entries)
        self.stats = EngineStats()
        # Deferred index mutations of the chunk in flight (see _unindex).
        self._frozen = False
        self._deletes: List[int] = []
        self._inserts: Dict[int, R] = {}

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------

    def _new_record(
        self, element: StreamElement, label: float, found: List[R]
    ) -> R:
        """The newcomer's record, linked to its older dominators
        ``found`` (youngest first, at most ``depth``)."""
        raise NotImplementedError

    def _low(self, record: R, found: List[R]) -> float:
        """The low end of a surviving newcomer's interval."""
        raise NotImplementedError

    def _dominated(self, record: R, kappa: int) -> bool:
        """Apply arrival ``kappa``'s dominance to a retained element;
        return whether it leaves the index (the caller removes the
        entry)."""
        raise NotImplementedError

    def _expire(self, record: R) -> Any:
        """Remove an element that left the window (through
        :meth:`_unindex`); return what the arrival outcome reports."""
        raise NotImplementedError

    def _park(self, record: R, killer: int) -> None:
        """A chunk member the prefilter proved dies at arrival
        ``killer`` of the same chunk: it is never indexed."""

    def _release(self, record: R, pending: Dict[int, R]) -> None:
        """A parked member's killer arrived (``pending`` holds the
        members still parked)."""

    def _alive(self, kappa: int) -> Optional[R]:
        """The indexed element labelled ``kappa``, or ``None`` if it
        left the index since a frozen answer named it."""
        return self._records.get(kappa)

    def _note_arrival(self, label: float) -> None:
        """Per-arrival clock bookkeeping (the time window advances
        ``now``)."""

    def _window_start(self, label: float) -> float:
        """Labels strictly below this value have left the window when
        the element labelled ``label`` arrives."""
        return label - self.capacity + 1

    def _batch_chunk_size(self) -> int:
        """Elements per chunk of the batched pipeline."""
        return self._batch_chunk

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _batch_elements(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]],
    ) -> List[StreamElement]:
        return batch_elements(self.dim, self._m, points, payloads)

    def _unindex(self, kappa: int) -> None:
        """Drop ``kappa`` from the dominance index: at once, or inside a
        chunk (index frozen) by cancelling its deferred insert or else
        queueing a deferred delete."""
        if not self._frozen:
            self._rtree.delete(kappa)
        elif self._inserts.pop(kappa, None) is None:
            self._deletes.append(kappa)

    def _retain(self, record: Any, label: float, low: float) -> None:
        """Install a surviving newcomer's interval ``(low, label]``,
        label and record (the index entry is the caller's)."""
        record.handle = self._intervals.insert(low, label, record)
        self._labels.append(label, record)
        self._records[record.element.kappa] = record

    def _expire_due(self, label: float, pending: Dict[int, R]) -> List[Any]:
        """Expire every retained element whose label fell below the
        window start, oldest first.  Parked members cannot expire here
        (the chunk spans less than a window)."""
        threshold = self._window_start(label)
        expired = []
        labels = self._labels
        while labels:
            oldest_label, oldest = labels.oldest()
            if oldest_label >= threshold:
                break
            expired.append(self._expire(oldest))
        return expired

    def _dominators(
        self,
        element: StreamElement,
        chunk: Sequence[StreamElement],
        intra: Iterable[int],
        entry: Optional[SoAEntry],
        pending: Dict[int, R],
    ) -> List[R]:
        """Up to ``depth`` youngest live older weak dominators of
        ``element``: first the members ``chunk[h]`` for ``h`` in
        ``intra`` (youngest first), then the index answer ``entry``,
        walked down past entries that died since it was computed.

        Exact twins are skipped: an older duplicate never counts against
        the newcomer (DESIGN.md §7; it is among the newcomer's own
        victims), so the search may run before this arrival's
        dominance is applied.
        """
        values = element.values
        depth = self._depth
        found: List[R] = []
        for h in intra:
            kappa = chunk[h].kappa
            record: Any = pending.get(kappa) or self._alive(kappa)
            # Duplicate-identity check (tie rule), not a dominance test.
            if record is not None and chunk[h].values != values:  # lint: skip=REPRO004
                found.append(record)
                if len(found) == depth:
                    return found
        while entry is not None:
            record = self._alive(entry.kappa)
            # Duplicate-identity check (tie rule), as above.
            if record is not None and entry.point != values:  # lint: skip=REPRO004
                found.append(record)
                if len(found) == depth:
                    break
            entry = self._rtree.max_kappa_dominator(values, kappa_below=entry.kappa)
        return found

    def _arrive(self, element: StreamElement, label: float) -> ArrivalOutcome:
        """One arrival against the live index (``self._m`` is already
        ``element.kappa``)."""
        self._note_arrival(label)
        values = element.values
        kappa = element.kappa
        expired = self._expire_due(label, {})
        rtree = self._rtree
        found = self._dominators(
            element, (), (), rtree.max_kappa_dominator(values), {}
        )
        removed: List[StreamElement] = []
        # At depth 1 every dominated element leaves the index, so one
        # remove_dominated call both reports and deletes them.
        if self._depth == 1:
            for entry in rtree.remove_dominated(values):
                self._dominated(entry.data, kappa)
                removed.append(entry.data.element)
        else:
            for entry in rtree.report_dominated(values):
                if self._dominated(entry.data, kappa):
                    rtree.delete(entry.kappa)
                    removed.append(entry.data.element)
        record = self._new_record(element, label, found)
        self._retain(record, label, self._low(record, found))
        rtree.insert(values, kappa, record)
        self.stats.record_arrival(
            expired=len(expired),
            dominated=len(removed),
            rn_size=len(self._intervals),
        )
        if self._sanitizer is not None:
            self._sanitizer.maybe_verify(self)
        return ArrivalOutcome(
            element=element,
            seen_so_far=kappa,
            dominated_removed=tuple(removed),
            parent_kappa=_kappa_of(found),
            expired=tuple(expired),
        )

    def _ingest(
        self,
        elements: List[StreamElement],
        labels: List[float],
        outcomes: Optional[List[ArrivalOutcome]] = None,
    ) -> int:
        """Run validated elements (kappas increasing) through the chunk
        frame as one timed batch, appending one outcome per element to
        ``outcomes`` when given; return the prefilter's drop count."""
        started = perf_counter()
        dropped = 0
        for lo, hi in iter_chunks(len(elements), self._batch_chunk_size()):
            dropped += self._arrive_chunk(elements[lo:hi], labels[lo:hi], outcomes)
            if self._sanitizer is not None:
                self._sanitizer.maybe_verify(self)
        self.stats.record_batch(
            size=len(elements), dropped=dropped, seconds=perf_counter() - started
        )
        return dropped

    def _arrive_chunk(
        self,
        chunk: List[StreamElement],
        labels: List[float],
        outcomes: Optional[List[ArrivalOutcome]],
    ) -> int:
        """Ingest one chunk with the index frozen (module docstring);
        return how many members the prefilter kept out of the index."""
        points = [e.values for e in chunk]
        depth = self._depth
        pre = BatchPrefilter(points, k=depth)
        rtree = self._rtree
        victims = rtree.report_dominated_batch(points, first_only=depth == 1)
        frozen = rtree.max_kappa_dominator_batch(points)
        # Once-per-chunk expiry gate: thresholds are monotone, so if
        # neither the oldest label nor the chunk's first one falls below
        # the window start of the chunk's last arrival, nothing expires.
        threshold = self._window_start(labels[-1])
        may_expire = labels[0] < threshold or (
            bool(self._labels) and self._labels.oldest()[0] < threshold
        )
        pending: Dict[int, R] = {}
        self._frozen = True
        try:
            for i, element in enumerate(chunk):
                kappa = element.kappa
                label = labels[i]
                self._m = kappa
                self._note_arrival(label)
                expired = self._expire_due(label, pending) if may_expire else []
                doomed = pre.is_doomed(i)
                # At depth > 1 a parked member's dominators are never
                # read (it gets no interval); at depth 1 they are its
                # critical parent.
                found = [] if doomed and depth > 1 else self._dominators(
                    element,
                    chunk,
                    pre.older_weak_dominators(i),
                    frozen[i],
                    pending,
                )
                removed: List[StreamElement] = []
                for entry in victims[i]:
                    victim = self._alive(entry.kappa)
                    if victim is not None and self._dominated(victim, kappa):
                        self._unindex(entry.kappa)
                        removed.append(entry.data.element)
                if depth > 1:
                    # Chunk survivors this arrival dominates (at depth 1
                    # every such member is parked).  The prefilter keeps
                    # them below ``depth``: none may leave.
                    for h in pre.older_weak_victims(i):
                        survivor = self._alive(chunk[h].kappa)
                        if survivor is not None and self._dominated(survivor, kappa):
                            raise StructureCorruptionError(
                                f"chunk survivor {chunk[h].kappa} reached "
                                f"{depth} younger dominators at {kappa}"
                            )
                for h in pre.killed_at(i):
                    parked = pending.pop(chunk[h].kappa, None)
                    if parked is not None:  # else expired already
                        self._release(parked, pending)
                        removed.append(chunk[h])
                record = self._new_record(element, label, found)
                if doomed:
                    pending[kappa] = record
                    self._park(record, chunk[pre.kill[i]].kappa)
                else:
                    self._retain(record, label, self._low(record, found))
                    self._inserts[kappa] = record
                self.stats.record_arrival(
                    expired=len(expired),
                    dominated=len(removed),
                    rn_size=len(self._intervals) + len(pending),
                )
                if outcomes is not None:
                    outcomes.append(
                        ArrivalOutcome(
                            element=element,
                            seen_so_far=kappa,
                            dominated_removed=tuple(removed),
                            parent_kappa=_kappa_of(found),
                            expired=tuple(expired),
                        )
                    )
        finally:
            self._frozen = False
        if pending:
            raise StructureCorruptionError(
                f"{len(pending)} doomed batch members survived their chunk"
            )
        self._flush()
        return pre.dropped

    def _flush(self) -> None:
        """Apply the chunk's deferred deletes and inserts."""
        if self._deletes:
            self._rtree.delete_many(self._deletes)
        if self._inserts:
            survivors: List[Any] = list(self._inserts.values())
            self._rtree.insert_many(
                [r.element.values for r in survivors],
                [r.element.kappa for r in survivors],
                survivors,
            )
        self._deletes = []
        self._inserts = {}

    def _stab_point(self, n: int) -> Optional[int]:
        """The stab point of an n-of-N query (``None`` before the first
        arrival)."""
        if not 1 <= n <= self.capacity:
            raise InvalidWindowError(
                f"n must be in [1, {self.capacity}], got {n}"
            )
        if self._m == 0:
            return None
        # A query for more elements than have arrived degenerates to the
        # answer over everything seen so far (stab point clamps to 1).
        return max(1, self._m - n + 1)

    def _answer(self, stab: Optional[float]) -> List[StreamElement]:
        """The elements owning the intervals stabbed at ``stab`` (none
        for ``None``), kappa-ascending; counts one query."""
        records: List[Any] = [] if stab is None else self._stab_cache.stab(stab)
        self.stats.record_query(len(records))
        return [r.element for r in records]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def seen_so_far(self) -> int:
        """``M`` — number of elements ingested."""
        return self._m

    @property
    def sanitizer(self) -> Optional[InvariantSanitizer]:
        """The attached sanitizer, or ``None`` when checking is off."""
        return self._sanitizer

    @property
    def sanitize_mode(self) -> str:
        """The active sanitize mode (``"off"`` when none is attached)."""
        return "off" if self._sanitizer is None else self._sanitizer.mode

    @property
    def structure_version(self) -> int:
        """Monotonic version of the interval encoding; bumps on every
        arrival, expiry, dominance ejection and re-rooting (anything
        that can change a query answer)."""
        return self._intervals.version

    @property
    def stab_cache(self) -> StabCache[R]:
        """The stab memo queries answer through."""
        return self._stab_cache

    @property
    def batch_chunk(self) -> int:
        """Effective :meth:`append_many` chunk size (the ``batch_chunk``
        knob, with ``None`` resolved to the module default)."""
        return self._batch_chunk

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/rebuild counters of the stab memo."""
        return self._stab_cache.stats()

    def __len__(self) -> int:
        return len(self._records)

