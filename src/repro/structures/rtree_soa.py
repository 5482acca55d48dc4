"""Struct-of-arrays dominance index over ``R_N`` (the SoA R-tree).

The paper keeps ``R_N`` in an in-memory R-tree and answers two searches
over it per arrival: Figure 7a's dominance reporting (everything the
newcomer weakly dominates) and Figure 7b's best-first search for the
critical dominator.  This module answers the same searches over a
one-level index of flat arrays instead of a pointer tree:

* all points live in one pooled ``(rows, dim)`` float64 matrix with a
  parallel ``(rows,)`` int64 kappa vector;
* a "node" is a **block** — an index range ``[b*B, b*B + len_b)`` into
  the pooled arrays, with live rows kept contiguous by swap-with-last
  deletion;
* per-block summaries (lower/upper corner, ``max_kappa``) are stored as
  small NumPy matrices of their own, so the Figure 7 candidate-region
  tests run over *all* blocks in one broadcasted comparison, and each
  surviving block is answered by one reduction over its slice.

``report_dominated`` / ``remove_dominated`` / ``max_kappa_dominator``
therefore do two vectorised passes (block mask, then per-block slice
reduction) instead of a per-entry Python walk.

Expiry is batched by design: :meth:`SoARTree.delete` is an O(1) swap
that marks the block's summary dirty, and summaries are re-derived
lazily (:meth:`SoARTree._refresh`) at the start of the next search, so
a window slide that expires E elements costs one summary recompute per
touched block instead of E rebalances.  Stale summaries are only ever
*conservative* supersets (deletion shrinks the true box, insertion
extends the stored box), so pruning stays sound in between refreshes.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as _np

from repro.exceptions import (
    DimensionMismatchError,
    DuplicateKeyError,
    KeyNotFoundError,
    corruption,
)

Point = Tuple[float, ...]

#: Default fan-out (Guttman's M); the block capacity is derived from it.
DEFAULT_MAX_ENTRIES = 12

#: Fraction below which average block occupancy triggers a repack.
_REPACK_OCCUPANCY = 0.35

#: Fill fraction a repack packs blocks to (headroom for new inserts).
_REPACK_FILL = 0.75


class SoAEntry:
    """A stored record: a point, its arrival label and a payload.

    ``row`` is the entry's current index into the pooled arrays; it
    changes under swap-with-last deletion and repacking, and is ``-1``
    once the entry has been removed.
    """

    __slots__ = ("point", "kappa", "data", "row")

    def __init__(self, point: Point, kappa: int, data: Any) -> None:
        self.point = point
        self.kappa = kappa
        self.data = data
        self.row = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SoAEntry(kappa={self.kappa}, point={self.point})"


class SoARTree:
    """Struct-of-arrays dominance index with the R-tree search surface.

    Parameters
    ----------
    dim:
        Dimensionality of stored points.
    max_entries:
        Fan-out bound of an R-tree node (``>= 4``); the block capacity
        is derived from it.
    block_capacity:
        Rows per block; defaults to ``max(32, 4 * max_entries)``.
    """

    def __init__(
        self,
        dim: int,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        block_capacity: Optional[int] = None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        if max_entries < 4:
            raise ValueError(f"need max_entries >= 4, got {max_entries}")
        self.dim = dim
        self.max_entries = max_entries
        if block_capacity is None:
            block_capacity = max(32, 4 * max_entries)
        if block_capacity < 2:
            raise ValueError(
                f"block_capacity must be >= 2, got {block_capacity}"
            )
        self.block_capacity = block_capacity
        #: Blocks expanded by the most recent ``report_dominated`` call
        #: (instrumentation).
        self.last_report_visits = 0
        blocks = 4
        rows = blocks * block_capacity
        self._points = _np.zeros((rows, dim), dtype=_np.float64)
        self._kappas = _np.full(rows, -1, dtype=_np.int64)
        self._rows: List[Optional[SoAEntry]] = [None] * rows
        self._blk_len = _np.zeros(blocks, dtype=_np.int64)
        self._blk_lower = _np.full((blocks, dim), _np.inf, dtype=_np.float64)
        self._blk_upper = _np.full((blocks, dim), -_np.inf, dtype=_np.float64)
        self._blk_maxk = _np.full(blocks, -1, dtype=_np.int64)
        self._free = list(range(blocks - 1, -1, -1))
        self._dirty: Set[int] = set()
        self._entries: Dict[int, SoAEntry] = {}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, kappa: int) -> bool:
        return kappa in self._entries

    def entries(self) -> Iterator[SoAEntry]:
        """Iterate all entries (arbitrary deterministic order)."""
        return iter(list(self._entries.values()))

    def active_blocks(self) -> int:
        """Number of non-empty blocks (introspection/benchmarks)."""
        return int((self._blk_len > 0).sum())

    def blocks(self) -> Iterator[Tuple[Point, List[SoAEntry]]]:
        """Yield ``(lower corner, entries)`` for every non-empty block.

        Summaries are refreshed first, so each corner is tight.  Used
        by the best-first BBS baseline, which keys a block by its
        lower corner before expanding it into points.
        """
        self._refresh()
        cap = self.block_capacity
        for b in _np.flatnonzero(self._blk_len > 0).tolist():
            start = b * cap
            owners = self._rows[start:start + int(self._blk_len[b])]
            corner = tuple(self._blk_lower[b].tolist())
            yield corner, [e for e in owners if e is not None]

    # ------------------------------------------------------------------
    # Block bookkeeping
    # ------------------------------------------------------------------

    def _alloc_block(self) -> int:
        if not self._free:
            self._grow()
        return int(self._free.pop())

    def _grow(self) -> None:
        """Double the block pool (amortised array growth)."""
        old = int(self._blk_len.shape[0])
        new = old * 2
        cap = self.block_capacity
        self._points = _np.vstack(
            [self._points, _np.zeros((old * cap, self.dim))]
        )
        self._kappas = _np.concatenate(
            [self._kappas, _np.full(old * cap, -1, dtype=_np.int64)]
        )
        self._rows.extend([None] * (old * cap))
        self._blk_len = _np.concatenate(
            [self._blk_len, _np.zeros(old, dtype=_np.int64)]
        )
        self._blk_lower = _np.vstack(
            [self._blk_lower, _np.full((old, self.dim), _np.inf)]
        )
        self._blk_upper = _np.vstack(
            [self._blk_upper, _np.full((old, self.dim), -_np.inf)]
        )
        self._blk_maxk = _np.concatenate(
            [self._blk_maxk, _np.full(old, -1, dtype=_np.int64)]
        )
        self._free.extend(range(new - 1, old - 1, -1))

    def _release_block(self, b: int) -> None:
        """Return an emptied block slot to the free pool."""
        self._blk_lower[b] = _np.inf
        self._blk_upper[b] = -_np.inf
        self._blk_maxk[b] = -1
        self._blk_len[b] = 0
        self._dirty.discard(b)
        self._free.append(b)

    def _refresh(self) -> None:
        """Re-derive tight summaries for every dirty block.

        Called at the start of each search: deletions in between only
        *shrink* a block's true extent, so the stored summary stays a
        conservative superset and pruning in the interim remains sound;
        refreshing here restores exact pruning at one recompute per
        touched block per slide, however many elements expired.
        """
        if not self._dirty:
            return
        cap = self.block_capacity
        for b in self._dirty:
            length = int(self._blk_len[b])
            start = b * cap
            pts = self._points[start:start + length]
            self._blk_lower[b] = pts.min(axis=0)
            self._blk_upper[b] = pts.max(axis=0)
            self._blk_maxk[b] = self._kappas[start:start + length].max()
        self._dirty.clear()

    def _recompute_block(self, b: int) -> None:
        """Tight summary for one block (empty blocks are released)."""
        length = int(self._blk_len[b])
        if length == 0:
            self._release_block(b)
            return
        cap = self.block_capacity
        start = b * cap
        pts = self._points[start:start + length]
        self._blk_lower[b] = pts.min(axis=0)
        self._blk_upper[b] = pts.max(axis=0)
        self._blk_maxk[b] = self._kappas[start:start + length].max()
        self._dirty.discard(b)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(
        self, point: Sequence[float], kappa: int, data: Any = None
    ) -> SoAEntry:
        """Insert ``point`` with arrival label ``kappa``.

        Raises
        ------
        DuplicateKeyError
            If an entry with this ``kappa`` already exists.
        DimensionMismatchError
            If the point has the wrong dimensionality.
        """
        if len(point) != self.dim:
            raise DimensionMismatchError(self.dim, len(point))
        if kappa in self._entries:
            raise DuplicateKeyError(
                f"entry with kappa={kappa} already present"
            )
        coords = tuple(float(v) for v in point)
        probe = _np.asarray(coords, dtype=_np.float64)
        entry = SoAEntry(coords, kappa, data)
        self._entries[kappa] = entry
        b = self._choose_block(probe)
        if int(self._blk_len[b]) >= self.block_capacity:
            b = self._split_block(b, probe)
        cap = self.block_capacity
        row = b * cap + int(self._blk_len[b])
        self._points[row] = probe
        self._kappas[row] = kappa
        self._rows[row] = entry
        entry.row = row
        self._blk_len[b] += 1
        # Extend the summary in place: exact when the block was tight,
        # still conservative when it was dirty.
        _np.minimum(self._blk_lower[b], probe, out=self._blk_lower[b])
        _np.maximum(self._blk_upper[b], probe, out=self._blk_upper[b])
        if kappa > int(self._blk_maxk[b]):
            self._blk_maxk[b] = kappa
        return entry

    def _choose_block(self, probe: Any) -> int:
        """Guttman ChooseLeaf over blocks: least enlargement, then least
        area, then fewest occupants (all vectorised)."""
        active = _np.flatnonzero(self._blk_len > 0)
        if active.size == 0:
            return self._alloc_block()
        lower = self._blk_lower[active]
        upper = self._blk_upper[active]
        area = _np.prod(upper - lower, axis=1)
        grown = _np.prod(
            _np.maximum(upper, probe) - _np.minimum(lower, probe), axis=1
        )
        enlargement = grown - area
        # Argmin cascade instead of a three-key lexsort: each tie-break
        # only materialises when the previous key actually ties, which
        # is the common case for key one (zero enlargement) but rare
        # after that.  Picks the identical block to the stable lexsort
        # (first index among the minimal triples).
        cand = _np.flatnonzero(enlargement == enlargement.min())
        if cand.size > 1:
            sub_area = area[cand]
            cand = cand[sub_area == sub_area.min()]
            if cand.size > 1:
                sub_len = self._blk_len[active[cand]]
                cand = cand[sub_len == sub_len.min()]
        return int(active[cand[0]])

    def _split_block(self, b: int, probe: Any) -> int:
        """Split a full block by median along its widest axis; return
        whichever half needs less enlargement for ``probe``."""
        cap = self.block_capacity
        start = b * cap
        length = int(self._blk_len[b])
        pts = self._points[start:start + length].copy()
        kappas = self._kappas[start:start + length].copy()
        owners = self._rows[start:start + length]
        axis = int(_np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = _np.argsort(pts[:, axis], kind="stable")
        half = length // 2
        sibling = self._alloc_block()
        for target, picks in ((b, order[:half]), (sibling, order[half:])):
            tstart = target * cap
            self._points[tstart:tstart + picks.size] = pts[picks]
            self._kappas[tstart:tstart + picks.size] = kappas[picks]
            for offset, src in enumerate(picks.tolist()):
                owner = owners[src]
                self._rows[tstart + offset] = owner
                if owner is not None:
                    owner.row = tstart + offset
            for row in range(tstart + picks.size, tstart + cap):
                self._rows[row] = None
            self._blk_len[target] = picks.size
            self._recompute_block(target)
        grow_b = self._enlargement_of(b, probe)
        grow_s = self._enlargement_of(sibling, probe)
        return b if grow_b <= grow_s else sibling

    def _enlargement_of(self, b: int, probe: Any) -> float:
        lower = self._blk_lower[b]
        upper = self._blk_upper[b]
        grown = _np.prod(
            _np.maximum(upper, probe) - _np.minimum(lower, probe)
        )
        return float(grown - _np.prod(upper - lower))

    # ------------------------------------------------------------------
    # Deletion (batched-expiry path)
    # ------------------------------------------------------------------

    def delete(self, kappa: int) -> SoAEntry:
        """Remove the entry labelled ``kappa``.

        O(1): the row is swapped with its block's last live row and the
        block's summary is marked dirty — re-derivation is deferred to
        the next search, so a whole window slide of expiries costs one
        summary recompute per touched block.
        """
        entry = self._entries.pop(kappa, None)
        if entry is None:
            raise KeyNotFoundError(f"no entry with kappa={kappa}")
        row = entry.row
        cap = self.block_capacity
        b = row // cap
        last = b * cap + int(self._blk_len[b]) - 1
        if row != last:
            mover = self._rows[last]
            self._points[row] = self._points[last]
            self._kappas[row] = self._kappas[last]
            self._rows[row] = mover
            if mover is not None:
                mover.row = row
        self._rows[last] = None
        self._blk_len[b] -= 1
        entry.row = -1
        if int(self._blk_len[b]) == 0:
            self._release_block(b)
        else:
            self._dirty.add(b)
        self._maybe_repack()
        return entry

    def _maybe_repack(self) -> None:
        """Repack when average occupancy decays below the threshold.

        Long-running expiry can strand many near-empty blocks whose
        summaries still cost a visit each; packing the survivors into
        ~:data:`_REPACK_FILL`-full blocks (sorted for spatial locality)
        restores dense slices.
        """
        live = len(self._entries)
        active = int((self._blk_len > 0).sum())
        if active <= 1:
            return
        if live >= _REPACK_OCCUPANCY * active * self.block_capacity:
            return
        entries = sorted(self._entries.values(), key=lambda e: e.point)
        cap = self.block_capacity
        fill = max(2, int(cap * _REPACK_FILL))
        blocks = int(self._blk_len.shape[0])
        self._rows = [None] * (blocks * cap)
        self._blk_len[:] = 0
        self._blk_lower[:] = _np.inf
        self._blk_upper[:] = -_np.inf
        self._blk_maxk[:] = -1
        self._dirty.clear()
        self._free = list(range(blocks - 1, -1, -1))
        for chunk_start in range(0, len(entries), fill):
            chunk = entries[chunk_start:chunk_start + fill]
            b = self._alloc_block()
            start = b * cap
            for offset, entry in enumerate(chunk):
                row = start + offset
                self._points[row] = entry.point
                self._kappas[row] = entry.kappa
                self._rows[row] = entry
                entry.row = row
            self._blk_len[b] = len(chunk)
            self._recompute_block(b)

    # ------------------------------------------------------------------
    # Dominance reporting (Figure 7a as block-mask + slice reductions)
    # ------------------------------------------------------------------

    def _candidate_blocks(self, probe: Any) -> Any:
        """Blocks whose box may contain points dominated by ``probe``
        (``probe <= upper`` on every axis), as an index array."""
        active = _np.flatnonzero(self._blk_len > 0)
        if active.size == 0:
            return active
        mask = (probe <= self._blk_upper[active]).all(axis=1)
        return active[mask]

    def report_dominated(self, q: Sequence[float]) -> List[SoAEntry]:
        """Entries weakly dominated by ``q`` (non-destructive), sorted
        by kappa.

        One broadcasted test selects candidate blocks (Figure 7a);
        blocks whose lower corner is dominated are harvested whole
        (l-corner shortcut); the rest are answered by a single
        reduction over their slice.  :attr:`last_report_visits` counts
        the blocks expanded.
        """
        if len(q) != self.dim:
            raise DimensionMismatchError(self.dim, len(q))
        self._refresh()
        probe = _np.asarray(q, dtype=_np.float64)
        out: List[SoAEntry] = []
        cand = self._candidate_blocks(probe)
        visits = 0
        cap = self.block_capacity
        if cand.size:
            whole = (probe <= self._blk_lower[cand]).all(axis=1)
            for b, harvest in zip(cand.tolist(), whole.tolist()):
                visits += 1
                start = b * cap
                length = int(self._blk_len[b])
                if harvest:
                    rows: Iterator[int] = iter(range(start, start + length))
                else:
                    hits = _np.flatnonzero(
                        (probe <= self._points[start:start + length]).all(
                            axis=1
                        )
                    )
                    rows = (start + i for i in hits.tolist())
                for row in rows:
                    owner = self._rows[row]
                    if owner is not None:
                        out.append(owner)
        self.last_report_visits = visits
        out.sort(key=lambda e: e.kappa)
        return out

    def remove_dominated(self, q: Sequence[float]) -> List[SoAEntry]:
        """Remove and return every entry weakly dominated by ``q``
        (Algorithm 1's ``D_{e_new}``), sorted by kappa.

        Survivors of each touched block are compacted in one gather;
        emptied blocks are released; summaries are re-derived tight
        immediately (the slice is already hot).
        """
        if len(q) != self.dim:
            raise DimensionMismatchError(self.dim, len(q))
        self._refresh()
        probe = _np.asarray(q, dtype=_np.float64)
        removed: List[SoAEntry] = []
        cand = self._candidate_blocks(probe)
        cap = self.block_capacity
        for b in cand.tolist():
            start = b * cap
            length = int(self._blk_len[b])
            if (probe <= self._blk_lower[b]).all():
                # l-corner: the whole block is dominated.
                for row in range(start, start + length):
                    owner = self._rows[row]
                    if owner is not None:
                        removed.append(owner)
                    self._rows[row] = None
                self._blk_len[b] = 0
                self._release_block(b)
                continue
            mask = (probe <= self._points[start:start + length]).all(axis=1)
            hits = _np.flatnonzero(mask)
            if hits.size == 0:
                continue
            keep = _np.flatnonzero(~mask)
            for i in hits.tolist():
                owner = self._rows[start + i]
                if owner is not None:
                    removed.append(owner)
            kept_rows = [self._rows[start + i] for i in keep.tolist()]
            self._points[start:start + keep.size] = (
                self._points[start + keep]
            )
            self._kappas[start:start + keep.size] = (
                self._kappas[start + keep]
            )
            for offset, owner in enumerate(kept_rows):
                self._rows[start + offset] = owner
                if owner is not None:
                    owner.row = start + offset
            for row in range(start + keep.size, start + length):
                self._rows[row] = None
            self._blk_len[b] = keep.size
            self._recompute_block(b)
        for entry in removed:
            del self._entries[entry.kappa]
            entry.row = -1
        if removed:
            self._maybe_repack()
        removed.sort(key=lambda e: e.kappa)
        return removed

    # ------------------------------------------------------------------
    # Best-first critical-dominator search (Figure 7b over blocks)
    # ------------------------------------------------------------------

    def max_kappa_dominator(
        self, q: Sequence[float], kappa_below: Optional[int] = None
    ) -> Optional[SoAEntry]:
        """The entry with the largest ``kappa`` weakly dominating ``q``
        (optionally restricted to ``kappa < kappa_below``), or ``None``.

        Candidate blocks (``lower <= q`` on every axis, Figure 7b) are
        visited in descending ``max_kappa`` order; once the best found
        kappa meets the next block's augmentation bound the scan stops
        — the block-level analogue of the paper's best-first pruning.
        """
        if len(q) != self.dim:
            raise DimensionMismatchError(self.dim, len(q))
        self._refresh()
        probe = _np.asarray(q, dtype=_np.float64)
        active = _np.flatnonzero(self._blk_len > 0)
        if active.size == 0:
            return None
        mask = (self._blk_lower[active] <= probe).all(axis=1)
        cand = active[mask]
        if cand.size == 0:
            return None
        order = cand[_np.argsort(-self._blk_maxk[cand], kind="stable")]
        cap = self.block_capacity
        best: Optional[SoAEntry] = None
        best_kappa = -1
        for b in order.tolist():
            if int(self._blk_maxk[b]) <= best_kappa:
                break
            start = b * cap
            length = int(self._blk_len[b])
            pts = self._points[start:start + length]
            hit = (pts <= probe).all(axis=1)
            if kappa_below is not None:
                hit &= self._kappas[start:start + length] < kappa_below
            idx = _np.flatnonzero(hit)
            if idx.size == 0:
                continue
            kappas = self._kappas[start:start + length][idx]
            top = int(_np.argmax(kappas))
            if int(kappas[top]) > best_kappa:
                best_kappa = int(kappas[top])
                best = self._rows[start + int(idx[top])]
        return best

    # ------------------------------------------------------------------
    # Bulk maintenance (batched-ingest pipeline)
    # ------------------------------------------------------------------

    def report_dominated_batch(
        self,
        points: Sequence[Sequence[float]],
        first_only: bool = True,
    ) -> List[List[SoAEntry]]:
        """Dominated entries for a whole chunk of probes in one pass.

        Returns one bucket per probe.  With ``first_only=True`` (the
        skyline engines) each dominated entry is attributed to the
        *earliest* probe that dominates it — exactly the arrival whose
        per-element ``remove_dominated`` call would have claimed it.
        With ``first_only=False`` (the k-skyband engine) an entry
        appears in the bucket of *every* probe dominating it, so each
        arrival can count its own younger-dominance hits.

        Candidacy is resolved *per probe* (probe against block upper
        corner, one ``m x B`` compare per dimension); the live rows of
        every reachable block are then harvested with one vectorised
        multi-arange and answered by a single dense ``m x rows``
        dominance mask, built one dimension at a time with in-place
        ``&=``.  (A per-block loop answers the same query with ~8 small
        ``numpy`` calls per visited block — overhead-dominated; and a
        joint chunk-envelope candidacy makes nearly every block a
        candidate once the chunk is spread — measured ~2x slower at
        d=5.)  Buckets are kappa-sorted, matching
        :meth:`report_dominated`.  Non-destructive: callers running the
        deferred-mutation ingest pipeline apply the removals later via
        :meth:`delete_many`.
        """
        buckets: List[List[SoAEntry]] = [[] for _ in range(len(points))]
        if not points:
            return buckets
        for p in points:
            if len(p) != self.dim:
                raise DimensionMismatchError(self.dim, len(p))
        self._refresh()
        probes = _np.asarray(
            [tuple(float(v) for v in p) for p in points], dtype=_np.float64
        )
        active = _np.flatnonzero(self._blk_len > 0)
        if active.size == 0:
            self.last_report_visits = 0
            return buckets
        # A probe can only dominate rows of blocks whose upper corner
        # it is below: per-probe candidacy, not the chunk's joint box.
        upper = self._blk_upper[active]
        cand_mat = probes[:, 0][:, None] <= upper[None, :, 0]
        for k in range(1, self.dim):
            cand_mat &= probes[:, k][:, None] <= upper[None, :, k]
        hit = cand_mat.any(axis=0)
        self.last_report_visits = int(hit.sum())
        bs = active[hit]
        if bs.size == 0:
            return buckets
        cap = self.block_capacity
        starts = (bs * cap).astype(_np.int64)
        lens = self._blk_len[bs].astype(_np.int64)
        total = int(lens.sum())
        rows = _np.repeat(starts, lens) + (
            _np.arange(total, dtype=_np.int64)
            - _np.repeat(_np.cumsum(lens) - lens, lens)
        )
        pts_t = _np.ascontiguousarray(self._points[rows].T)
        dom = probes[:, 0][:, None] <= pts_t[0][None, :]
        for k in range(1, self.dim):
            dom &= probes[:, k][:, None] <= pts_t[k][None, :]
        if first_only:
            cols = _np.flatnonzero(dom.any(axis=0))
            if cols.size:
                # Probes ascend in arrival order, so the axis-0 argmax
                # is the earliest probe dominating that row.
                first = dom[:, cols].argmax(axis=0)
                for col, pos in zip(cols.tolist(), first.tolist()):
                    owner = self._rows[int(rows[col])]
                    if owner is not None:
                        buckets[pos].append(owner)
        else:
            for pos, col in _np.argwhere(dom).tolist():
                owner = self._rows[int(rows[col])]
                if owner is not None:
                    buckets[pos].append(owner)
        for bucket in buckets:
            bucket.sort(key=lambda e: e.kappa)
        return buckets

    def max_kappa_dominator_batch(
        self, points: Sequence[Sequence[float]]
    ) -> List[Optional[SoAEntry]]:
        """The critical-dominator answer for a whole chunk at once.

        Equivalent to ``[max_kappa_dominator(p) for p in points]``:
        the live rows of every block some probe can reach (block lower
        corner below the probe) are harvested with one vectorised
        multi-arange, sorted once by descending ``kappa``, and swept in
        doubling segments — a probe drops out of the sweep at its first
        hit, which in descending-``kappa`` order *is* its critical
        dominator.  The doubling schedule is the chunk-wide analogue of
        the paper's best-first stop: most probes resolve inside the
        first segment (recent arrivals dominate most of the window), so
        the expensive full-depth scan is paid only by the few probes
        with no dominator at all.  (A per-block scan in descending
        ``max_kappa`` order answers the same query but spends ~10 small
        ``numpy`` calls per visited block; on a couple hundred blocks
        that overhead dwarfs the actual comparison work — measured ~5x
        slower at d=5.)
        """
        if not points:
            return []
        for p in points:
            if len(p) != self.dim:
                raise DimensionMismatchError(self.dim, len(p))
        self._refresh()
        m = len(points)
        probes = _np.asarray(
            [tuple(float(v) for v in p) for p in points], dtype=_np.float64
        )
        active = _np.flatnonzero(self._blk_len > 0)
        if active.size == 0:
            return [None] * m
        # A block can hold a dominator of some probe only if its lower
        # corner sits below the chunk's per-dimension upper envelope —
        # conservative (a superset of the exact per-probe union) but a
        # B x d test instead of a B x m x d broadcast, and the exact
        # dominance sweep below makes over-harvesting harmless.
        cand = (self._blk_lower[active] <= probes.max(axis=0)).all(axis=1)
        bs = active[cand]
        if bs.size == 0:
            return [None] * m
        cap = self.block_capacity
        starts = (bs * cap).astype(_np.int64)
        lens = self._blk_len[bs].astype(_np.int64)
        total = int(lens.sum())
        # Multi-arange: live row indices of all candidate blocks at once.
        rows = _np.repeat(starts, lens) + (
            _np.arange(total, dtype=_np.int64)
            - _np.repeat(_np.cumsum(lens) - lens, lens)
        )
        # Kappas are unique, so a plain ascending argsort reversed is
        # the descending order (no stability needed).
        rows = rows[_np.argsort(self._kappas[rows])[::-1]]
        # One transposed contiguous copy: the sweep then runs d small
        # 2D compares per segment instead of one strided 3D broadcast
        # plus an all-reduction (measured ~3x faster at d=5).
        pts_t = _np.ascontiguousarray(self._points[rows].T)
        best_row = _np.full(m, -1, dtype=_np.int64)
        alive = _np.arange(m, dtype=_np.int64)
        lo = 0
        seg = 1024
        while lo < total and alive.size:
            hi = min(total, lo + seg)
            pa = probes[alive]
            dom = pts_t[0, lo:hi][None, :] <= pa[:, 0][:, None]
            for k in range(1, self.dim):
                dom &= pts_t[k, lo:hi][None, :] <= pa[:, k][:, None]
            hit = dom.any(axis=1)
            if hit.any():
                # First hit in the segment = highest kappa (rows are
                # globally kappa-sorted and kappas are unique).
                first = dom[hit].argmax(axis=1)
                best_row[alive[hit]] = rows[lo + first]
                alive = alive[~hit]
            lo = hi
            seg *= 2
        return [
            self._rows[row] if row >= 0 else None
            for row in best_row.tolist()
        ]

    def delete_many(self, kappas: Sequence[int]) -> List[SoAEntry]:
        """Remove a whole chunk's victims in one pass per touched block.

        The batched-ingest analogue of per-victim :meth:`delete`:
        victims are grouped by block, each touched block's survivors
        are compacted with one gather, and the block is dirty-marked
        once — the single deferred re-summarise happens at the next
        search or :meth:`insert_many`.  At most one repack at the end.
        All-or-nothing: unknown or duplicated kappas raise before any
        mutation.  Returns the removed entries in argument order.
        """
        if not kappas:
            return []
        seen: Set[int] = set()
        for kappa in kappas:
            if kappa in seen:
                raise KeyNotFoundError(
                    f"kappa={kappa} repeated in delete_many"
                )
            seen.add(kappa)
            if kappa not in self._entries:
                raise KeyNotFoundError(f"no entry with kappa={kappa}")
        removed = [self._entries.pop(kappa) for kappa in kappas]
        cap = self.block_capacity
        by_block: Dict[int, List[SoAEntry]] = {}
        for entry in removed:
            by_block.setdefault(entry.row // cap, []).append(entry)
        for b, victims in by_block.items():
            start = b * cap
            length = int(self._blk_len[b])
            gone = {entry.row for entry in victims}
            keep = [
                row for row in range(start, start + length)
                if row not in gone
            ]
            if not keep:
                for row in range(start, start + length):
                    self._rows[row] = None
                self._blk_len[b] = 0
                self._release_block(b)
            else:
                keep_idx = _np.asarray(keep, dtype=_np.int64)
                self._points[start:start + len(keep)] = (
                    self._points[keep_idx]
                )
                self._kappas[start:start + len(keep)] = (
                    self._kappas[keep_idx]
                )
                kept_owners = [self._rows[row] for row in keep]
                for offset, owner in enumerate(kept_owners):
                    self._rows[start + offset] = owner
                    if owner is not None:
                        owner.row = start + offset
                for row in range(start + len(keep), start + length):
                    self._rows[row] = None
                self._blk_len[b] = len(keep)
                self._dirty.add(b)
            for entry in victims:
                entry.row = -1
        self._maybe_repack()
        return removed

    def insert_many(
        self,
        points: Sequence[Sequence[float]],
        kappas: Sequence[int],
        datas: Optional[Sequence[Any]] = None,
    ) -> List[SoAEntry]:
        """Insert a whole chunk's survivors in one validated pass.

        Placement is per-point adaptive Guttman — the same choose /
        split / in-place-extend routine as :meth:`insert`, so a
        bulk-built index is block-for-block as tight as a per-element
        one.  (A frozen mass placement — every point choosing against
        the chunk-start summaries at once — measured 3.5x looser block
        boxes and ~3.7x more block opens per subsequent probe: chunk
        survivors are frontier points, and assigning them by stale
        least-enlargement stretches interior blocks across the
        frontier.)  The batching win lives in the bulk searches and
        :meth:`delete_many`, not here; the single ``_refresh()`` up
        front tightens every block a preceding :meth:`delete_many`
        left dirty, which keeps the in-place summary extension exact.
        All-or-nothing on validation errors.
        """
        if len(points) != len(kappas):
            raise ValueError(
                f"insert_many got {len(points)} points but "
                f"{len(kappas)} kappas"
            )
        if datas is not None and len(datas) != len(points):
            raise ValueError(
                f"insert_many got {len(points)} points but "
                f"{len(datas)} payloads"
            )
        for p in points:
            if len(p) != self.dim:
                raise DimensionMismatchError(self.dim, len(p))
        fresh: Set[int] = set()
        for kappa in kappas:
            if kappa in self._entries or kappa in fresh:
                raise DuplicateKeyError(
                    f"entry with kappa={kappa} already present"
                )
            fresh.add(int(kappa))
        if not points:
            return []
        self._refresh()
        coords = [tuple(float(v) for v in p) for p in points]
        probes = _np.asarray(coords, dtype=_np.float64)
        cap = self.block_capacity
        entries: List[SoAEntry] = []
        # Chunk-local placement cache.  ``_choose_block`` re-derives
        # the active-block list and every block's area on each call;
        # across a chunk those change only at the block just extended
        # (or the rare split), so mirror them once and update the
        # touched row in place.  Choices are identical to per-element
        # ``insert``: same keys, same ascending block order.
        act = _np.flatnonzero(self._blk_len > 0).astype(_np.int64)
        low = self._blk_lower[act].copy()
        upp = self._blk_upper[act].copy()
        area = _np.prod(upp - low, axis=1)
        lens = self._blk_len[act].astype(_np.int64)

        def _rebuild() -> None:
            nonlocal act, low, upp, area, lens
            act = _np.flatnonzero(self._blk_len > 0).astype(_np.int64)
            low = self._blk_lower[act].copy()
            upp = self._blk_upper[act].copy()
            area = _np.prod(upp - low, axis=1)
            lens = self._blk_len[act].astype(_np.int64)

        for i, c in enumerate(coords):
            probe = probes[i]
            entry = SoAEntry(
                c, int(kappas[i]), None if datas is None else datas[i]
            )
            fast = False
            new_area = 0.0
            pos = -1
            if act.size:
                grown = _np.prod(
                    _np.maximum(upp, probe) - _np.minimum(low, probe),
                    axis=1,
                )
                enl = grown - area
                cand = _np.flatnonzero(enl == enl.min())
                if cand.size > 1:
                    sub_area = area[cand]
                    cand = cand[sub_area == sub_area.min()]
                    if cand.size > 1:
                        sub_len = lens[cand]
                        cand = cand[sub_len == sub_len.min()]
                pos = int(cand[0])
                if int(lens[pos]) < cap:
                    fast = True
                    new_area = float(grown[pos])
                    b = int(act[pos])
                else:
                    b = self._split_block(int(act[pos]), probe)
            else:
                b = self._alloc_block()
            if fast:
                row = b * cap + int(lens[pos])
                self._points[row] = probe
                self._kappas[row] = entry.kappa
                self._rows[row] = entry
                entry.row = row
                self._blk_len[b] += 1
                lens[pos] += 1
                lo_r = _np.minimum(low[pos], probe)
                up_r = _np.maximum(upp[pos], probe)
                low[pos] = lo_r
                upp[pos] = up_r
                self._blk_lower[b] = lo_r
                self._blk_upper[b] = up_r
                # ``grown[pos]`` *is* the block's area once extended.
                area[pos] = new_area
            else:
                # Fresh or just-split block: write through the global
                # arrays, then re-mirror the cache (rare).
                row = b * cap + int(self._blk_len[b])
                self._points[row] = probe
                self._kappas[row] = entry.kappa
                self._rows[row] = entry
                entry.row = row
                self._blk_len[b] += 1
                _np.minimum(
                    self._blk_lower[b], probe, out=self._blk_lower[b]
                )
                _np.maximum(
                    self._blk_upper[b], probe, out=self._blk_upper[b]
                )
                _rebuild()
            if entry.kappa > int(self._blk_maxk[b]):
                self._blk_maxk[b] = entry.kappa
            self._entries[entry.kappa] = entry
            entries.append(entry)
        return entries

    # ------------------------------------------------------------------
    # Validation (used by the sanitizer and the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structural invariants over the whole index.

        ``rtree-kernel-cache`` covers the pooled coordinate/kappa
        matrices: the matrix must mirror the entry objects row for row.
        Dirty blocks are *not* refreshed first: their summaries must
        still be conservative supersets.

        Raises
        ------
        StructureCorruptionError
            On the first violated property (survives ``python -O``).
        """
        cap = self.block_capacity
        blocks = int(self._blk_len.shape[0])
        total = int(self._blk_len.sum())
        if total != len(self._entries):
            raise corruption(
                "rtree",
                "rtree-count",
                f"entry count mismatch: blocks hold {total}, index has "
                f"{len(self._entries)}",
            )
        for b in range(blocks):
            length = int(self._blk_len[b])
            if length < 0 or length > cap:
                raise corruption(
                    "rtree",
                    "rtree-fanout",
                    f"block {b} holds {length} rows (capacity {cap})",
                )
            start = b * cap
            for offset in range(length):
                owner = self._rows[start + offset]
                if owner is None or owner.row != start + offset:
                    raise corruption(
                        "rtree",
                        "rtree-links",
                        f"row {start + offset} does not link back to its "
                        f"entry",
                    )
            for offset in range(length, cap):
                if self._rows[start + offset] is not None:
                    raise corruption(
                        "rtree",
                        "rtree-links",
                        f"ghost entry past block {b}'s live range",
                    )
            if length == 0:
                if int(self._blk_maxk[b]) != -1 or not (
                    self._blk_lower[b] == _np.inf
                ).all():
                    raise corruption(
                        "rtree",
                        "rtree-mbr",
                        f"empty block {b} has a non-empty summary",
                    )
                continue
            pts = self._points[start:start + length]
            kappas = self._kappas[start:start + length]
            for offset in range(length):
                owner = self._rows[start + offset]
                if owner is None:  # unreachable: link check above
                    continue
                if (
                    tuple(pts[offset].tolist()) != owner.point  # lint: skip=REPRO004
                    or int(kappas[offset]) != owner.kappa
                ):
                    raise corruption(
                        "rtree",
                        "rtree-kernel-cache",
                        "pooled coordinate/kappa matrix does not mirror "
                        "the entry objects",
                        kappas=(owner.kappa,),
                    )
            lower = pts.min(axis=0)
            upper = pts.max(axis=0)
            maxk = int(kappas.max())
            if b in self._dirty:
                if (self._blk_lower[b] > lower).any() or (
                    self._blk_upper[b] < upper
                ).any():
                    raise corruption(
                        "rtree",
                        "rtree-mbr",
                        f"dirty block {b} summary is not conservative",
                    )
                if int(self._blk_maxk[b]) < maxk:
                    raise corruption(
                        "rtree",
                        "rtree-augmentation",
                        f"dirty block {b} max-kappa below its rows",
                    )
            else:
                if (self._blk_lower[b] != lower).any() or (
                    self._blk_upper[b] != upper
                ).any():
                    raise corruption(
                        "rtree", "rtree-mbr", f"block {b} box not tight"
                    )
                if int(self._blk_maxk[b]) != maxk:
                    raise corruption(
                        "rtree",
                        "rtree-augmentation",
                        f"block {b} max-kappa {int(self._blk_maxk[b])} "
                        f"does not match its rows",
                    )
        rows_total = blocks * cap
        for kappa, entry in self._entries.items():
            if entry.kappa != kappa:
                raise corruption(
                    "rtree",
                    "rtree-links",
                    f"index key {kappa} holds entry labelled {entry.kappa}",
                    kappas=(kappa,),
                )
            row = entry.row
            if not 0 <= row < rows_total or self._rows[row] is not entry:
                raise corruption(
                    "rtree",
                    "rtree-links",
                    f"stale row link for kappa={kappa}",
                    kappas=(kappa,),
                )
            if row % cap >= int(self._blk_len[row // cap]):
                raise corruption(
                    "rtree",
                    "rtree-links",
                    f"entry kappa={kappa} sits past its block's live "
                    f"range",
                    kappas=(kappa,),
                )

