"""Tests for the struct-of-arrays R-tree (``structures/rtree_soa.py``).

Three concerns:

* *mechanics* — construction, growth, and the block summaries the BBS
  baseline walks;
* *parity* — the index answers every dominance search identically to
  brute force over random interleavings of
  insert/delete/remove_dominated;
* *seeded corruption* — one deliberate tamper per invariant id,
  mirroring ``tests/test_sanitizer.py``: the pooled arrays must be
  auditable under the ``rtree-*`` invariant names.
"""

from __future__ import annotations

import random

import pytest

from repro import NofNSkyline
from repro.core.dominance import weakly_dominates
from repro.exceptions import (
    DimensionMismatchError,
    DuplicateKeyError,
    StructureCorruptionError,
)
from repro.structures.rtree_soa import SoARTree


def fed_tree(count=60, dim=2, seed=3, **kwargs):
    tree = SoARTree(dim, **kwargs)
    rng = random.Random(seed)
    for kappa in range(1, count + 1):
        tree.insert(tuple(rng.random() for _ in range(dim)), kappa)
    return tree


def brute_dominated(live, q):
    """Kappas weakly dominated by ``q``, ascending."""
    return sorted(k for k, p in live.items() if weakly_dominates(q, p))


def brute_dominators(live, q, kappa_below=None):
    """Kappas weakly dominating ``q`` (below ``kappa_below``), youngest
    first."""
    return sorted(
        (
            k for k, p in live.items()
            if weakly_dominates(p, q)
            and (kappa_below is None or k < kappa_below)
        ),
        reverse=True,
    )


def invariant_of(excinfo):
    report = excinfo.value.report
    assert report is not None, "corruption error must carry a report"
    return report.invariant


# ----------------------------------------------------------------------
# Construction / basic mechanics
# ----------------------------------------------------------------------


class TestSoAMechanics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SoARTree(0)
        with pytest.raises(ValueError):
            SoARTree(2, max_entries=3)

    def test_duplicate_kappa_rejected(self):
        tree = SoARTree(2)
        tree.insert((0.5, 0.5), 1)
        with pytest.raises(DuplicateKeyError):
            tree.insert((0.2, 0.2), 1)

    def test_wrong_dimension_rejected(self):
        tree = SoARTree(2)
        with pytest.raises(DimensionMismatchError):
            tree.insert((0.1, 0.2, 0.3), 1)

    def test_insert_delete_roundtrip(self):
        tree = fed_tree(count=100)
        assert len(tree) == 100
        for kappa in range(1, 101):
            assert kappa in tree
            tree.delete(kappa)
        assert len(tree) == 0
        tree.check_invariants()

    def test_entry_points_stay_tuples(self):
        # Engine duplicate checks compare ``entry.point != values``
        # against tuples; an ndarray row here would silently break them.
        tree = fed_tree(count=5)
        for entry in tree.entries():
            assert type(entry.point) is tuple

    def test_growth_past_initial_blocks(self):
        tree = fed_tree(count=2000, block_capacity=32)
        assert len(tree) == 2000
        tree.check_invariants()

    def test_blocks_cover_every_entry_with_tight_corners(self):
        tree = fed_tree(count=300, dim=3, block_capacity=8)
        for kappa in range(1, 300, 3):
            tree.delete(kappa)  # leaves dirty summaries behind
        seen = []
        for corner, entries in tree.blocks():
            assert entries
            lower = tuple(
                min(e.point[axis] for e in entries) for axis in range(3)
            )
            assert corner == lower
            seen.extend(e.kappa for e in entries)
        assert sorted(seen) == sorted(e.kappa for e in tree.entries())
        tree.check_invariants()


# ----------------------------------------------------------------------
# Parity with brute force
# ----------------------------------------------------------------------


class TestSoAParity:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_random_interleaving_matches_brute_force(self, dim):
        rng = random.Random(100 + dim)
        soa = SoARTree(dim, block_capacity=32)
        live = {}
        kappa = 0
        for _ in range(1200):
            op = rng.random()
            q = tuple(rng.random() for _ in range(dim))
            if op < 0.55 or not live:
                kappa += 1
                soa.insert(q, kappa)
                live[kappa] = q
            elif op < 0.70:
                victim = rng.choice(list(live))
                soa.delete(victim)
                del live[victim]
            elif op < 0.80:
                got = [e.kappa for e in soa.remove_dominated(q)]
                assert got == brute_dominated(live, q)
                for k in got:
                    del live[k]
            elif op < 0.90:
                got = [e.kappa for e in soa.report_dominated(q)]
                assert got == brute_dominated(live, q)
            else:
                cutoff = rng.choice([None, kappa // 2 + 1])
                got = soa.max_kappa_dominator(q, cutoff)
                want = brute_dominators(live, q, cutoff)
                assert (got.kappa if got else None) == (
                    want[0] if want else None
                )
            soa.check_invariants()


class TestReportPruning:
    @staticmethod
    def mirror_visits(tree, q):
        """Independent re-statement of the pruning contract: a block is
        expanded iff its (tight) upper corner is weakly above ``q``."""
        return sum(
            all(
                q[axis] <= max(e.point[axis] for e in entries)
                for axis in range(tree.dim)
            )
            for _, entries in tree.blocks()
        )

    def test_visit_counts_match_mirror(self):
        rng = random.Random(42)
        tree = SoARTree(3, max_entries=4, block_capacity=4)
        live = {}
        for kappa in range(1, 301):
            live[kappa] = tuple(rng.randint(0, 50) for _ in range(3))
            tree.insert(live[kappa], kappa)
        pruned_somewhere = False
        for _ in range(25):
            q = tuple(rng.randint(0, 50) for _ in range(3))
            got = [e.kappa for e in tree.report_dominated(q)]
            assert got == brute_dominated(live, q)
            assert tree.last_report_visits == self.mirror_visits(tree, q)
            if tree.last_report_visits < tree.active_blocks():
                pruned_somewhere = True
        assert pruned_somewhere

    def test_high_probe_visits_nothing(self):
        """A probe dominating nothing and outside every candidate region
        must not expand a single block."""
        tree = SoARTree(2, max_entries=4, block_capacity=4)
        for kappa in range(1, 30):
            tree.insert((kappa % 5, kappa % 7), kappa)
        assert tree.report_dominated((100, 100)) == []
        assert tree.last_report_visits == 0

    def test_empty_tree_visits_nothing(self):
        tree = SoARTree(2)
        assert tree.report_dominated((0, 0)) == []
        assert tree.last_report_visits == 0


# ----------------------------------------------------------------------
# Seeded corruption: one tamper per invariant id
# ----------------------------------------------------------------------


class TestSoACorruption:
    def _live_block(self, tree):
        return next(
            b for b in range(len(tree._blk_len)) if tree._blk_len[b]
        )

    def test_point_matrix_tamper_is_kernel_cache(self):
        tree = fed_tree()
        b = self._live_block(tree)
        tree._points[b * tree.block_capacity][0] += 0.125
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-kernel-cache"

    def test_kappa_matrix_tamper_is_kernel_cache(self):
        tree = fed_tree()
        b = self._live_block(tree)
        tree._kappas[b * tree.block_capacity] += 1000
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-kernel-cache"

    def test_summary_box_tamper_is_mbr(self):
        tree = fed_tree()
        b = self._live_block(tree)
        # Raising the lower corner breaks tight AND conservative
        # summaries, so the tamper is caught whether or not the block
        # happens to be dirty.
        tree._blk_lower[b] += 0.25
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-mbr"

    def test_max_kappa_tamper_is_augmentation(self):
        tree = fed_tree()
        b = self._live_block(tree)
        tree._blk_maxk[b] = -5
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-augmentation"

    def test_dropped_index_entry_is_count(self):
        tree = fed_tree()
        del tree._entries[next(iter(tree._entries))]
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-count"

    def test_row_link_tamper_is_links(self):
        tree = fed_tree()
        entry = next(iter(tree._entries.values()))
        entry.row += 1 if entry.row % tree.block_capacity == 0 else -1
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-links"

    def test_overfull_block_length_is_fanout(self):
        tree = fed_tree(count=100, block_capacity=32)
        b1, b2 = [
            b for b in range(len(tree._blk_len)) if tree._blk_len[b]
        ][:2]
        # Move the surplus to a later block so the total row count
        # stays honest: the overfull length itself must be what fires,
        # not the count mismatch it would otherwise cause.
        surplus = tree.block_capacity + 1 - int(tree._blk_len[b1])
        tree._blk_len[b1] = tree.block_capacity + 1
        tree._blk_len[b2] -= surplus
        with pytest.raises(StructureCorruptionError) as excinfo:
            tree.check_invariants()
        assert invariant_of(excinfo) == "rtree-fanout"

    def test_engine_sanitizer_sees_soa_tampering(self):
        # The full n-of-N verifier must surface index corruption under
        # the index's own invariant id.
        engine = NofNSkyline(2, 12)
        rng = random.Random(4)
        for _ in range(40):
            engine.append((rng.random(), rng.random()))
        tree = engine._rtree
        tree._kappas[self._live_block(tree) * tree.block_capacity] += 99
        with pytest.raises(StructureCorruptionError) as excinfo:
            engine.check_invariants()
        assert invariant_of(excinfo) == "rtree-kernel-cache"
