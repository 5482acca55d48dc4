"""Unit and property tests for the dominance index's R-tree surface.

The paper's R-tree is realised as :class:`SoARTree`, a one-level index
of blocks over pooled arrays.  Covers the mechanics (insert, block
split, delete, repack) and — crucially for the paper — the two
dominance-oriented searches: dominance reporting and the best-first
max-kappa dominator search (section 3.3, Figure 7), each against brute
force.  Trees that must span many blocks use ``block_capacity=4``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import weakly_dominates
from repro.exceptions import (
    DimensionMismatchError,
    DuplicateKeyError,
    KeyNotFoundError,
)
from repro.structures.rtree_soa import SoARTree


def brute_dominated(points, q):
    return sorted(k for k, p in points.items() if weakly_dominates(q, p))


def brute_best_dominator(points, q, kappa_below=None):
    eligible = [
        k
        for k, p in points.items()
        if weakly_dominates(p, q)
        and (kappa_below is None or k < kappa_below)
    ]
    return max(eligible) if eligible else None


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            SoARTree(0)
        with pytest.raises(ValueError, match="max_entries"):
            SoARTree(2, max_entries=3)

    def test_empty_tree(self):
        tree = SoARTree(2)
        assert len(tree) == 0
        assert not tree
        assert tree.report_dominated((0.0, 0.0)) == []
        assert tree.max_kappa_dominator((0.0, 0.0)) is None
        tree.check_invariants()


class TestInsert:
    def test_insert_and_lookup(self):
        tree = SoARTree(2)
        entry = tree.insert((0.5, 0.5), kappa=1, data="payload")
        assert list(tree.entries()) == [entry]
        assert entry.data == "payload"
        assert 1 in tree

    def test_duplicate_kappa_rejected(self):
        tree = SoARTree(2)
        tree.insert((0.1, 0.1), kappa=1)
        with pytest.raises(DuplicateKeyError):
            tree.insert((0.9, 0.9), kappa=1)

    def test_wrong_dimension_rejected(self):
        tree = SoARTree(2)
        with pytest.raises(DimensionMismatchError):
            tree.insert((0.1,), kappa=1)

    def test_split_adds_blocks(self):
        tree = SoARTree(2, max_entries=4, block_capacity=4)
        for i in range(30):
            tree.insert((i / 30, (i * 7 % 30) / 30), kappa=i + 1)
        assert tree.active_blocks() >= 30 // 4
        tree.check_invariants()

    def test_duplicate_points_different_kappas(self):
        tree = SoARTree(2)
        tree.insert((0.5, 0.5), kappa=1)
        tree.insert((0.5, 0.5), kappa=2)
        assert len(tree) == 2
        assert sorted(e.kappa for e in tree.report_dominated((0.5, 0.5))) == [1, 2]


class TestDelete:
    def test_delete_returns_entry(self):
        tree = SoARTree(2)
        tree.insert((0.2, 0.2), kappa=1, data="x")
        entry = tree.delete(1)
        assert entry.data == "x"
        assert len(tree) == 0
        tree.check_invariants()

    def test_delete_missing_raises(self):
        with pytest.raises(KeyNotFoundError):
            SoARTree(2).delete(7)

    def test_delete_triggers_repack(self):
        tree = SoARTree(2, max_entries=4, block_capacity=4)
        rng = random.Random(1)
        for i in range(40):
            tree.insert((rng.random(), rng.random()), kappa=i + 1)
        spread = tree.active_blocks()
        for i in range(1, 36):
            tree.delete(i)
            tree.check_invariants()
        assert len(tree) == 5
        # Low occupancy repacks the five survivors into dense blocks.
        assert tree.active_blocks() <= 3 < spread

    def test_interleaved_insert_delete(self):
        tree = SoARTree(3, max_entries=6, block_capacity=6)
        rng = random.Random(4)
        live = {}
        kappa = 0
        for step in range(500):
            if live and rng.random() < 0.4:
                victim = rng.choice(list(live))
                tree.delete(victim)
                del live[victim]
            else:
                kappa += 1
                point = tuple(rng.random() for _ in range(3))
                tree.insert(point, kappa)
                live[kappa] = point
            if step % 25 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert sorted(e.kappa for e in tree.entries()) == sorted(live)


class TestDominanceReporting:
    def test_reports_weakly_dominated_only(self):
        tree = SoARTree(2)
        tree.insert((0.5, 0.5), kappa=1)
        tree.insert((0.4, 0.6), kappa=2)
        tree.insert((0.6, 0.6), kappa=3)
        got = sorted(e.kappa for e in tree.report_dominated((0.5, 0.5)))
        assert got == [1, 3]  # (0.4, 0.6) trades off, not dominated

    def test_report_is_non_destructive(self):
        tree = SoARTree(2)
        tree.insert((0.7, 0.7), kappa=1)
        tree.report_dominated((0.0, 0.0))
        assert len(tree) == 1

    def test_remove_dominated_unlinks_and_rebalances(self):
        tree = SoARTree(2, max_entries=4, block_capacity=4)
        rng = random.Random(8)
        live = {}
        for i in range(60):
            point = (rng.random(), rng.random())
            tree.insert(point, i + 1)
            live[i + 1] = point
        q = (0.3, 0.3)
        removed = sorted(e.kappa for e in tree.remove_dominated(q))
        assert removed == brute_dominated(live, q)
        for kappa in removed:
            assert kappa not in tree
            del live[kappa]
        tree.check_invariants()
        assert len(tree) == len(live)

    def test_l_corner_harvests_whole_block(self):
        tree = SoARTree(2, max_entries=4, block_capacity=4)
        # A tight cluster that q dominates entirely.
        for i in range(20):
            tree.insert((0.8 + i * 0.002, 0.8 + i * 0.003), kappa=i + 1)
        removed = tree.remove_dominated((0.0, 0.0))
        assert len(removed) == 20
        assert len(tree) == 0
        tree.check_invariants()


class TestBestFirstDominator:
    def test_returns_youngest_dominator(self):
        tree = SoARTree(2)
        tree.insert((0.2, 0.2), kappa=1)
        tree.insert((0.3, 0.1), kappa=5)
        tree.insert((0.9, 0.9), kappa=9)  # not a dominator of q
        found = tree.max_kappa_dominator((0.4, 0.4))
        assert found is not None and found.kappa == 5

    def test_none_when_no_dominator(self):
        tree = SoARTree(2)
        tree.insert((0.5, 0.5), kappa=1)
        assert tree.max_kappa_dominator((0.4, 0.6)) is None

    def test_equal_point_weakly_dominates(self):
        tree = SoARTree(2)
        tree.insert((0.5, 0.5), kappa=3)
        found = tree.max_kappa_dominator((0.5, 0.5))
        assert found is not None and found.kappa == 3

    def test_kappa_below_excludes_young_entries(self):
        tree = SoARTree(2)
        tree.insert((0.2, 0.2), kappa=1)
        tree.insert((0.1, 0.1), kappa=8)
        found = tree.max_kappa_dominator((0.5, 0.5), kappa_below=8)
        assert found is not None and found.kappa == 1

    def test_kappa_below_can_empty_the_answer(self):
        tree = SoARTree(2)
        tree.insert((0.1, 0.1), kappa=8)
        assert tree.max_kappa_dominator((0.5, 0.5), kappa_below=8) is None


coords = st.floats(min_value=0, max_value=1, allow_nan=False, width=32)


class TestSearchProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(coords, coords, coords), max_size=60),
        st.tuples(coords, coords, coords),
    )
    def test_searches_match_brute_force(self, raw_points, q):
        tree = SoARTree(3, max_entries=5, block_capacity=5)
        live = {}
        for i, point in enumerate(raw_points):
            tree.insert(point, i + 1)
            live[i + 1] = point
        got = sorted(e.kappa for e in tree.report_dominated(q))
        assert got == brute_dominated(live, q)
        best = tree.max_kappa_dominator(q)
        assert (best.kappa if best else None) == brute_best_dominator(live, q)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=50),
        st.tuples(coords, coords),
        st.integers(1, 50),
    )
    def test_constrained_dominator_matches_brute_force(self, raw_points, q, cutoff):
        tree = SoARTree(2, max_entries=4, block_capacity=4)
        live = {}
        for i, point in enumerate(raw_points):
            tree.insert(point, i + 1)
            live[i + 1] = point
        best = tree.max_kappa_dominator(q, kappa_below=cutoff)
        assert (best.kappa if best else None) == brute_best_dominator(
            live, q, kappa_below=cutoff
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(coords, coords), max_size=50),
           st.tuples(coords, coords))
    def test_remove_dominated_equals_report(self, raw_points, q):
        tree = SoARTree(2, max_entries=4, block_capacity=4)
        for i, point in enumerate(raw_points):
            tree.insert(point, i + 1)
        reported = sorted(e.kappa for e in tree.report_dominated(q))
        removed = sorted(e.kappa for e in tree.remove_dominated(q))
        assert reported == removed
        tree.check_invariants()
