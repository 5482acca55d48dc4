"""Unit and property tests for the stabbing-query interval structure.

The reference for every stab is :func:`reference_stab`, a pure-Python
scan over the live handles' ``(low, high]``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidIntervalError
from repro.structures.interval_tree import IntervalTree


def reference_stab(live, t, key=None):
    """Payloads of ``live`` (handle -> ``(low, high, payload)``) with
    ``low < t <= high``: ordered by ``key`` when given, otherwise by
    ``(low, high, slot)`` — the order :meth:`IntervalTree.stab`
    documents."""
    hits = [
        (low, high, handle._slot, data)
        for handle, (low, high, data) in live.items()
        if low < t <= high
    ]
    if key is not None:
        return sorted((hit[3] for hit in hits), key=key)
    return [hit[3] for hit in sorted(hits, key=lambda hit: hit[:3])]


class TestInterval:
    def test_half_open_membership(self):
        tree = IntervalTree()
        tree.insert(2.0, 5.0, "x")
        assert tree.stab(2.0) == []  # open at the low end
        assert tree.stab(2.0001) == ["x"]
        assert tree.stab(5.0) == ["x"]  # closed at the high end
        assert tree.stab(5.0001) == []

    def test_degenerate_interval_rejected(self):
        tree = IntervalTree()
        with pytest.raises(InvalidIntervalError):
            tree.insert(3.0, 3.0, "a")
        with pytest.raises(InvalidIntervalError):
            tree.insert(4.0, 3.0, "a")
        assert len(tree) == 0 and tree.version == 0
        tree.check_invariants()

    def test_infinite_high_allowed(self):
        tree = IntervalTree()
        tree.insert(0.0, math.inf, "live")
        assert tree.stab(1e12) == ["live"]


class TestStabbing:
    def test_empty_tree_stabs_nothing(self):
        assert IntervalTree().stab(1.0) == []

    def test_paper_example_encoding(self):
        """Example 3 of the paper: intervals (0,3], (0,4], (3,7],
        (4,5], (4,6]; stabbing with M-n+1 = 2 returns c and e."""
        tree = IntervalTree()
        tree.insert(0, 3, "c")
        tree.insert(0, 4, "e")
        tree.insert(3, 7, "h")
        tree.insert(4, 5, "f")
        tree.insert(4, 6, "g")
        assert sorted(tree.stab(2)) == ["c", "e"]
        # n = 3 -> stab 5: f (4,5], g (4,6] and h (3,7] are all stabbed.
        assert sorted(tree.stab(5)) == ["f", "g", "h"]
        # n = 7 -> stab 1: only the roots.
        assert sorted(tree.stab(1)) == ["c", "e"]

    def test_duplicate_endpoints_coexist(self):
        tree = IntervalTree()
        a = tree.insert(1, 5, "a")
        b = tree.insert(1, 5, "b")
        assert sorted(tree.stab(3)) == ["a", "b"]
        tree.remove(a)
        assert tree.stab(3) == ["b"]
        assert tree.endpoints(b) == (1.0, 5.0)

    def test_infinite_intervals_always_stabbed_above_low(self):
        tree = IntervalTree()
        tree.insert(10, math.inf, "live")
        assert tree.stab(11) == ["live"]
        assert tree.stab(10) == []


class TestUpdates:
    def test_remove_by_handle(self):
        tree = IntervalTree()
        h = tree.insert(0, 10, "x")
        tree.insert(5, 15, "y")
        tree.remove(h)
        assert tree.stab(7) == ["y"]
        assert len(tree) == 1

    def test_replace_rewrites_endpoints_keeps_payload(self):
        tree = IntervalTree()
        h = tree.insert(4, 9, "child")
        h2 = tree.replace(h, 0, 9)
        assert tree.stab(2) == ["child"]
        assert tree.endpoints(h2) == (0.0, 9.0)
        assert len(tree) == 1

    def test_len_and_iteration(self):
        tree = IntervalTree()
        tree.insert(0, 2, "b")
        tree.insert(0, 1, "a")
        assert len(tree) == 2 and bool(tree)
        lows, highs, data = tree.sorted_slots()
        assert (lows.tolist(), highs.tolist(), data) == (
            [0.0, 0.0], [1.0, 2.0], ["a", "b"]
        )

    def test_many_updates_keep_invariants(self):
        tree = IntervalTree()
        rng = random.Random(3)
        handles = []
        for step in range(600):
            if handles and rng.random() < 0.45:
                handles.pop(rng.randrange(len(handles)))
                # removal via replace half the time exercises both paths
                continue
            lo = rng.randint(0, 50)
            hi = lo + rng.randint(1, 50)
            handles.append(tree.insert(lo, hi, step))
        # The tree only grew here; now remove all and re-check.
        tree.check_invariants()


class TestVersioning:
    def test_insert_and_remove_each_bump(self):
        tree = IntervalTree()
        v0 = tree.version
        h = tree.insert(0, 5, "a")
        assert tree.version == v0 + 1
        tree.insert(1, 6, "b")
        assert tree.version == v0 + 2
        tree.remove(h)
        assert tree.version == v0 + 3

    def test_replace_bumps_twice(self):
        tree = IntervalTree()
        h = tree.insert(4, 9, "child")
        v = tree.version
        tree.replace(h, 0, 9)
        assert tree.version == v + 2

    def test_reads_do_not_bump(self):
        tree = IntervalTree()
        tree.insert(0, 5, "a")
        v = tree.version
        tree.stab(3)
        tree.sorted_slots()
        tree.slots()
        len(tree)
        tree.check_invariants()
        assert tree.version == v


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 40)), max_size=80
)


class TestStabbingProperties:
    @settings(max_examples=60, deadline=None)
    @given(intervals_strategy, st.lists(st.integers(0, 100), max_size=10),
           st.integers(0, 100))
    def test_matches_linear_scan(self, spans, removals, stab_at):
        tree = IntervalTree()
        live = {}
        handles = {}
        for i, (lo, width) in enumerate(spans):
            live[i] = (lo, lo + width)
            handles[i] = tree.insert(lo, lo + width, i)
        for r in removals:
            if r in handles:
                tree.remove(handles.pop(r))
                del live[r]
        got = sorted(tree.stab(stab_at))
        expected = sorted(
            i for i, (lo, hi) in live.items() if lo < stab_at <= hi
        )
        assert got == expected
        tree.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(intervals_strategy)
    def test_insert_remove_all_leaves_empty(self, spans):
        tree = IntervalTree()
        handles = [tree.insert(lo, lo + w, i) for i, (lo, w) in enumerate(spans)]
        random.Random(1).shuffle(handles)
        for h in handles:
            tree.remove(h)
            tree.check_invariants()
        assert len(tree) == 0
        assert tree.stab(5) == []


endpoint = st.integers(0, 6)
write = st.one_of(
    st.tuples(st.just("insert"), endpoint, st.integers(1, 4), st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("replace"), st.integers(0, 10**6), endpoint, st.integers(1, 4)),
    st.tuples(st.just("key")),
)
#: Stab points on, between and outside the endpoint grid.
STABS = (-1, 0, 0.5, 1, 2.5, 3, 4, 5.5, 7, 9, 11, 1e9)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(write, min_size=1, max_size=60), st.integers(0, 90))
    def test_stab_matches_reference_under_interleaving(self, writes, preload):
        """Random inserts, removals and endpoint swaps (duplicate
        endpoints, ``inf`` highs, slot reuse, growth past the initial
        capacity), with a sort key attached mid-life whose values turn
        from ``int`` to ``float`` partway (promoting the key array to
        objects): after every step the stab at each point equals the
        reference and the slots pass their own check."""
        tree = IntervalTree()
        live = {}
        for i in range(preload):
            low = float(i % 7)
            live[tree.insert(low, low + 1.0, i)] = (low, low + 1.0, i)
        next_id = preload
        key = None
        for op in writes:
            if op[0] == "insert":
                _, low, width, unbounded = op
                high = math.inf if unbounded else float(low + width)
                live[tree.insert(float(low), high, next_id)] = (
                    float(low), high, next_id,
                )
                next_id += 1
            elif op[0] == "key":
                if key is None:
                    promote_at = next_id + 3
                    key = lambda d: -d if d < promote_at else float(-d)
                    tree.set_sort_key(key)
            elif live:
                handles = list(live)
                handle = handles[op[1] % len(handles)]
                _, _, data = live.pop(handle)
                if op[0] == "remove":
                    tree.remove(handle)
                else:
                    low, high = float(op[2]), float(op[2] + op[3])
                    live[tree.replace(handle, low, high)] = (low, high, data)
            tree.check_invariants()
            assert len(tree) == len(live)
            for t in STABS:
                assert tree.stab(t) == reference_stab(live, t, key)
