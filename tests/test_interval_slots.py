"""Tests for the interval tree's write-maintained slot view.

The flat slot arrays are the read path of :class:`StabCache` and of the
shard replica export, while the red-black tree stays the source of
truth.  The property test drives random ``insert``/``remove``/``replace``
interleavings (duplicate endpoints, ``inf`` highs, slot reuse, growth
past the initial capacity) and checks, after every write, that both a
keyed and an unkeyed cache answer exactly what the tree answers, in the
documented order, that the compacted slots equal an ``intervals()``
walk, and that the memo counters move as the unit tests pin.  The
seeded corruptions of the slot view live in ``tests/test_sanitizer.py``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TimeWindowSkyline
from repro.accel import StabCache
from repro.structures.interval_tree import _INITIAL_SLOTS, IntervalTree

endpoint = st.integers(0, 6)
write = st.one_of(
    st.tuples(st.just("insert"), endpoint, st.integers(1, 4), st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("replace"), st.integers(0, 10**6), endpoint, st.integers(1, 4)),
)
#: Stab points on, between and outside the endpoint grid.
STABS = (-1, 0, 0.5, 1, 2.5, 3, 4, 5.5, 7, 9, 11, 1e9)


def by_walk(tree, t):
    """``tree.stab(t)`` in ``intervals()`` order: (low, high, slot)."""
    return [i.data for i in tree.intervals() if i.contains(t)]


def check_step(tree, keyed, plain):
    tree.check_invariants()
    lows, highs, data = plain.snapshot_arrays()
    walk = list(tree.intervals())
    assert lows.tolist() == [i.low for i in walk]
    assert highs.tolist() == [i.high for i in walk]
    assert data == [i.data for i in walk]
    assert keyed.snapshot_arrays()[2] == data
    for cache in (keyed, plain):
        assert not cache.is_fresh()
        before = cache.stats()
        for t in STABS:
            tree_answer = tree.stab(t)
            expected = (
                sorted(tree_answer) if cache is keyed else by_walk(tree, t)
            )
            assert sorted(expected) == sorted(tree_answer)
            assert cache.stab(t) == expected
            assert cache.stab(t) == expected  # a memo hit, same answer
        after = cache.stats()
        # One write -> one new version served; every repeat is a hit.
        assert after["rebuilds"] == before["rebuilds"] + 1
        assert after["hits"] - before["hits"] >= len(STABS)
        assert after["misses"] - before["misses"] <= len(STABS)
        assert after["snapshot_size"] == len(tree)


class TestSlotViewProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(write, min_size=1, max_size=60), st.integers(0, 90))
    def test_caches_mirror_tree_under_interleaving(self, writes, preload):
        tree = IntervalTree()
        handles = []
        for i in range(preload):  # growth past the initial capacity
            handles.append(tree.insert(float(i % 7), float(i % 7 + 1), i))
        next_id = len(handles)
        keyed = StabCache(tree, sort_key=lambda d: d)  # attach mid-life
        plain = StabCache(tree)
        for op in writes:
            if op[0] == "insert":
                _, low, width, unbounded = op
                high = math.inf if unbounded else float(low + width)
                handles.append(tree.insert(float(low), high, next_id))
                next_id += 1
            elif not handles:
                continue
            elif op[0] == "remove":
                tree.remove(handles.pop(op[1] % len(handles)))
            else:
                _, pick, low, width = op
                index = pick % len(handles)
                handles[index] = tree.replace(
                    handles[index], float(low), float(low + width)
                )
            check_step(tree, keyed, plain)

    def test_slot_reuse_and_growth(self):
        tree = IntervalTree()
        cache = StabCache(tree, sort_key=lambda d: d)
        handles = [
            tree.insert(float(i % 5), float(i % 5) + 2.0, i)
            for i in range(3 * _INITIAL_SLOTS)
        ]
        top = len(tree.slots()[0])
        assert top == 3 * _INITIAL_SLOTS
        for handle in handles[::2]:
            tree.remove(handle)
        for i in range(len(handles[::2])):  # refill the freed slots only
            tree.insert(9.0, 10.0, 10**6 + i)
        assert len(tree.slots()[0]) == top
        tree.check_invariants()
        assert cache.stab(9.5) == sorted(tree.stab(9.5))
        assert cache.stab(1.5) == sorted(tree.stab(1.5))

    def test_second_key_rejected(self):
        tree = IntervalTree()
        StabCache(tree, sort_key=abs)
        StabCache(tree, sort_key=abs)  # the same key again is fine
        with pytest.raises(ValueError):
            StabCache(tree, sort_key=str)


# ----------------------------------------------------------------------
# Engine level
# ----------------------------------------------------------------------


class TestTimeWindowTies:
    def test_tied_endpoints_answer_kappa_ascending(self):
        """Timestamps must strictly increase, but interval endpoints
        still tie: every root's interval starts at 0, and duplicate
        values in bursts of near-equal stamps re-root often.  The cached
        answer must be kappa-ascending and equal the uncached tree path
        (the full sanitizer also checks it against brute force)."""
        rng = random.Random(5)
        cached = TimeWindowSkyline(2, horizon=6.0, sanitize="full")
        plain = TimeWindowSkyline(2, horizon=6.0, query_cache=False)
        for i in range(80):
            point = (rng.randint(0, 3), rng.randint(0, 3))
            stamp = 1 + i // 4 + (i % 4) * 1e-9  # bursts of four
            cached.append(point, stamp)
            plain.append(point, stamp)
            for duration in (1e-9, 0.5, 1.0, 2.0, 3.5, 6.0):
                got = [e.kappa for e in cached.query_last(duration)]
                assert got == sorted(got)
                assert got == [e.kappa for e in plain.query_last(duration)]
