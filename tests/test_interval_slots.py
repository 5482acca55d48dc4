"""Tests for the interval structure's slot arrays.

Slot reuse and growth, the one-key rule, and time-window engines whose
tied endpoints must still answer in kappa order.  The property test of
stabs against a pure-Python reference lives in
``tests/test_interval_tree.py``; the seeded corruptions of the slots
live in ``tests/test_sanitizer.py``.
"""

from __future__ import annotations

import random

import pytest

from repro import TimeWindowSkyline
from repro.accel import StabCache
from repro.baselines.naive import naive_skyline_youngest
from repro.structures.interval_tree import _INITIAL_SLOTS, IntervalTree


class TestSlotViewProperty:
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
        refilled = len(handles[::2])
        assert cache.stab(9.5) == list(range(10**6, 10**6 + refilled))
        assert cache.stab(1.5) == [
            i for i in range(1, 3 * _INITIAL_SLOTS, 2) if i % 5 < 2
        ]

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
        values in bursts of near-equal stamps re-root often.  The answer
        must be kappa-ascending and equal a brute-force skyline of the
        elements stamped within ``[now - duration, now]`` (the full
        sanitizer also checks the stabs after every arrival)."""
        rng = random.Random(5)
        engine = TimeWindowSkyline(2, horizon=6.0, sanitize="full")
        history = []
        for i in range(80):
            point = (rng.randint(0, 3), rng.randint(0, 3))
            stamp = 1 + i // 4 + (i % 4) * 1e-9  # bursts of four
            engine.append(point, stamp)
            history.append((stamp, point))
            for duration in (1e-9, 0.5, 1.0, 2.0, 3.5, 6.0):
                got = [e.kappa for e in engine.query_last(duration)]
                assert got == sorted(got)
                start = engine.now - duration
                window = [
                    (kappa, point)
                    for kappa, (at, point) in enumerate(history, start=1)
                    if at >= start
                ]
                expected = [
                    window[i][0]
                    for i in naive_skyline_youngest([p for _, p in window])
                ]
                assert got == expected
