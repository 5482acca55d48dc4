"""Tests for the branch-and-bound skyline (BBS) baseline."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import bbs_progressive, bbs_skyline, naive_skyline


class TestBBSBasics:
    def test_hand_checked_instance(self):
        points = [(1.0, 5.0), (2.0, 3.0), (4.0, 1.0), (3.0, 4.0), (5.0, 5.0)]
        assert bbs_skyline(points) == [0, 1, 2]

    def test_empty_and_single(self):
        assert bbs_skyline([]) == []
        assert bbs_skyline([(1.0, 1.0)]) == [0]

    def test_duplicates_all_reported(self):
        points = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
        assert bbs_skyline(points) == [0, 1]

    def test_high_dimensional(self):
        rng = random.Random(1)
        points = [tuple(rng.random() for _ in range(5)) for _ in range(120)]
        assert bbs_skyline(points) == naive_skyline(points)

    def test_small_fanout_tree(self):
        rng = random.Random(2)
        points = [(rng.random(), rng.random()) for _ in range(100)]
        assert bbs_skyline(points, max_entries=4) == (
            naive_skyline(points)
        )


class TestProgressiveBehaviour:
    def test_emits_in_mindist_order(self):
        rng = random.Random(3)
        points = [tuple(rng.random() for _ in range(3)) for _ in range(80)]
        emitted = list(bbs_progressive(points))
        sums = [sum(p) for p in emitted]
        assert sums == sorted(sums)

    def test_emitted_set_is_the_skyline(self):
        rng = random.Random(4)
        points = [(rng.random(), rng.random()) for _ in range(60)]
        emitted = set(bbs_progressive(points))
        expected = {points[i] for i in naive_skyline(points)}
        assert emitted == expected

    def test_first_result_available_before_exhaustion(self):
        """Progressiveness: the first skyline point arrives without
        consuming the generator fully."""
        rng = random.Random(5)
        points = [(rng.random(), rng.random()) for _ in range(500)]
        gen = bbs_progressive(points)
        first = next(gen)
        assert sum(first) == min(
            sum(points[i]) for i in naive_skyline(points)
        )

    def test_empty_input(self):
        assert list(bbs_progressive([])) == []


coords = st.floats(min_value=0, max_value=1, allow_nan=False, width=32)


class TestBBSProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[coords] * d), max_size=60)
        )
    )
    def test_matches_naive(self, points):
        assert bbs_skyline(points) == naive_skyline(points)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
                lambda p: (p[0] / 5, p[1] / 5)
            ),
            max_size=40,
        )
    )
    def test_matches_naive_with_ties(self, points):
        assert bbs_skyline(points) == naive_skyline(points)
