"""Tests for the windowed k-skyband engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import dominates
from repro.core.nofn import NofNSkyline
from repro.core.skyband import KSkybandEngine
from repro.exceptions import InvalidWindowError


def oracle(history, n, k):
    """Reference: fewer than k in-window elements strictly dominate the
    element or duplicate it more recently (youngest-copy convention)."""
    m = len(history)
    lo = max(0, m - n)
    window = history[lo:]
    out = []
    for i, p in enumerate(window):
        count = 0
        for j, q in enumerate(window):
            if j == i:
                continue
            if dominates(q, p) or (tuple(q) == tuple(p) and j > i):
                count += 1
        if count < k:
            out.append(lo + i + 1)
    return out


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(InvalidWindowError):
            KSkybandEngine(dim=2, capacity=0, k=2)
        with pytest.raises(ValueError, match="dimension"):
            KSkybandEngine(dim=0, capacity=5, k=2)
        with pytest.raises(ValueError, match="k must be"):
            KSkybandEngine(dim=2, capacity=5, k=0)

    def test_fresh_engine(self):
        engine = KSkybandEngine(dim=2, capacity=5, k=2)
        assert engine.seen_so_far == 0
        assert engine.retained_size == 0
        assert engine.query(3) == []


class TestBandSemantics:
    def test_band_depth_controls_reporting(self):
        # A chain: (0.1,..) dominates (0.2,..) dominates (0.3,..)...
        engine = KSkybandEngine(dim=2, capacity=10, k=2)
        for v in (0.1, 0.2, 0.3, 0.4):
            engine.append((v, v))
        # 2-skyband: the top point and its single-dominated successor.
        assert [e.kappa for e in engine.skyband()] == [1, 2]

    def test_k1_band_is_the_skyline(self):
        engine = KSkybandEngine(dim=2, capacity=6, k=1)
        for point in [(0.5, 0.5), (0.2, 0.8), (0.8, 0.2), (0.6, 0.6)]:
            engine.append(point)
        assert [e.kappa for e in engine.skyband()] == [1, 2, 3]

    def test_pruning_at_k_younger_dominators(self):
        engine = KSkybandEngine(dim=2, capacity=10, k=2)
        engine.append((0.9, 0.9))  # will gather younger dominators
        engine.append((0.5, 0.5))
        assert engine.retained_size == 2  # one younger dominator: kept
        engine.append((0.4, 0.4))
        assert engine.retained_size == 2  # kappa 1 hit k=2: pruned
        assert 1 not in [e.kappa for e in engine.skyband()]

    def test_query_validation(self):
        engine = KSkybandEngine(dim=1, capacity=4, k=2)
        with pytest.raises(InvalidWindowError):
            engine.query(0)
        with pytest.raises(InvalidWindowError):
            engine.query(5)

    def test_window_exit_readmits_deeper_points(self):
        engine = KSkybandEngine(dim=2, capacity=3, k=1)
        engine.append((0.1, 0.1))  # dominates everything after
        engine.append((0.5, 0.5))
        engine.append((0.6, 0.6))
        assert [e.kappa for e in engine.query(3)] == [1]
        engine.append((0.7, 0.7))  # kappa 1 leaves the window
        assert [e.kappa for e in engine.query(3)] == [2]

    def test_duplicates_follow_youngest_copy_convention(self):
        engine = KSkybandEngine(dim=2, capacity=10, k=1)
        engine.append((0.5, 0.5))
        engine.append((0.5, 0.5))
        assert [e.kappa for e in engine.skyband()] == [2]

    def test_duplicates_at_k2_keep_two_copies(self):
        engine = KSkybandEngine(dim=2, capacity=10, k=2)
        for _ in range(3):
            engine.append((0.5, 0.5))
        # The two youngest copies are each "dominated" by fewer than 2
        # younger duplicates.
        assert [e.kappa for e in engine.skyband()] == [2, 3]


coord = st.integers(0, 6).map(lambda v: v / 6)


def streams(max_dim=3, max_len=50):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.tuples(*[coord] * d).map(tuple), min_size=1, max_size=max_len
        )
    )


class TestKSkybandProperties:
    @settings(max_examples=40, deadline=None)
    @given(streams(), st.integers(1, 12), st.integers(1, 4))
    def test_matches_oracle(self, history, capacity, k):
        engine = KSkybandEngine(dim=len(history[0]), capacity=capacity, k=k)
        for point in history:
            engine.append(point)
        for n in (1, max(1, capacity // 2), capacity):
            assert [e.kappa for e in engine.query(n)] == (
                oracle(history, n, k)
            ), f"n={n}, k={k}"

    @settings(max_examples=30, deadline=None)
    @given(streams(max_len=40), st.integers(1, 10))
    def test_k1_equals_nofn_engine(self, history, capacity):
        band = KSkybandEngine(dim=len(history[0]), capacity=capacity, k=1)
        sky = NofNSkyline(dim=len(history[0]), capacity=capacity)
        for point in history:
            band.append(point)
            sky.append(point)
        for n in range(1, capacity + 1):
            assert [e.kappa for e in band.query(n)] == [
                e.kappa for e in sky.query(n)
            ]

    @settings(max_examples=30, deadline=None)
    @given(streams(max_len=40), st.integers(1, 10), st.integers(1, 3))
    def test_bands_nest_in_k(self, history, capacity, k):
        """The k-band is contained in the (k+1)-band, window by window."""
        small = KSkybandEngine(dim=len(history[0]), capacity=capacity, k=k)
        large = KSkybandEngine(dim=len(history[0]), capacity=capacity, k=k + 1)
        for point in history:
            small.append(point)
            large.append(point)
        for n in (1, capacity):
            assert set(e.kappa for e in small.query(n)) <= set(
                e.kappa for e in large.query(n)
            )

    @settings(max_examples=25, deadline=None)
    @given(streams(max_len=40), st.integers(1, 8), st.integers(1, 3))
    def test_invariants_hold_at_every_step(self, history, capacity, k):
        engine = KSkybandEngine(dim=len(history[0]), capacity=capacity, k=k)
        for point in history:
            engine.append(point)
            engine.check_invariants()


class TestChunkSurvivorGuard:
    def test_survivor_reaching_k_in_its_chunk_raises(self, monkeypatch):
        """A chunk survivor gains younger dominators from later members
        of its chunk without leaving (the prefilter parks every member
        that reaches ``k``).  If the prefilter under-reports, the
        frame raises instead of pruning silently."""
        from repro.accel import batch_prefilter
        from repro.core import window
        from repro.exceptions import StructureCorruptionError

        class Blind(batch_prefilter.BatchPrefilter):
            def _build(self, points):
                super()._build(points)
                self.kill = [-1] * self.size  # nobody is doomed

        monkeypatch.setattr(window, "BatchPrefilter", Blind)
        engine = KSkybandEngine(dim=2, capacity=10, k=2)
        with pytest.raises(StructureCorruptionError, match="chunk survivor"):
            engine.append_many([(0.9, 0.9), (0.5, 0.5), (0.1, 0.1)])
