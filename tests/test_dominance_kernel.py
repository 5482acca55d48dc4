"""The blocked dominance kernel: the static ``pareto_mask`` filter and the
exact shard merges built on it, checked against independent oracles.

``loop_pareto_mask`` is the library's earlier per-candidate filter (one
Python iteration per point, kept matrix rebuilt after every keep), kept
here as a test-only reference.  The merges are checked against the
quadratic oracles over random round-robin shardings.
"""

from __future__ import annotations

import importlib
import random
from typing import List, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import pareto_mask
from repro.baselines.naive import naive_skyline, naive_skyline_youngest
from repro.core.dominance import dominates, weakly_dominates
from repro.core.element import StreamElement
from repro.parallel.merge import merge_skyband, merge_skyline

kernel = importlib.import_module("repro.accel.numpy_skyline")


def loop_pareto_mask(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Reference filter: SFS order by coordinate sum, one candidate at a
    time against the matrix of rows kept so far."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(arr.sum(axis=1), kind="stable")
    mask = np.zeros(arr.shape[0], dtype=bool)
    kept: List[np.ndarray] = []
    for idx in order:
        candidate = arr[idx]
        if kept:
            rows = np.array(kept)
            weakly = np.all(rows <= candidate, axis=1)
            strictly = np.any(rows < candidate, axis=1)
            if np.any(weakly & strictly):
                continue
        mask[idx] = True
        kept.append(candidate)
    return mask


#: (BLOCK_ROWS, BLOCK_PAIRS): the defaults, then budgets small enough
#: that a few dozen points span many row blocks and kernel sub-blocks.
BLOCKINGS = [
    (kernel.BLOCK_ROWS, kernel.BLOCK_PAIRS),
    (4, 8),
    (1, 1),
]


def blocking(rows, pairs):
    return mock.patch.multiple(kernel, BLOCK_ROWS=rows, BLOCK_PAIRS=pairs)


def point_lists(values, max_size=40):
    return st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.sampled_from(values)] * d), max_size=max_size
        )
    )


#: Exactly summable coordinates: grid values and both zeros.
GRID = [v / 4 for v in range(5)] + [-0.0]

#: The loop reference is exact on the grid, and defines the NaN
#: behaviour (a NaN row never dominates and is never dominated), which
#: the quadratic oracle does not share: it skips NaN coordinates.
GRID_NAN = GRID + [float("nan")]

#: Adds infinities and magnitudes whose sums absorb small terms, where
#: only the quadratic oracle is exact.
WIDE = GRID + [float("inf"), float("-inf"), 1e16, -1e16, 1.0 + 2**-52]


class TestParetoMask:
    @pytest.mark.parametrize("rows,pairs", BLOCKINGS)
    @settings(max_examples=60, deadline=None)
    @given(points=point_lists(GRID_NAN))
    def test_matches_loop_reference(self, rows, pairs, points):
        with blocking(rows, pairs):
            got = pareto_mask(points)
        assert got.tolist() == loop_pareto_mask(points).tolist()

    @pytest.mark.parametrize("rows,pairs", BLOCKINGS)
    @settings(max_examples=60, deadline=None)
    @given(points=point_lists(WIDE))
    def test_matches_naive(self, rows, pairs, points):
        with blocking(rows, pairs):
            got = np.flatnonzero(pareto_mask(points)).tolist()
        assert got == naive_skyline(points)

    def test_empty_and_single_dimension(self):
        assert pareto_mask(np.empty((0, 3))).shape == (0,)
        column = [(3.0,), (1.0,), (1.0,), (2.0,), (float("nan"),)]
        assert pareto_mask(column).tolist() == [False, True, True, False, True]

    def test_nan_rows_are_reported_and_never_dominate(self):
        nan = float("nan")
        points = [(nan, 0.0), (1.0, 1.0), (0.0, nan), (2.0, 2.0)]
        assert pareto_mask(points).tolist() == [True, True, True, False]

    def test_signed_zeros_are_duplicates(self):
        points = [(-0.0, 1.0), (0.0, 1.0), (0.0, 2.0)]
        assert pareto_mask(points).tolist() == [True, True, False]

    def test_absorbed_sum_still_orders_dominator_first(self):
        # Both sums round to 1e16; the victim comes first in input order.
        points = [(1e16, 1.0), (1e16, 0.0)]
        assert pareto_mask(points).tolist() == [False, True]
        assert naive_skyline(points) == [1]

    def test_opposite_infinities(self):
        inf = float("inf")
        points = [(inf, 0.0), (inf, -inf), (0.0, inf)]
        assert np.flatnonzero(pareto_mask(points)).tolist() == naive_skyline(
            points
        )

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_many_blocks_anticorrelated(self, d):
        rng = np.random.default_rng(d)
        raw = rng.random((3 * kernel.BLOCK_ROWS + 17, d))
        points = raw / raw.sum(axis=1, keepdims=True)
        points[-40:] = points[:40]  # duplicates in other blocks
        assert pareto_mask(points).tolist() == loop_pareto_mask(points).tolist()


# -- merges ------------------------------------------------------------


def beats(f: StreamElement, e: StreamElement) -> bool:
    """The library tie rule: ``f`` weakly dominates ``e`` and is strictly
    better somewhere or younger."""
    return weakly_dominates(f.values, e.values) and (
        dominates(f.values, e.values) or f.kappa > e.kappa
    )


def band(elements: Sequence[StreamElement], k: int) -> List[StreamElement]:
    """Quadratic k-skyband under the tie rule, kappa-ascending."""
    return [
        e
        for e in elements
        if sum(1 for f in elements if f is not e and beats(f, e)) < k
    ]


def shard_view(history, shards, stab):
    """Per-shard suffixes ``kappa >= stab`` of a round-robin sharding."""
    elements = [StreamElement(p, i + 1) for i, p in enumerate(history)]
    suffixes = [
        [e for e in elements[stab - 1 :] if (e.kappa - 1) % shards == s]
        for s in range(shards)
    ]
    return elements[stab - 1 :], suffixes


def retained(suffix: Sequence[StreamElement], k: int) -> List[StreamElement]:
    """A shard's retained elements: fewer than ``k`` younger weak
    dominators in its own sub-stream."""
    return [
        e
        for e in suffix
        if sum(
            1
            for f in suffix
            if f.kappa > e.kappa and weakly_dominates(f.values, e.values)
        )
        < k
    ]


histories = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(0, 3).map(lambda v: v / 3)] * d),
        min_size=1,
        max_size=40,
    )
)


def assert_identity_and_order(got, answers):
    pool = {id(e) for shard in answers for e in shard}
    assert all(id(e) in pool for e in got)
    kappas = [e.kappa for e in got]
    assert kappas == sorted(kappas)
    assert len(set(kappas)) == len(kappas)


class TestMergeSkyline:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows,pairs", BLOCKINGS[:2])
    @settings(max_examples=60, deadline=None)
    @given(history=histories, data=st.data())
    def test_matches_naive_over_round_robin(
        self, shards, rows, pairs, history, data
    ):
        stab = data.draw(st.integers(1, len(history)), label="stab")
        suffix, per_shard = shard_view(history, shards, stab)
        answers = [band(sub, 1) for sub in per_shard]
        with blocking(rows, pairs):
            got = merge_skyline(answers)
        expected = naive_skyline_youngest([e.values for e in suffix])
        assert [e.kappa for e in got] == [stab + i for i in expected]
        assert_identity_and_order(got, answers)

    def test_equal_values_split_across_shards(self):
        history = [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.2, 0.9)]
        suffix, per_shard = shard_view(history, 3, 1)
        answers = [band(sub, 1) for sub in per_shard]
        got = merge_skyline(answers)
        assert [e.kappa for e in got] == [3, 4]
        assert got[0] is answers[2][0]

    def test_single_answering_shard_is_returned_as_is(self):
        answer = [StreamElement((0.1, 0.9), 2), StreamElement((0.9, 0.1), 5)]
        for per_shard in ([answer], [[], answer, []]):
            got = merge_skyline(per_shard)
            assert got == answer and got is not answer
            assert all(a is b for a, b in zip(got, answer))
        assert merge_skyline([[], []]) == []
        assert merge_skyline([]) == []


class TestMergeSkyband:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(history=histories, data=st.data())
    def test_matches_naive_over_round_robin(self, shards, k, history, data):
        stab = data.draw(st.integers(1, len(history)), label="stab")
        suffix, per_shard = shard_view(history, shards, stab)
        answers = [band(sub, k) for sub in per_shard]
        witnesses = [e for sub in per_shard for e in retained(sub, k)]
        with blocking(4, 8):
            got = merge_skyband(answers, witnesses, k)
        assert [e.kappa for e in got] == [e.kappa for e in band(suffix, k)]
        assert_identity_and_order(got, answers)

    def test_empty_inputs(self):
        only = StreamElement((0.5, 0.5), 1)
        assert merge_skyband([[], []], [only], 2) == []
        assert merge_skyband([[only], []], [], 2) == [only]


def test_kernel_masks_match_definition():
    rng = random.Random(7)
    cand = np.array([[rng.randrange(3) for _ in range(3)] for _ in range(9)], float)
    refs = np.array([[rng.randrange(3) for _ in range(3)] for _ in range(11)], float)
    with blocking(kernel.BLOCK_ROWS, 22):  # two candidate rows per block
        blocks = list(kernel.dominance_blocks(cand, refs))
    assert [(lo, hi) for lo, hi, _, _ in blocks] == [
        (0, 2), (2, 4), (4, 6), (6, 8), (8, 9)
    ]
    weak = np.vstack([w for _, _, w, _ in blocks])
    strict = np.vstack([s for _, _, _, s in blocks])
    for i, c in enumerate(cand):
        for j, r in enumerate(refs):
            assert weak[i, j] == all(r <= c)
            assert strict[i, j] == any(r < c)
