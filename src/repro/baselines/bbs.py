"""Branch-and-bound skyline (BBS) [Papadias, Tao, Fu, Seeger, SIGMOD 2003].

The paper cites BBS ([23]) as the progressive skyline algorithm with
guaranteed-minimal I/O on R-tree-indexed data.  This implementation
runs it over this library's own dominance index,
:class:`~repro.structures.rtree_soa.SoARTree`, whose single level of
blocks plays the role of the R-tree's nodes:

1. seed a min-heap with every non-empty block, keyed by *mindist* — the
   L1 distance of the block's lower corner (or a point) from the
   origin;
2. repeatedly pop the least entry; discard it if its lower corner is
   weakly dominated by a point already in the skyline; otherwise expand
   blocks into their points, and emit points — the mindist order
   guarantees every dominator of a point is popped first, so emitted
   points are final.

The progressive variant yields skyline points one at a time in mindist
order, exactly the behaviour BBS is valued for; ``bbs_skyline`` wraps
it with the index-list interface shared by all baselines (strict
Pareto dominance; exact duplicates all reported).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple, Union

from repro.core.dominance import weakly_dominates
from repro.structures.heap import IndexedHeap
from repro.structures.rtree_soa import SoAEntry, SoARTree

Point = Tuple[float, ...]


def bbs_skyline(
    points: Sequence[Sequence[float]],
    max_entries: int = 12,
) -> List[int]:
    """Indices of the skyline of ``points``, ascending.

    Same semantics as the other baselines (strict dominance; all copies
    of a duplicated skyline point reported).
    """
    if not points:
        return []
    groups: Dict[Point, List[int]] = {}
    for idx, raw in enumerate(points):
        groups.setdefault(tuple(float(v) for v in raw), []).append(idx)
    result: List[int] = []
    for vector in bbs_progressive(list(groups), max_entries=max_entries):
        result.extend(groups[vector])
    return sorted(result)


def bbs_progressive(
    points: Sequence[Sequence[float]],
    max_entries: int = 12,
) -> Iterator[Point]:
    """Yield distinct skyline points progressively, in mindist order.

    Points must be distinct vectors (``bbs_skyline`` handles duplicate
    collapsing); under distinct vectors weak and strict dominance
    coincide, so the emitted set is the strict-Pareto skyline.
    """
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        return
    dim = len(pts[0])
    tree = SoARTree(dim, max_entries=max_entries)
    for i, point in enumerate(pts):
        tree.insert(point, kappa=i + 1)

    heap: IndexedHeap[int] = IndexedHeap()
    frontier: Dict[int, Tuple[Union[SoAEntry, List[SoAEntry]], Point]] = {}
    counter = 0

    def push(item: Union[SoAEntry, List[SoAEntry]], corner: Point) -> None:
        nonlocal counter
        frontier[counter] = (item, corner)
        # The corner tie-break matters for correctness, not just
        # determinism: float addition is monotone under componentwise <=
        # but can round two *different* corners to the same sum (e.g. a
        # subnormal coordinate vanishing into 1.0).  Dominance implies
        # lexicographic <=, so on equal sums the dominator still pops
        # first and the emitted-points-are-final invariant holds.
        heap.push(counter, (sum(corner), corner, counter))
        counter += 1

    for corner, block in tree.blocks():
        push(block, corner)

    skyline: List[Point] = []
    while heap:
        key, _ = heap.pop()
        item, corner = frontier.pop(key)
        if _dominated(corner, skyline):
            continue
        if isinstance(item, SoAEntry):
            skyline.append(item.point)
            yield item.point
            continue
        for entry in item:
            if not _dominated(entry.point, skyline):
                push(entry, entry.point)


def _dominated(corner: Sequence[float], skyline: List[Point]) -> bool:
    return any(weakly_dominates(s, corner) for s in skyline)
