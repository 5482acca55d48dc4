"""Data-structure substrates for the sliding-window skyline engines.

Everything here is self-contained and paper-faithful:

* :mod:`repro.structures.interval_tree` — the stabbing-query structure:
  write-maintained slot arrays with a vectorised stab;
* :mod:`repro.structures.rtree_soa` — the dominance index over
  ``R_N``: a struct-of-arrays R-tree (pooled NumPy matrices, one level
  of blocks as index ranges) answering the paper's dominance reporting
  and best-first dominator search;
* :mod:`repro.structures.heap` — indexed min/max heaps (trigger lists);
* :mod:`repro.structures.labelset` — the ordered label set of Figure 6.
"""

from repro.structures.heap import IndexedHeap, MaxIndexedHeap, MinIndexedHeap
from repro.structures.interval_tree import IntervalHandle, IntervalTree
from repro.structures.labelset import LabelSet
from repro.structures.rtree_soa import SoAEntry, SoARTree

__all__ = [
    "IndexedHeap",
    "MaxIndexedHeap",
    "MinIndexedHeap",
    "IntervalHandle",
    "IntervalTree",
    "LabelSet",
    "SoAEntry",
    "SoARTree",
]
