"""Reference-speed normalisation of measured times.

The machines this benchmark runs on are shared: the same code on the
same inputs runs up to 1.7x slower for seconds at a time when a
neighbour loads the core (measured on a 2-core sandbox with a fixed
pure-Python loop: 10-second means spread 20-25% between runs).  No
statistic over a 10-second wall-clock run is steady under that.

So the timed phase also runs :func:`reference_work` — a fixed routine
of interpreter work (integer arithmetic, dict stores, pointer-chasing
through a binary tree, building and sorting lists) with a little
NumPy — every
:data:`PROBE_EVERY_S` between calls, outside every timed region.  Each
measured time is scaled by ``NOMINAL_NS / local probe time``, where the
local probe time is the median of the probes in the surrounding
:data:`BUCKET_S` window: a time is reported as it would read on a
machine on which the probe takes :data:`NOMINAL_NS`.  The probe never
touches the library, so a change to ``src/`` cannot move it; the raw
wall-clock values are kept beside the normalised ones in every record.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter, perf_counter_ns
from typing import List, Optional, Tuple

import numpy as np

#: Probe time that defines the reference speed (close to this routine's
#: time on an unloaded core of the 2-core sandbox the bounds were set on).
NOMINAL_NS = 750_000
#: Minimum wall time between two probes in a timed phase.
PROBE_EVERY_S = 0.02
#: Width of the window whose median probe time scales a measurement.
BUCKET_S = 0.5

_VALUES = sorted(i * 0.37 % 1.0 for i in range(300))
_TABLE = np.random.default_rng(0).random((5000, 4))


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int) -> None:
        self.key = key
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None


def reference_work() -> int:
    """The fixed probe routine; returns a checksum so no step is idle.

    Plain interpreter work plus the allocation pattern of a snapshot
    rebuild (build tuples and lists, convert to arrays, sort a set).  A
    probe that spent half its time in NumPy kernels slowed only about
    half as much as the library's Python paths did when a neighbour
    loaded the core, and under-corrected them.
    """
    acc = 0
    table = {}
    for i in range(2200):
        acc += i * i % 7
        table[i % 1000] = acc
    root = _Node(500)
    for i in range(40):
        key = (i * 7919) % 1000
        node = root
        while True:
            if key < node.key:
                if node.left is None:
                    node.left = _Node(key)
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node(key)
                    break
                node = node.right
        acc += key
    for r in range(3):
        rows = [(x, x * 2.0, r) for x in _VALUES]
        lows = [row[0] for row in rows]
        highs = np.asarray([row[1] for row in rows], dtype=np.float64)
        bounds = sorted(set(lows).union(highs.tolist()))
        cut = int(np.searchsorted(np.asarray(lows, dtype=np.float64), 0.5))
        hits = np.flatnonzero(highs[:cut] >= 0.5).tolist()
        acc += len(bounds) + len([rows[i] for i in hits])
    acc += int(np.all(_TABLE <= 0.5, axis=1).sum())
    return acc


def probe_ns() -> int:
    """Time one run of :func:`reference_work`."""
    start = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - start


class SpeedTrack:
    """Probe times over one timed phase, and the scale they imply."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.probes: List[int] = []
        self._last = float("-inf")
        self._starts: List[float] = []
        self._scales: List[float] = []

    def maybe_probe(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` has passed since the last one."""
        now = perf_counter()
        if now - self._last >= PROBE_EVERY_S:
            self.times.append(now)
            self.probes.append(probe_ns())
            self._last = now

    def finish(self) -> None:
        """Fix one scale per :data:`BUCKET_S` window of the phase."""
        if not self.probes:
            self.times.append(perf_counter())
            self.probes.append(probe_ns())
        start = self.times[0]
        buckets: List[Tuple[float, List[int]]] = []
        for t, ns in zip(self.times, self.probes):
            edge = start + BUCKET_S * int((t - start) / BUCKET_S)
            if not buckets or buckets[-1][0] != edge:
                buckets.append((edge, []))
            buckets[-1][1].append(ns)
        self._starts = [edge for edge, _ in buckets]
        self._scales = [NOMINAL_NS / statistics.median(ns) for _, ns in buckets]

    def scale(self, t: float) -> float:
        """Factor turning a wall time measured at ``t`` into reference time."""
        index = max(0, bisect.bisect_right(self._starts, t) - 1)
        return self._scales[index]

    def median_probe_ns(self) -> float:
        return statistics.median(self.probes)
