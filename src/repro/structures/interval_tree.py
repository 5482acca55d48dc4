"""A dynamic interval tree answering *stabbing queries*.

Section 2.3 of the paper treats stabbing-query processing as a black
box: given ``m`` intervals and a stabbing point ``p``, report every
interval containing ``p``, with ``O(log m)`` amortised updates.  The
encoding scheme of section 3.2 stores the half-open interval
``(kappa(e'), kappa(e)]`` for every critical-dominance edge and stabs
with ``M - n + 1`` to answer an n-of-N query.

This module implements the black box as a CLRS-style *augmented*
red-black tree (built on :mod:`repro.structures.rbtree`): intervals are
keyed by ``(low, high, slot)`` (the interval's slot in the flat view
below, unique among live intervals, admits duplicate endpoints), and
every node carries the maximum ``high`` within its subtree.  A stab at ``t`` descends only into subtrees whose max-high
reaches ``t`` and prunes right subtrees whose lows already equal or
exceed ``t``, giving output-sensitive ``O(min(m, k log m) + log m)``
reporting — the same update complexity as the Edelsbrunner/Mehlhorn
structure the paper cites, and indistinguishable at reproduction scale
(see DESIGN.md §4).

Intervals are half-open ``(low, high]`` — exactly the shape produced by
the paper's encoding: ``low < t <= high`` means "stabbed".

Beside the red-black tree, every write also maintains a **flat slot
view** of the same interval set, for the vectorised read path of
:class:`repro.accel.stab_cache.StabCache`:

* ``float64`` ``low``/``high`` slot arrays (plus, once a sort key is
  attached, each interval's key), grown by doubling;
* a payload list and a free-slot list; each handle carries its slot.

:meth:`IntervalTree.insert` writes one slot and :meth:`IntervalTree.remove`
frees it, resetting it to the unstabbable sentinel ``low = +inf``,
``high = -inf``.  A slot write costs a fraction of a microsecond next
to the tens of microseconds of the red-black update it rides with, and
a reader never has to walk the tree: a stab at ``t`` is one
``(low < t) & (high >= t)`` pass over the slots.  The red-black tree
stays the write-side source of truth and the independent oracle for
:meth:`IntervalTree.stab`; :meth:`IntervalTree.check_invariants`
verifies that the slots mirror it (``interval-slots``).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.exceptions import (
    InvalidIntervalError,
    StructureCorruptionError,
    corruption,
)
from repro.structures.rbtree import NIL, RBNode, RedBlackTree

D = TypeVar("D")

#: Aggregate value used for empty subtrees; compares below every high.
_NEG_INF = float("-inf")
#: A freed slot's low endpoint: no stab point lies strictly above it.
_POS_INF = float("inf")

#: Slots allocated by the first insert; the slot arrays double when full.
_INITIAL_SLOTS = 64


class Interval(Generic[D]):
    """A half-open interval ``(low, high]`` carrying an opaque payload.

    ``high`` may be ``math.inf`` (used by the (n1,n2)-of-N structures
    for live elements whose backward critical ancestor does not exist).
    """

    __slots__ = ("low", "high", "data")

    def __init__(self, low: float, high: float, data: D) -> None:
        if not low < high:
            raise InvalidIntervalError(
                f"half-open interval needs low < high, got ({low}, {high}]"
            )
        self.low = low
        self.high = high
        self.data = data

    def contains(self, t: float) -> bool:
        """Whether ``t`` stabs this interval: ``low < t <= high``."""
        return self.low < t <= self.high

    def __repr__(self) -> str:
        return f"Interval(({self.low}, {self.high}], data={self.data!r})"


class IntervalHandle(Generic[D]):
    """An opaque handle returned by :meth:`IntervalTree.insert`.

    Handles stay valid until the interval is removed, letting the n-of-N
    engine maintain the constant-time links between interval endpoints
    and the label set (paper, Figure 6).
    """

    __slots__ = ("interval", "_node", "_slot")

    def __init__(self, interval: Interval[D], node: RBNode, slot: int) -> None:
        self.interval = interval
        self._node = node
        self._slot = slot


def _augment_max_high(node: RBNode) -> None:
    """Recompute a node's subtree max-high from its children."""
    best = node.value.high
    left = node.left
    if left is not NIL and left.aggregate > best:
        best = left.aggregate
    right = node.right
    if right is not NIL and right.aggregate > best:
        best = right.aggregate
    node.aggregate = best


class IntervalTree(Generic[D]):
    """Dynamic set of half-open intervals supporting stabbing queries."""

    def __init__(self) -> None:
        self._tree: RedBlackTree = RedBlackTree(augment=_augment_max_high)
        self._version = 0
        # The flat slot view (module docstring).  Slots at or above
        # ``_top`` were never used; freed slots below it hold the
        # sentinel and sit on ``_free`` until an insert reuses them.
        self._slot_low = np.empty(0, dtype=np.float64)
        self._slot_high = np.empty(0, dtype=np.float64)
        self._slot_key: Any = np.empty(0, dtype=np.int64)
        self._slot_data: List[Any] = []  # payloads; None in freed slots
        self._free: List[int] = []
        self._top = 0
        self._key: Optional[Callable[[D], Any]] = None
        self._key_view: Optional[memoryview] = None
        self._grow_slots(0)

    @property
    def version(self) -> int:
        """Monotonically increasing structure version.

        Bumped by every :meth:`insert` and :meth:`remove` (and twice by
        :meth:`replace`).  Two equal versions guarantee an identical
        interval set, so read-path caches — notably
        :class:`repro.accel.stab_cache.StabCache` — can validate a
        memoized answer with a single integer comparison.
        """
        return self._version

    def set_sort_key(self, key: Callable[[D], Any]) -> None:
        """Store ``key(payload)`` per slot, now and on every insert.

        The per-slot key lets a reader order stab answers with one
        ``argsort`` instead of a Python sort.  Integer keys (the engines
        use ``kappa``) live in an ``int64`` array; the first key of any
        other type turns it into an object array, which NumPy orders
        with Python comparisons.  A tree has at most one key: attaching
        the same key again is a no-op, a different one is an error.
        """
        if self._key is key:
            return
        if self._key is not None:
            raise ValueError("this interval tree already has a sort key")
        free = set(self._free)
        values = {
            slot: key(self._slot_data[slot])
            for slot in range(self._top)
            if slot not in free
        }
        self._slot_key = np.zeros(len(self._slot_data), dtype=np.int64)
        self._key_view = memoryview(self._slot_key)
        for slot, value in values.items():
            self._store_key(slot, value)
        self._key = key

    def _store_key(self, slot: int, value: Any) -> None:
        """Write one key, turning the key array into an object array at
        the first key that is not an ``int``."""
        if value.__class__ is not int and self._key_view is not None:
            self._slot_key = self._slot_key.astype(object)
            self._key_view = None  # memoryviews cannot hold objects
        self._slot_key[slot] = value

    def _grow_slots(self, extra: int) -> None:
        """Append ``extra`` never-used, sentinel-filled slots to the
        arrays (the caller extends the payload list) and refresh the
        write views."""
        self._slot_low = np.concatenate(
            (self._slot_low, np.full(extra, _POS_INF))
        )
        self._slot_high = np.concatenate(
            (self._slot_high, np.full(extra, _NEG_INF))
        )
        self._slot_key = np.concatenate(
            (self._slot_key, np.zeros(extra, self._slot_key.dtype))
        )
        self._low_view = memoryview(self._slot_low)
        self._high_view = memoryview(self._slot_high)
        self._key_view = (
            None if self._slot_key.dtype == object
            else memoryview(self._slot_key)
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, low: float, high: float, data: D) -> IntervalHandle[D]:
        """Insert ``(low, high]`` with payload ``data``; return a handle."""
        interval = Interval(low, high, data)
        self._version += 1
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._top
            if slot == len(self._slot_data):
                grow = max(slot, _INITIAL_SLOTS)
                self._grow_slots(grow)
                self._slot_data.extend([None] * grow)
            self._top = slot + 1
        node = self._tree.insert((low, high, slot), interval)
        # Writes go through memoryviews of the arrays: half the cost of
        # NumPy's scalar ``__setitem__``.
        self._low_view[slot] = float(low)
        self._high_view[slot] = float(high)
        self._slot_data[slot] = data
        key = self._key
        if key is not None:
            value = key(data)
            if value.__class__ is int and self._key_view is not None:
                self._key_view[slot] = value
            else:
                self._store_key(slot, value)
        return IntervalHandle(interval, node, slot)

    def remove(self, handle: IntervalHandle[D]) -> None:
        """Remove the interval behind ``handle``.

        The handle must be live (obtained from :meth:`insert` and not
        yet removed); double removal is a programming error.
        """
        self._version += 1
        self._tree.delete_node(handle._node)
        handle._node = NIL
        slot = handle._slot
        self._low_view[slot] = _POS_INF
        self._high_view[slot] = _NEG_INF
        self._slot_data[slot] = None
        self._free.append(slot)

    def replace(
        self, handle: IntervalHandle[D], low: float, high: float
    ) -> IntervalHandle[D]:
        """Atomically swap an interval's endpoints, keeping its payload.

        Used by Algorithm 1 line 6: on expiry of a root's parent, the
        child's interval ``(kappa(parent), kappa(e)]`` becomes
        ``(0, kappa(e)]``.
        """
        data = handle.interval.data
        self.remove(handle)
        return self.insert(low, high, data)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stab(self, t: float) -> List[D]:
        """Payloads of every interval with ``low < t <= high``.

        Output order follows the tree's depth-first traversal: it is
        deterministic for a given update history but not sorted; callers
        that need sorted results (the engines sort by ``kappa``) order
        the output themselves.
        """
        # Iterative DFS: recursion depth could hit Python's limit for
        # large windows even on a balanced tree's worst paths.  This
        # loop and the one in :meth:`stab_intervals` differ only in what
        # they append; keeping two copies removes a per-node flag branch
        # from the hot path.
        out: List[D] = []
        stack = [self._tree.root]
        while stack:
            current = stack.pop()
            if current is NIL or current.aggregate < t:
                continue
            interval: Interval[D] = current.value
            if interval.low < t:
                if t <= interval.high:
                    out.append(interval.data)
                # Right keys have low >= this low; they may still be < t.
                stack.append(current.right)
            # Left subtree always has lows <= this low; worth visiting
            # whenever its max-high reaches t (checked on pop).
            stack.append(current.left)
        return out

    def stab_intervals(self, t: float) -> List[Interval[D]]:
        """Like :meth:`stab` but returning the :class:`Interval` objects."""
        out: List[Interval[D]] = []
        stack = [self._tree.root]
        while stack:
            current = stack.pop()
            if current is NIL or current.aggregate < t:
                continue
            interval: Interval[D] = current.value
            if interval.low < t:
                if t <= interval.high:
                    out.append(interval)
                stack.append(current.right)
            stack.append(current.left)
        return out

    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def intervals(self) -> Iterator[Interval[D]]:
        """Iterate intervals in ``(low, high, slot)`` order."""
        for _, interval in self._tree.items():
            yield interval

    # ------------------------------------------------------------------
    # The flat slot view (read-only to callers)
    # ------------------------------------------------------------------

    def slots(self) -> Tuple[Any, Any, Any, List[Any]]:
        """The slot view as ``(low, high, key, payloads)``.

        The arrays cover every slot used so far, live or freed.  A freed
        slot holds ``low = +inf``, ``high = -inf`` and payload ``None``,
        so ``(low < t) & (high >= t)`` over them is exactly the stab at
        ``t``.  ``key`` holds the sort key's values when one is attached
        (:meth:`set_sort_key`).  The arrays are views of the tree's own
        storage: callers must not write to them, and should not keep
        them across a write.
        """
        top = self._top
        return (
            self._slot_low[:top],
            self._slot_high[:top],
            self._slot_key[:top],
            self._slot_data,
        )

    def sorted_slots(self) -> Tuple[Any, Any, List[D]]:
        """The live intervals as fresh ``(lows, highs, payloads)``, in
        :meth:`intervals` order — compacted from the slots by one stable
        ``lexsort`` (ties keep slot order; freed slots sort last on
        their ``+inf`` lows)."""
        low, high, _, data = self.slots()
        order = np.lexsort((high, low))[: len(self._tree)]
        return (
            low[order],
            high[order],
            [data[i] for i in order.tolist()],
        )

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify red-black properties, max-high aggregates and the slot
        view.

        Raises
        ------
        StructureCorruptionError
            On the first violated property (survives ``python -O``).
        """
        self._tree.check_invariants()
        self._check_aggregate(self._tree.root)
        self._check_slots()

    def _check_slots(self) -> None:
        """The slot view mirrors the red-black tree: each interval's slot
        (the last part of its key) holds equal ``(low, high, payload,
        key)``, and every other used slot is freed (sentinel, on the
        free list once)."""

        def broken(message: str) -> StructureCorruptionError:
            return corruption("interval_tree", "interval-slots", message)

        top = self._top
        free = set(self._free)
        if len(free) != len(self._free):
            raise broken(f"free list {self._free!r} repeats a slot")
        if not free <= set(range(top)):
            raise broken(
                f"free list {sorted(free)!r} names a slot outside [0, {top})"
            )
        if top - len(free) != len(self._tree):
            raise broken(
                f"{top - len(free)} live slots for {len(self._tree)} intervals"
            )
        low, high, key, data = self.slots()
        for (_, _, slot), interval in self._tree.items():
            if (
                slot in free
                or not 0 <= slot < top
                or low[slot] != interval.low
                or high[slot] != interval.high
                or data[slot] is not interval.data
                or (
                    self._key is not None
                    and key[slot] != self._key(interval.data)
                )
            ):
                raise broken(
                    f"interval ({interval.low}, {interval.high}] does not "
                    f"match its slot {slot}"
                )
        for slot in free:
            if not (
                low[slot] == _POS_INF
                and high[slot] == _NEG_INF
                and data[slot] is None
            ):
                raise broken(
                    f"freed slot {slot} holds ({low[slot]}, {high[slot]}] "
                    f"/ {data[slot]!r}, not the sentinel"
                )

    def _check_aggregate(self, node: RBNode) -> float:
        if node is NIL:
            return _NEG_INF
        expected = max(
            node.value.high,
            self._check_aggregate(node.left),
            self._check_aggregate(node.right),
        )
        if node.aggregate != expected:
            raise corruption(
                "interval_tree",
                "max-high-augmentation",
                f"aggregate mismatch at {node.key!r}: "
                f"{node.aggregate} != {expected}",
            )
        return expected
