"""A dynamic interval set answering *stabbing queries*.

Section 2.3 of the paper treats stabbing-query processing as a black
box: given ``m`` intervals and a stabbing point ``p``, report every
interval containing ``p``, with ``O(log m)`` amortised updates.  The
encoding scheme of section 3.2 stores the half-open interval
``(kappa(e'), kappa(e)]`` for every critical-dominance edge and stabs
with ``M - n + 1`` to answer an n-of-N query.

Intervals are half-open ``(low, high]`` — exactly the shape produced by
the paper's encoding: ``low < t <= high`` means "stabbed".

This module implements the black box as **flat slot arrays**, written
in place by every update:

* ``float64`` ``low``/``high`` slot arrays (plus, once a sort key is
  attached, each interval's key), grown by doubling;
* a payload list and a free-slot list; each handle carries its slot.

:meth:`IntervalTree.insert` writes one slot (reusing a freed one when
there is one) and :meth:`IntervalTree.remove` frees it, resetting it to
the unstabbable sentinel ``low = +inf``, ``high = -inf``: ``O(1)``
amortised writes.  A stab at ``t`` is one vectorised
``(low < t) & (high >= t)`` pass over the slots: ``O(m)`` comparisons,
but in C, which at reproduction scale beats the paper's
``O(log m + s)`` tree walk done in Python (DESIGN.md §4).  The answers
are the same: the set of stabbed intervals is fully determined by the
endpoints.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from repro.exceptions import (
    InvalidIntervalError,
    StructureCorruptionError,
    corruption,
)

D = TypeVar("D")

#: A freed slot's endpoints: no stab point lies in ``(+inf, -inf]``.
_POS_INF = float("inf")
_NEG_INF = float("-inf")

#: Slots allocated by the first insert; the slot arrays double when full.
_INITIAL_SLOTS = 64


class IntervalHandle(Generic[D]):
    """An opaque handle returned by :meth:`IntervalTree.insert`.

    Handles stay valid until the interval is removed, letting the n-of-N
    engine maintain the constant-time links between interval endpoints
    and the label set (paper, Figure 6).
    """

    __slots__ = ("_slot",)

    def __init__(self, slot: int) -> None:
        self._slot = slot


class IntervalTree(Generic[D]):
    """Dynamic set of half-open intervals supporting stabbing queries.

    Payloads must not be ``None``: a freed slot holds ``None``.
    """

    def __init__(self) -> None:
        self._version = 0
        self._live = 0
        # Slots at or above ``_top`` were never used; freed slots below
        # it hold the sentinel and sit on ``_free`` until an insert
        # reuses them.
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
        """Store ``key(payload)`` per slot, now and on every insert, and
        order :meth:`stab` answers by it.

        The per-slot key lets a stab order its answer with one
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
        values = {
            slot: key(payload)
            for slot, payload in enumerate(self._slot_data)
            if payload is not None
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
        """Insert ``(low, high]`` with payload ``data``; return a handle.

        ``high`` may be ``math.inf`` (used by the (n1,n2)-of-N
        structures for live elements whose backward critical ancestor
        does not exist).

        Raises
        ------
        InvalidIntervalError
            Unless ``low < high``.
        """
        if not low < high:
            raise InvalidIntervalError(
                f"half-open interval needs low < high, got ({low}, {high}]"
            )
        self._version += 1
        self._live += 1
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._top
            if slot == len(self._slot_data):
                grow = max(slot, _INITIAL_SLOTS)
                self._grow_slots(grow)
                self._slot_data.extend([None] * grow)
            self._top = slot + 1
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
        return IntervalHandle(slot)

    def remove(self, handle: IntervalHandle[D]) -> None:
        """Remove the interval behind ``handle``.

        The handle must be live (obtained from :meth:`insert` and not
        yet removed); double removal is a programming error.
        """
        self._version += 1
        self._live -= 1
        slot = handle._slot
        self._low_view[slot] = _POS_INF
        self._high_view[slot] = _NEG_INF
        self._slot_data[slot] = None
        self._free.append(slot)

    def replace(
        self, handle: IntervalHandle[D], low: float, high: float
    ) -> IntervalHandle[D]:
        """Swap an interval's endpoints, keeping its payload.

        Used by Algorithm 1 line 6: on expiry of a root's parent, the
        child's interval ``(kappa(parent), kappa(e)]`` becomes
        ``(0, kappa(e)]``.
        """
        data = self._slot_data[handle._slot]
        self.remove(handle)
        return self.insert(low, high, data)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def stab(self, t: float) -> List[D]:
        """Payloads of every interval with ``low < t <= high``.

        One vectorised pass over the slots (freed slots never match).
        The answer is ordered by the sort key when one is attached
        (:meth:`set_sort_key`), otherwise by ``(low, high, slot)``.
        Always returns a fresh list.
        """
        low, high, key, data = self.slots()
        hit = np.flatnonzero((low < t) & (high >= t))
        if self._key is not None:
            hit = hit[np.argsort(key[hit])]
        else:  # stable: ties keep slot order
            hit = hit[np.lexsort((high[hit], low[hit]))]
        return [data[i] for i in hit.tolist()]

    def endpoints(self, handle: IntervalHandle[D]) -> Tuple[float, float]:
        """The ``(low, high)`` of the live interval behind ``handle``."""
        slot = handle._slot
        return float(self._slot_low[slot]), float(self._slot_high[slot])

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def slots(self) -> Tuple[Any, Any, Any, List[Any]]:
        """The slot arrays as ``(low, high, key, payloads)``.

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
        """The live intervals as fresh ``(lows, highs, payloads)``,
        ordered by ``(low, high, slot)`` — compacted from the slots by
        one stable ``lexsort`` (freed slots sort last on their ``+inf``
        lows)."""
        low, high, _, data = self.slots()
        order = np.lexsort((high, low))[: self._live]
        return (
            low[order],
            high[order],
            [data[i] for i in order.tolist()],
        )

    # ------------------------------------------------------------------
    # Validation (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the slots (``interval-slots``): the free list names
        distinct used slots, the live count matches, every freed slot
        holds the sentinel, and every live slot holds ``low < high``, a
        payload and (when a sort key is attached) its key.

        Raises
        ------
        StructureCorruptionError
            On the first violated property (survives ``python -O``).
        """

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
        if top - len(free) != self._live:
            raise broken(
                f"{top - len(free)} used slots off the free list, live "
                f"count {self._live}"
            )
        low, high, key, data = self.slots()
        for slot in range(top):
            if slot in free:
                if not (
                    low[slot] == _POS_INF
                    and high[slot] == _NEG_INF
                    and data[slot] is None
                ):
                    raise broken(
                        f"freed slot {slot} holds ({low[slot]}, "
                        f"{high[slot]}] / {data[slot]!r}, not the sentinel"
                    )
            elif (
                not low[slot] < high[slot]
                or data[slot] is None
                or (self._key is not None and key[slot] != self._key(data[slot]))
            ):
                raise broken(
                    f"live slot {slot} holds ({low[slot]}, {high[slot]}] / "
                    f"{data[slot]!r}, not a keyed interval"
                )
