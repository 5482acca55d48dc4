"""Per-shard engines over round-robin sub-streams (Theorem 1 applied).

A sharded router splits the stream round-robin: element ``kappa`` goes
to shard ``(kappa - 1) % S``.  Theorem 1 says non-redundancy transfers
to sub-streams — an element that is non-redundant in the full stream is
non-redundant in every sub-stream containing it — so each shard can run
the ordinary single-stream machinery over its sub-stream and the union
of the shards' answers is guaranteed to contain the global answer
(:mod:`repro.parallel.merge` prunes the rest exactly).

The trick that makes the stock engines reusable verbatim is the same
one :class:`~repro.core.timewindow.TimeWindowSkyline` plays with
timestamps: a shard engine labels its intervals with **global** kappas
instead of local positions.  The shared window-start arithmetic
(``label - capacity + 1``, :class:`~repro.core.window.WindowCore`) then
computes the *global* window start, so expiry is exact at every shard
arrival, per element and per chunk alike.

Between two arrivals a shard lags the global clock, so it may retain
elements that have already left the global window ("stale" elements).
That is harmless by construction: every admissible global stab point
``t`` satisfies ``t >= M - N + 1 >`` stale kappa, and an interval's
high endpoint is its element's kappa — stale elements are never stabbed
and expire exactly on the shard's next arrival.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.element import StreamElement
from repro.core.nofn import NofNSkyline
from repro.core.skyband import KSkybandEngine
from repro.core.window import WindowCore
from repro.exceptions import DimensionMismatchError, ReproError
from repro.sanitize.sanitizer import SanitizeArg
from repro.structures.rtree_soa import DEFAULT_MAX_ENTRIES

_ROUTER_ONLY = (
    "shard engines consume router-labelled elements; "
    "use ingest()/ingest_many() instead of append()/append_many()"
)


class _RouterFed(WindowCore[Any]):
    """Router-fed ingestion and the fan-out query surface of a shard
    engine.  ``_stride`` is the shard count ``S``: consecutive kappas of
    one shard differ by at most ``S``."""

    _stride = 1

    def _set_stride(self, stride: int) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self._stride = stride

    def ingest(self, element: StreamElement) -> None:
        """Run one arrival for a router-labelled element (global kappa,
        strictly increasing per shard)."""
        self._check(element, self._m)
        self._m = element.kappa
        self._arrive(element, element.kappa)

    def ingest_many(self, elements: Sequence[StreamElement]) -> None:
        """Batched :meth:`ingest` through the shared chunk frame.

        Consecutive kappas *within the batch* must not gap by more than
        ``stride`` (the router's round-robin guarantees exactly
        ``stride``); the skyband's chunk bound relies on it.  The gap
        to the shard's previous arrival is free: after a snapshot is
        re-sharded, a shard's newest retained element may be far older.
        """
        elems = list(elements)
        previous = self._m
        for index, element in enumerate(elems):
            self._check(element, previous)
            if index and element.kappa - previous > self._stride:
                raise ValueError(
                    f"shard kappa gap {element.kappa - previous} exceeds "
                    f"stride {self._stride}"
                )
            previous = element.kappa
        if elems:
            self._ingest(elems, [e.kappa for e in elems])

    def _check(self, element: StreamElement, previous: int) -> None:
        if element.kappa <= previous:
            raise ValueError(
                f"shard kappas must increase: {element.kappa} <= {previous}"
            )
        if len(element.values) != self.dim:
            raise DimensionMismatchError(self.dim, len(element.values))

    # -- misuse guards --------------------------------------------------

    def append(self, values: Sequence[float], payload: Any = None) -> Any:
        raise ReproError(_ROUTER_ONLY)

    def append_many(
        self,
        points: Sequence[Sequence[float]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> Any:
        raise ReproError(_ROUTER_ONLY)

    # -- fan-out query surface ------------------------------------------

    def stab_elements(self, stab: float) -> List[StreamElement]:
        """This shard's answer to a global stab point, kappa-ascending:
        the skyline (or k-skyband) of the shard's sub-stream suffix
        ``kappa >= stab`` (Theorem 3 on the sub-stream)."""
        return self._answer(stab if self._m else None)

    def retained_suffix(self, stab: float) -> List[StreamElement]:
        """Retained elements with ``kappa >= stab``, kappa-ascending.

        These are the merge's dominance witnesses: within a shard, the
        ``k`` youngest in-window dominators of any element are always
        retained (pruning one would require ``k`` even younger in-shard
        dominators, a contradiction), so counting a candidate's
        dominators over the union of all shards' suffixes decides band
        membership exactly (``k = 1`` for the skyline).
        """
        return [
            record.element
            for _, record in self._labels.items()
            if record.element.kappa >= stab
        ]


class ShardNofNEngine(_RouterFed, NofNSkyline):
    """One shard's n-of-N engine, labelled with global kappas.

    ``capacity`` is the *global* window size ``N`` and ``stride`` the
    shard count ``S``; elements arrive via :meth:`ingest` /
    :meth:`ingest_many` with their global kappas pre-assigned by the
    router.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        stride: int,
        rtree_max_entries: int = DEFAULT_MAX_ENTRIES,
        sanitize: SanitizeArg = "off",
        batch_chunk: Optional[int] = None,
    ) -> None:
        self._set_stride(stride)
        NofNSkyline.__init__(
            self, dim, capacity, rtree_max_entries, sanitize, batch_chunk
        )


class ShardKSkybandEngine(_RouterFed, KSkybandEngine):
    """One shard's k-skyband engine, labelled with global kappas.

    Same construction as :class:`ShardNofNEngine`; only the batch chunk
    size needs the stride: a chunk spanning fewer than ``capacity``
    kappas guarantees no chunk member can expire before its in-chunk
    ``k``-th dominator arrives.
    """

    def __init__(
        self,
        dim: int,
        capacity: int,
        k: int,
        stride: int,
        rtree_max_entries: int = DEFAULT_MAX_ENTRIES,
        sanitize: SanitizeArg = "off",
        batch_chunk: Optional[int] = None,
    ) -> None:
        self._set_stride(stride)
        KSkybandEngine.__init__(
            self, dim, capacity, k, rtree_max_entries, sanitize, batch_chunk
        )

    def _batch_chunk_size(self) -> int:
        """Largest chunk spanning at most ``capacity - 1`` kappas under
        stride-``S`` labels: ``(c - 1) * S <= capacity - 1``."""
        return max(
            1, min(self._batch_chunk, (self.capacity - 1) // self._stride + 1)
        )


ShardEngine = Union[ShardNofNEngine, ShardKSkybandEngine]


def build_shard_engine(spec: Mapping[str, Any]) -> ShardEngine:
    """Construct a shard engine from a picklable spec dict.

    The spec travels over a process boundary for the ``process``
    backend, so it holds only plain values — the same dict drives the
    serial backend for exact behavioural parity.
    """
    kind = spec["kind"]
    common: Dict[str, Any] = {
        "rtree_max_entries": spec["rtree_max_entries"],
        "sanitize": spec["sanitize"],
        # Older specs lack the key; ``None`` resolves to the default.
        "batch_chunk": spec.get("batch_chunk"),
    }
    if kind == "skyband":
        return ShardKSkybandEngine(
            spec["dim"], spec["capacity"], spec["k"], spec["stride"], **common
        )
    if kind == "nofn":
        return ShardNofNEngine(
            spec["dim"], spec["capacity"], spec["stride"], **common
        )
    raise ValueError(f"unknown shard engine kind: {kind!r}")


def shard_introspection(engine: ShardEngine) -> Dict[str, Any]:
    """One shard's introspection bundle (uniform across engine kinds)."""
    return {
        "retained": len(engine),
        "seen": engine.seen_so_far,
        "structure_version": engine.structure_version,
        "cache": engine.cache_stats(),
        "stats": engine.stats.snapshot(),
    }


def shard_records(engine: ShardEngine) -> List[Dict[str, Any]]:
    """One shard's retained elements as snapshot rows, kappa-ascending.

    Restore replays these through :meth:`ingest`, re-deriving all graph
    annotations — which is what makes snapshots portable across shard
    counts.
    """
    return [
        {
            "kappa": record.element.kappa,
            "values": list(record.element.values),
            "payload": record.element.payload,
        }
        for _, record in engine._labels.items()
    ]
