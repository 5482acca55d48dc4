"""One driver per engine kind: build, ingest, query, read stats, and
check answers against an independent oracle.

Every call a driver makes into the library goes through the public
API; the timed loop in :mod:`perfbench.measure` calls :meth:`ingest`
and :meth:`query` and nothing else.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.inputs import Inputs, Point, Spec
from repro import ContinuousQueryManager, NofNSkyline, ShardedNofNSkyline
from repro.baselines import sfs_skyline
from repro.core.query_index import mixed_query_plan

#: Points per ``append_many`` call while filling the window in set-up.
FILL_CHUNK = 1024


def oracle_kappas(inputs: Inputs, seen: int, n: int) -> List[int]:
    """Skyline of the last ``n`` of ``seen`` inputs by SFS, under the
    library's tie rule: of exactly equal points only the youngest copy
    counts (SFS keeps every copy, so keep the last one per value)."""
    first = max(1, seen - n + 1)
    window = [inputs.point_at(kappa) for kappa in range(first, seen + 1)]
    youngest: Dict[Point, int] = {}
    for index in sfs_skyline(window):
        youngest[window[index]] = first + index
    return sorted(youngest.values())


class Driver:
    """Base driver: ``target`` is the object the user calls."""

    def __init__(self, spec: Spec, inputs: Inputs) -> None:
        self.spec = spec
        self.inputs = inputs
        self.target: Any = None

    def setup_steps(self) -> Iterator[None]:
        """Construct the engine, fill the window to ``N`` and register
        handles, yielding between steps so the caller can time each
        step and probe machine speed in between."""
        raise NotImplementedError

    def ingest(self, points: List[Point]) -> None:
        raise NotImplementedError

    def query(self, i: int) -> Tuple[int, List[Any]]:
        """Run query ``i`` of the plan; return ``(n, answer)``."""
        raise NotImplementedError

    @property
    def seen(self) -> int:
        return int(self.target.seen_so_far)

    def surface(self) -> Dict[str, float]:
        """Stats-surface counters (see :func:`perfbench.layers.derive`)."""
        raise NotImplementedError

    def end_checks(self) -> Tuple[int, int]:
        """Extra end-of-run checks: ``(checked, mismatches)``."""
        return 0, 0

    def close(self) -> None:
        self.target = None

    def _fill(self, engine: Any) -> Iterator[None]:
        prefill = self.inputs.prefill
        for lo in range(0, len(prefill), FILL_CHUNK):
            engine.append_many(prefill[lo : lo + FILL_CHUNK])
            yield


def _engine_surface(engine: NofNSkyline) -> Dict[str, float]:
    stats = engine.stats
    out = {
        "arrivals": stats.arrivals,
        "expiries": stats.expiries,
        "dominated_removed": stats.dominated_removed,
        "rn_size_sum": stats.rn_size_sum,
    }
    out.update(_cache_surface(engine.cache_stats()))
    return out


def _cache_surface(cache: Optional[Dict[str, int]]) -> Dict[str, float]:
    if cache is None:
        return {}
    return {
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_rebuilds": cache["rebuilds"],
        "cache_snapshot_size": cache["snapshot_size"],
    }


class NofNDriver(Driver):
    """``NofNSkyline``: ``append`` per element when ``batch == 1``,
    else ``append_many``; ad-hoc ``query(n)``."""

    def setup_steps(self) -> Iterator[None]:
        engine = NofNSkyline(self.spec.dim, self.spec.capacity)
        yield from self._fill(engine)
        self.target = engine

    def ingest(self, points: List[Point]) -> None:
        if len(points) == 1:
            self.target.append(points[0])
        else:
            self.target.append_many(points)

    def query(self, i: int) -> Tuple[int, List[Any]]:
        n = self.inputs.query_ns[i % len(self.inputs.query_ns)]
        return n, self.target.query(n)

    def surface(self) -> Dict[str, float]:
        return _engine_surface(self.target)


class ContinuousDriver(Driver):
    """``ContinuousQueryManager`` over ``NofNSkyline`` with
    ``mixed_query_plan`` handles; the query reads one handle's result."""

    def setup_steps(self) -> Iterator[None]:
        engine = NofNSkyline(self.spec.dim, self.spec.capacity)
        yield from self._fill(engine)
        manager = ContinuousQueryManager(engine)
        self.handles = [
            manager.register(n)
            for n in mixed_query_plan(self.spec.handles, self.spec.capacity)
        ]
        self.target = manager

    def ingest(self, points: List[Point]) -> None:
        self.target.append_many(points)

    def query(self, i: int) -> Tuple[int, List[Any]]:
        handle = self.handles[self.inputs.picks[i % len(self.inputs.picks)]]
        return handle.n, handle.result()

    @property
    def seen(self) -> int:
        return int(self.target.engine.seen_so_far)

    def surface(self) -> Dict[str, float]:
        out = _engine_surface(self.target.engine)
        index = self.target.query_index_stats()
        if index is not None:
            out["routed_events"] = index["routed_events"]
            out["touched_groups"] = index["touched_groups"]
            out["groups"] = index["groups"]
        return out

    def end_checks(self) -> Tuple[int, int]:
        """Every handle's ``result()`` against a fresh ``engine.query(n)``."""
        engine = self.target.engine
        mismatches = 0
        for handle in self.handles:
            got = [element.kappa for element in handle.result()]
            want = [element.kappa for element in engine.query(handle.n)]
            mismatches += got != want
        return len(self.handles), mismatches


class ShardedDriver(Driver):
    """``ShardedNofNSkyline`` on the serial backend: ``append_many`` and
    merged ``query(n)``."""

    def setup_steps(self) -> Iterator[None]:
        router = ShardedNofNSkyline(
            self.spec.dim,
            self.spec.capacity,
            shards=self.spec.shards,
            backend="serial",
        )
        self.target = router  # closed by close() even if the fill fails
        yield from self._fill(router)

    def ingest(self, points: List[Point]) -> None:
        self.target.append_many(points)

    def query(self, i: int) -> Tuple[int, List[Any]]:
        n = self.inputs.query_ns[i % len(self.inputs.query_ns)]
        return n, self.target.query(n)

    def surface(self) -> Dict[str, float]:
        shards = self.target.shard_stats()
        out: Dict[str, float] = {"arrivals": 0, "expiries": 0, "dominated_removed": 0, "rn_size_sum": 0}
        for shard in shards:
            stats = shard["stats"]
            out["arrivals"] += stats["arrivals"]
            out["expiries"] += stats["expiries"]
            out["dominated_removed"] += stats["dominated_removed"]
            out["rn_size_sum"] += stats["rn_size_mean"] * stats["arrivals"]
        out.update(_cache_surface(self.target.cache_stats()))
        retained = [shard["retained"] for shard in shards]
        out["skew"] = max(retained) * len(retained) / max(1, sum(retained))
        return out

    def close(self) -> None:
        if self.target is not None:
            self.target.close()
        self.target = None


DRIVERS = {"nofn": NofNDriver, "continuous": ContinuousDriver, "sharded": ShardedDriver}


def make_driver(spec: Spec, inputs: Inputs) -> Driver:
    return DRIVERS[spec.engine](spec, inputs)
