"""The layer map: which library callables the traced run wraps, and how
its spans and the engines' public stats surfaces become per-layer
metrics.

Group names follow the module that owns the layer.  Each group reports
``<group>.calls`` and ``<group>.self_s`` (totals over the traced
slices); the extra metrics below come from observers at the same call
boundary or from the stats surfaces (``EngineStats``,
``cache_stats()``, ``query_index_stats()``, ``shard_stats()``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from perfbench.tracer import Target

Counters = Dict[str, float]


def _add(counters: Counters, key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0.0) + amount


def _reported(c: Counters, args: Sequence[Any], result: Any) -> None:
    _add(c, "dominated.reported", len(result))


def _reported_batch(c: Counters, args: Sequence[Any], result: Any) -> None:
    _add(c, "dominated.reported", sum(len(victims) for victims in result))


def _dominator(c: Counters, args: Sequence[Any], result: Any) -> None:
    _add(c, "dominator.probes", 1)
    _add(c, "dominator.hits", result is not None)


def _dominator_batch(c: Counters, args: Sequence[Any], result: Any) -> None:
    _add(c, "dominator.probes", len(result))
    _add(c, "dominator.hits", sum(entry is not None for entry in result))


def _prefilter(c: Counters, args: Sequence[Any], result: Any) -> None:
    _add(c, "prefilter.points", len(args[1]))
    _add(c, "prefilter.dropped", args[0].dropped)


def _merge(c: Counters, args: Sequence[Any], result: Any) -> None:
    _add(c, "merge.pool", sum(len(answers) for answers in args[0]))
    _add(c, "merge.kept", len(result))


_RTREE = "repro.structures.rtree_soa"
TARGETS: List[Target] = [
    Target("rtree_soa.dominated_search", _RTREE, "SoARTree.remove_dominated", _reported),
    Target("rtree_soa.dominated_search", _RTREE, "SoARTree.report_dominated_batch", _reported_batch),
    Target("rtree_soa.dominator_search", _RTREE, "SoARTree.max_kappa_dominator", _dominator),
    Target("rtree_soa.dominator_search", _RTREE, "SoARTree.max_kappa_dominator_batch", _dominator_batch),
    Target("rtree_soa.flush", _RTREE, "SoARTree.insert"),
    Target("rtree_soa.flush", _RTREE, "SoARTree.delete"),
    Target("rtree_soa.flush", _RTREE, "SoARTree.insert_many"),
    Target("rtree_soa.flush", _RTREE, "SoARTree.delete_many"),
    Target("interval_tree.write", "repro.structures.interval_tree", "IntervalTree.insert"),
    Target("interval_tree.write", "repro.structures.interval_tree", "IntervalTree.remove"),
    Target("interval_tree.write", "repro.structures.interval_tree", "IntervalTree.replace"),
    Target("labelset", "repro.structures.labelset", "LabelSet.append"),
    Target("labelset", "repro.structures.labelset", "LabelSet.remove"),
    Target("batch_prefilter", "repro.accel.batch_prefilter", "BatchPrefilter.__init__", _prefilter),
    Target("stab_cache.stab", "repro.accel.stab_cache", "StabCache.stab"),
    Target("nofn", "repro.core.nofn", "NofNSkyline.append"),
    Target("nofn", "repro.core.nofn", "NofNSkyline.append_many"),
    Target("nofn", "repro.core.nofn", "NofNSkyline.query"),
    Target("continuous.process", "repro.core.continuous", "ContinuousQueryManager.process"),
    Target("continuous.process", "repro.core.continuous", "ContinuousQueryManager.process_batch"),
    Target("query_index.route", "repro.core.query_index", "QueryIndex.range_between"),
    Target("query_index.route", "repro.core.query_index", "QueryIndex.prefix_upto"),
    Target("query_index.route", "repro.core.query_index", "QueryIndex.schedule"),
    Target("sharded.route", "repro.parallel.sharded", "ShardedNofNSkyline.append"),
    Target("sharded.route", "repro.parallel.sharded", "ShardedNofNSkyline.append_many"),
    Target("sharded.route", "repro.parallel.sharded", "ShardedNofNSkyline.query"),
    Target("shard_engines.ingest", "repro.parallel.shard_engines", "ShardNofNEngine.ingest"),
    Target("shard_engines.ingest", "repro.parallel.shard_engines", "ShardNofNEngine.ingest_many"),
    Target("shard_engines.stab", "repro.parallel.shard_engines", "ShardNofNEngine.stab_elements"),
    Target("merge", "repro.parallel.merge", "merge_skyline", _merge),
    Target("numpy_skyline.pareto_mask", "repro.accel.numpy_skyline", "pareto_mask"),
]

GROUPS: List[str] = list(dict.fromkeys(target.group for target in TARGETS))

#: Every per-layer metric: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    entry
    for group in GROUPS
    for entry in ((f"{group}.calls", "count", "lower"), (f"{group}.self_s", "s", "lower"))
] + [
    ("rtree_soa.dominated_search.reported", "count", "lower"),
    ("rtree_soa.dominator_search.hit_share", "ratio", "higher"),
    ("rtree_soa.active_blocks", "count", "lower"),
    ("batch_prefilter.dropped_share", "ratio", "higher"),
    ("stab_cache.hit_rate", "ratio", "higher"),
    ("stab_cache.rebuilds", "1/arrival", "lower"),
    ("stab_cache.snapshot_size", "count", "lower"),
    ("nofn.expiries", "1/arrival", "lower"),
    ("nofn.dominated_removed", "1/arrival", "lower"),
    ("nofn.rn_size_mean", "count", "lower"),
    ("query_index.touched_per_event", "count", "lower"),
    ("query_index.groups", "count", "lower"),
    ("sharded.skew", "ratio", "lower"),
    ("merge.pool", "count", "lower"),
    ("merge.kept_share", "ratio", "higher"),
    ("trace.arrivals", "count", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    calls: Dict[str, int],
    self_s: Dict[str, float],
    counters: Counters,
    instances: Dict[str, Dict[int, Any]],
    before: Dict[str, float],
    after: Dict[str, float],
    trace: Dict[str, float],
) -> Dict[str, float]:
    """All :data:`PER_LAYER` values of one traced run.

    ``before``/``after`` are stats-surface readings at the start and end
    of the timed phase; ``trace`` holds ``arrivals``, ``overhead`` and
    ``coverage`` of the traced slices.
    """
    out: Dict[str, float] = {}
    for group in GROUPS:
        out[f"{group}.calls"] = calls.get(group, 0)
        out[f"{group}.self_s"] = self_s.get(group, 0.0)
    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    arrivals = delta.get("arrivals", 0.0)
    trees = list(instances.get("rtree_soa.flush", {}).values())
    out.update(
        {
            "rtree_soa.dominated_search.reported": counters.get("dominated.reported", 0.0),
            "rtree_soa.dominator_search.hit_share": _ratio(
                counters.get("dominator.hits", 0.0), counters.get("dominator.probes", 0.0)
            ),
            "rtree_soa.active_blocks": sum(tree.active_blocks() for tree in trees),
            "batch_prefilter.dropped_share": _ratio(
                counters.get("prefilter.dropped", 0.0), counters.get("prefilter.points", 0.0)
            ),
            "stab_cache.hit_rate": _ratio(
                delta.get("cache_hits", 0.0),
                delta.get("cache_hits", 0.0) + delta.get("cache_misses", 0.0),
            ),
            "stab_cache.rebuilds": _ratio(delta.get("cache_rebuilds", 0.0), arrivals),
            "stab_cache.snapshot_size": after.get("cache_snapshot_size", 0.0),
            "nofn.expiries": _ratio(delta.get("expiries", 0.0), arrivals),
            "nofn.dominated_removed": _ratio(delta.get("dominated_removed", 0.0), arrivals),
            "nofn.rn_size_mean": _ratio(delta.get("rn_size_sum", 0.0), arrivals),
            "query_index.touched_per_event": _ratio(
                delta.get("touched_groups", 0.0), delta.get("routed_events", 0.0)
            ),
            "query_index.groups": after.get("groups", 0.0),
            "sharded.skew": after.get("skew", 0.0),
            "merge.pool": _ratio(counters.get("merge.pool", 0.0), calls.get("merge", 0)),
            "merge.kept_share": _ratio(
                counters.get("merge.kept", 0.0), counters.get("merge.pool", 0.0)
            ),
            "trace.arrivals": trace["arrivals"],
            "trace.overhead": trace["overhead"],
            "trace.coverage": trace["coverage"],
        }
    )
    return out
