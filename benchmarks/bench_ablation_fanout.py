"""Ablation — R-tree fan-out.

The engines default to ``rtree_max_entries = 12``; the dominance index
derives its block capacity from it (``max(32, 4 * max_entries)`` rows
per block), so fan-outs up to 8 share the 32-row floor.  Block size
trades per-block scan width against the number of block summaries each
search tests; this sweep measures steady-state maintenance cost across
fan-outs on the workload where the index matters most (anti-correlated
data, where ``|R_N|`` is largest).

Expected shape: a shallow bowl — small blocks pay for many summaries
and frequent splits, huge blocks degenerate toward linear scans — with
a broad optimum; the default sits inside it.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    feed_timed,
    format_seconds,
    render_series,
    scaled,
    stream_points,
)
from repro.core.nofn import NofNSkyline

FANOUTS = (4, 8, 12, 24, 48)
DIMS = (2, 4)


def _run(dim: int, capacity: int, fanout: int):
    points = stream_points("anticorrelated", dim, 2 * capacity, seed=83)
    engine = NofNSkyline(dim, capacity, rtree_max_entries=fanout)
    return feed_timed(engine, points, warmup=capacity)


def test_ablation_fanout_sweep(report, benchmark):
    """Maintenance cost across R-tree fan-outs (anti-correlated)."""
    capacity = scaled(1500)
    results = {}

    def run_figure():
        for dim in DIMS:
            for fanout in FANOUTS:
                results[(dim, fanout)] = _run(dim, capacity, fanout)

    benchmark.pedantic(run_figure, rounds=1, iterations=1)

    series = [
        (
            f"d{dim} avg",
            [format_seconds(results[(dim, f)].avg_seconds) for f in FANOUTS],
        )
        for dim in DIMS
    ]
    report(
        "ablation_fanout",
        render_series(
            f"Ablation — R-tree fan-out sweep "
            f"(anti-correlated, N={capacity})",
            "max_entries",
            list(FANOUTS),
            series,
        ),
    )

    # Sanity: every configuration completed and none is pathologically
    # (10x) worse than the default fan-out of 12.
    for dim in DIMS:
        baseline = results[(dim, 12)].avg_seconds
        for fanout in FANOUTS:
            assert results[(dim, fanout)].avg_seconds < baseline * 10 + 1e-6


@pytest.mark.parametrize("fanout", (4, 12, 48))
def test_fanout_append_benchmark(benchmark, fanout):
    """Micro-benchmark: append cost at selected fan-outs (d=4 anti)."""
    capacity = scaled(800)
    rounds = 200
    engine = NofNSkyline(4, capacity, rtree_max_entries=fanout)
    for point in stream_points("anticorrelated", 4, capacity, seed=89):
        engine.append(point)
    points = iter(stream_points("anticorrelated", 4, rounds + 10, seed=97))
    benchmark.pedantic(lambda: engine.append(next(points)), rounds=rounds, iterations=1)
