"""Snapshot byte identity against committed fixtures.

Each fixture under ``tests/fixtures/snapshots/stream_*.json`` is the
``dumps()`` output of one engine fed :func:`operations` — a seeded mix of
``append`` and ``append_many`` calls with queries in between — written
by the library as it stood before the engines shared one skeleton.
Replaying the same stream today must give the same bytes, with two
normalisations: the batch timing counters (wall-clock seconds) are
zeroed on both sides, and the fixture's ``rtree.min_entries`` key (an
index knob the library no longer has) is dropped.  Restoring a fixture
must answer every query like the engine that replayed the stream.

Regenerate (only when a snapshot change is intended) with::

    PYTHONPATH=src python tests/test_snapshot_bytes.py tests/fixtures/snapshots
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro import (
    ContinuousQueryManager,
    N1N2Skyline,
    NofNSkyline,
    TimeWindowSkyline,
)
from repro.core.persistence import dumps, loads
from repro.parallel.sharded import ShardedKSkyband, ShardedNofNSkyline

FIXTURES = Path(__file__).parent / "fixtures" / "snapshots"

DIM = 3
CAPACITY = 40
HORIZON = 30.0
BATCH_CHUNK = 5
SEED = 1618
KINDS = (
    "nofn", "timewindow", "n1n2", "continuous",
    "sharded_nofn", "sharded_skyband",
)
TIMINGS = ("batch_seconds_total", "batch_seconds_max")


def operations():
    """The seeded stream: ``(points, stamps, payloads, single)`` calls.

    Coordinates sit on a 7-step grid, so exact duplicates and ties
    occur; stamps advance by irregular gaps, so several elements can
    leave the time window on one arrival.
    """
    rng = random.Random(SEED)
    now = 0.0
    kappa = 0
    ops = []
    while kappa < 260:
        single = rng.random() < 0.4
        size = 1 if single else rng.randint(2, 23)
        points, stamps, payloads = [], [], []
        for _ in range(size):
            kappa += 1
            now += rng.choice((0.25, 0.5, 1.0, 3.0))
            points.append(tuple(rng.randint(0, 6) / 6 for _ in range(DIM)))
            stamps.append(now)
            payloads.append(f"p{kappa}" if kappa % 3 else None)
        ops.append((points, stamps, payloads, single))
    return ops


def build(kind):
    """A fresh engine of ``kind`` (sharded routers use the serial
    backend and must be closed)."""
    common = {"batch_chunk": BATCH_CHUNK}
    if kind == "nofn":
        return NofNSkyline(DIM, CAPACITY, **common)
    if kind == "timewindow":
        return TimeWindowSkyline(DIM, HORIZON, **common)
    if kind == "n1n2":
        return N1N2Skyline(DIM, CAPACITY, **common)
    if kind == "continuous":
        manager = ContinuousQueryManager(NofNSkyline(DIM, CAPACITY, **common))
        for n in (1, 4, 9, CAPACITY):
            manager.register(n)
        return manager
    if kind == "sharded_nofn":
        return ShardedNofNSkyline(DIM, CAPACITY, shards=2, **common)
    if kind == "sharded_skyband":
        return ShardedKSkyband(DIM, CAPACITY, k=2, shards=2, **common)
    raise ValueError(kind)


def ask(engine, kind):
    """Every query the engine answers, as kappa lists."""
    if kind == "timewindow":
        durations = [HORIZON * i / 8 for i in range(1, 9)]
        return [[e.kappa for e in engine.query_last(d)] for d in durations]
    if kind == "n1n2":
        return [
            [e.kappa for e in engine.query(n1, n2)]
            for n2 in range(1, CAPACITY + 1)
            for n1 in range(1, n2 + 1)
        ]
    if kind == "continuous":
        return [handle.result_kappas() for handle in engine]
    return [[e.kappa for e in engine.query(n)] for n in range(1, CAPACITY + 1)]


def replay(kind):
    """Feed :func:`operations` to a fresh engine; return it."""
    engine = build(kind)
    for step, (points, stamps, payloads, single) in enumerate(operations()):
        if kind == "timewindow":
            if single:
                engine.append(points[0], stamps[0], payloads[0])
            else:
                engine.append_many(points, stamps, payloads)
        elif single:
            engine.append(points[0], payloads[0])
        else:
            engine.append_many(points, payloads)
        if step % 4 == 0 and kind != "continuous":
            ask(engine, kind)
    return engine


def normalised(text):
    """``dumps()`` text with the wall-clock counters zeroed and the
    retired ``rtree.min_entries`` key dropped, re-serialised in the
    original key order."""
    snap = json.loads(text)
    inner = snap["engine"] if snap["kind"] == "continuous" else snap
    for key in TIMINGS:
        inner["stats"][key] = 0.0
    inner.get("rtree", {}).pop("min_entries", None)
    return json.dumps(snap)


def close(engine):
    if hasattr(engine, "close"):
        engine.close()


@pytest.mark.parametrize("kind", KINDS)
def test_replay_writes_the_fixture_bytes(kind):
    fixture = (FIXTURES / f"stream_{kind}.json").read_text()
    engine = replay(kind)
    try:
        assert normalised(dumps(engine)) == normalised(fixture)
    finally:
        close(engine)


@pytest.mark.parametrize("kind", KINDS)
def test_restored_fixture_answers_like_the_replay(kind):
    clone = loads((FIXTURES / f"stream_{kind}.json").read_text())
    engine = replay(kind)
    try:
        assert ask(clone, kind) == ask(engine, kind)
        clone.check_invariants()
    finally:
        close(clone)
        close(engine)


def write_fixtures(directory):
    for kind in KINDS:
        engine = replay(kind)
        try:
            (Path(directory) / f"stream_{kind}.json").write_text(dumps(engine))
        finally:
            close(engine)


if __name__ == "__main__":
    write_fixtures(sys.argv[1])
