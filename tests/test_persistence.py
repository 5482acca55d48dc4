"""Tests for engine snapshot / restore."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import N1N2Skyline, NofNSkyline, ShardedNofNSkyline, TimeWindowSkyline
from repro.core.persistence import SnapshotError, dumps, loads, restore, snapshot
from repro.streams import materialize

FIXTURES = Path(__file__).parent / "fixtures" / "snapshots"


class TestNofNRoundTrip:
    def test_queries_survive_round_trip(self):
        engine = NofNSkyline(dim=2, capacity=50)
        for point in materialize("anticorrelated", 2, 120, seed=1):
            engine.append(point)
        clone = restore(snapshot(engine))
        for n in range(1, 51):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in engine.query(n)
            ]
        clone.check_invariants()

    def test_clone_keeps_evolving_identically(self):
        points = materialize("independent", 3, 150, seed=2)
        engine = NofNSkyline(dim=3, capacity=40)
        for point in points[:100]:
            engine.append(point)
        clone = restore(snapshot(engine))
        for point in points[100:]:
            engine.append(point)
            clone.append(point)
        assert engine.dominance_graph_edges() == clone.dominance_graph_edges()
        assert [e.kappa for e in engine.skyline()] == [
            e.kappa for e in clone.skyline()
        ]

    def test_payloads_and_stats_preserved(self):
        engine = NofNSkyline(dim=1, capacity=5)
        engine.append((1.0,), payload={"deal": 1})
        engine.query(1)
        clone = restore(snapshot(engine))
        assert clone.stats.arrivals == 1
        assert clone.stats.queries == 1  # the clone's own queries: none yet
        [element] = clone.skyline()
        assert element.payload == {"deal": 1}

    def test_json_round_trip(self):
        engine = NofNSkyline(dim=2, capacity=10)
        for point in materialize("correlated", 2, 30, seed=3):
            engine.append(point)
        clone = loads(dumps(engine))
        assert [e.kappa for e in clone.skyline()] == [
            e.kappa for e in engine.skyline()
        ]

    def test_empty_engine_round_trip(self):
        clone = restore(snapshot(NofNSkyline(dim=2, capacity=7)))
        assert clone.seen_so_far == 0
        assert clone.skyline() == []
        clone.append((0.5, 0.5))
        assert [e.kappa for e in clone.skyline()] == [1]


class TestTimeWindowRoundTrip:
    def test_clock_and_horizon_preserved(self):
        engine = TimeWindowSkyline(dim=2, horizon=10.0)
        engine.append((0.5, 0.5), timestamp=1.5)
        engine.append((0.2, 0.8), timestamp=3.0)
        clone = restore(snapshot(engine))
        assert isinstance(clone, TimeWindowSkyline)
        assert clone.now == 3.0
        assert clone.horizon == 10.0
        assert [e.kappa for e in clone.query_last(5.0)] == [
            e.kappa for e in engine.query_last(5.0)
        ]
        # Evolution continues: timestamps must still increase.
        clone.append((0.1, 0.1), timestamp=4.0)
        with pytest.raises(ValueError):
            clone.append((0.3, 0.3), timestamp=4.0)


class TestN1N2RoundTrip:
    def test_all_slices_survive_round_trip(self):
        engine = N1N2Skyline(dim=2, capacity=20)
        for point in materialize("anticorrelated", 2, 50, seed=4):
            engine.append(point)
        clone = restore(snapshot(engine))
        for n1 in range(1, 21, 3):
            for n2 in range(n1, 21, 3):
                assert [e.kappa for e in clone.query(n1, n2)] == [
                    e.kappa for e in engine.query(n1, n2)
                ]
        clone.check_invariants()

    def test_ancestors_preserved(self):
        engine = N1N2Skyline(dim=2, capacity=10)
        for point in materialize("independent", 2, 25, seed=5):
            engine.append(point)
        clone = restore(snapshot(engine))
        for element in engine.window_elements():
            assert clone.ancestors(element.kappa) == (
                engine.ancestors(element.kappa)
            )

    def test_clone_keeps_evolving_identically(self):
        points = materialize("independent", 2, 80, seed=6)
        engine = N1N2Skyline(dim=2, capacity=15)
        for point in points[:50]:
            engine.append(point)
        clone = restore(snapshot(engine))
        for point in points[50:]:
            engine.append(point)
            clone.append(point)
        assert [e.kappa for e in clone.query(3, 12)] == [
            e.kappa for e in engine.query(3, 12)
        ]
        clone.check_invariants()


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(SnapshotError):
            restore("not a dict")  # type: ignore[arg-type]

    def test_rejects_unknown_version(self):
        snap = snapshot(NofNSkyline(dim=1, capacity=2))
        snap["format"] = 99
        with pytest.raises(SnapshotError, match="format"):
            restore(snap)

    def test_rejects_unknown_kind(self):
        snap = snapshot(NofNSkyline(dim=1, capacity=2))
        snap["kind"] = "mystery"
        with pytest.raises(SnapshotError, match="kind"):
            restore(snap)

    def test_rejects_missing_parent(self):
        engine = NofNSkyline(dim=1, capacity=4)
        engine.append((1.0,))
        engine.append((2.0,))  # child of kappa 1
        snap = snapshot(engine)
        snap["records"] = [r for r in snap["records"] if r["kappa"] != 1]
        with pytest.raises(SnapshotError, match="missing"):
            restore(snap)

    def test_rejects_unsupported_engine(self):
        with pytest.raises(SnapshotError, match="unsupported"):
            snapshot(object())  # type: ignore[arg-type]


class TestPropertyRoundTrip:
    coord = st.integers(0, 6).map(lambda v: v / 6)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.integers(1, 10),
    )
    def test_nofn_round_trip_equivalence(self, history, capacity):
        engine = NofNSkyline(dim=2, capacity=capacity)
        for point in history:
            engine.append(point)
        clone = restore(snapshot(engine))
        clone.check_invariants()
        for n in range(1, capacity + 1):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in engine.query(n)
            ]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.integers(1, 10),
    )
    def test_n1n2_round_trip_equivalence(self, history, capacity):
        engine = N1N2Skyline(dim=2, capacity=capacity)
        for point in history:
            engine.append(point)
        clone = restore(snapshot(engine))
        clone.check_invariants()
        for n1 in range(1, capacity + 1, 2):
            for n2 in range(n1, capacity + 1, 2):
                assert [e.kappa for e in clone.query(n1, n2)] == [
                    e.kappa for e in engine.query(n1, n2)
                ]


class TestRTreeConfigRoundTrip:
    """Snapshots must record the R-tree tuning (fan-out bounds) so a
    restored engine evolves identically — and must still
    accept older snapshots that predate the ``rtree`` section."""

    coord = st.integers(0, 6).map(lambda v: v / 6)

    FANOUTS = st.integers(4, 16)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.integers(1, 10),
        FANOUTS,
    )
    def test_nofn_tuning_round_trips(self, history, capacity, fanout):
        engine = NofNSkyline(
            dim=2, capacity=capacity, rtree_max_entries=fanout
        )
        for point in history:
            engine.append(point)
        clone = restore(snapshot(engine))
        assert clone._rtree.max_entries == fanout
        clone.check_invariants()
        for n in range(1, capacity + 1):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in engine.query(n)
            ]

    def test_timewindow_tuning_round_trips(self):
        engine = TimeWindowSkyline(
            dim=2,
            horizon=5.0,
            rtree_max_entries=6,
        )
        for i, point in enumerate(materialize("independent", 2, 60, seed=4)):
            engine.append(point, float(i + 1))
        clone = restore(snapshot(engine))
        assert clone._rtree.max_entries == 6
        assert [e.kappa for e in clone.skyline()] == [
            e.kappa for e in engine.skyline()
        ]

    def test_n1n2_tuning_round_trips(self):
        engine = N1N2Skyline(
            dim=2,
            capacity=20,
            rtree_max_entries=8,
        )
        for point in materialize("anticorrelated", 2, 50, seed=9):
            engine.append(point)
        clone = restore(snapshot(engine))
        assert clone._rtree.max_entries == 8
        for n1, n2 in ((1, 20), (5, 10), (20, 20)):
            assert [e.kappa for e in clone.query(n1, n2)] == [
                e.kappa for e in engine.query(n1, n2)
            ]

    def test_old_snapshot_without_rtree_section_restores(self):
        """Snapshots written before the rtree section existed must load
        with the default tuning."""
        engine = NofNSkyline(dim=2, capacity=10)
        for point in materialize("independent", 2, 30, seed=3):
            engine.append(point)
        snap = snapshot(engine)
        del snap["rtree"]
        clone = restore(snap)
        assert clone._rtree.max_entries == 12
        assert [e.kappa for e in clone.skyline()] == [
            e.kappa for e in engine.skyline()
        ]

    def test_malformed_rtree_section_is_rejected(self):
        engine = NofNSkyline(dim=2, capacity=5)
        engine.append((0.5, 0.5))
        snap = snapshot(engine)
        snap["rtree"] = "bogus"
        with pytest.raises(SnapshotError):
            restore(snap)

    def test_clone_with_tuning_keeps_evolving_identically(self):
        points = materialize("anticorrelated", 2, 120, seed=6)
        engine = NofNSkyline(
            dim=2, capacity=30, rtree_max_entries=5,
        )
        for point in points[:80]:
            engine.append(point)
        clone = restore(snapshot(engine))
        for point in points[80:]:
            engine.append(point)
            clone.append(point)
        assert engine.dominance_graph_edges() == clone.dominance_graph_edges()
        assert [e.kappa for e in engine.skyline()] == [
            e.kappa for e in clone.skyline()
        ]


class TestLegacyIndexKeys:
    """Snapshots written while the library offered a choice of R-tree
    layout, split policy and leaf kernels carry ``rtree.split``,
    ``rtree.layout`` and ``query.kernels``; those written while it
    offered a stab-cache switch carry ``query.cache``.  The committed
    fixtures were written by those versions from :data:`POINTS` with
    ``capacity=10`` (``*_legacy_index_keys``: pointer layout, R* split,
    kernels off; ``*_query_cache_off``: ``query_cache=False``); those
    written while it offered a minimum fan-out carry
    ``rtree.min_entries`` (``*_min_entries``: 3 for the engine, 5 for
    the sharded router).  Restore must accept the keys, ignore them,
    and answer exactly like a fresh engine."""

    POINTS = [
        (float(i * 7 % 10), float((i * 3 + 5) % 11)) for i in range(1, 21)
    ]
    MORE = [(float(i % 4), float(9 - i % 6)) for i in range(12)]
    CAPACITY = 10

    def load(self, name):
        snap = json.loads((FIXTURES / name).read_text())
        if "query_cache_off" in name:
            assert snap["query"] == {"cache": False}
        elif "min_entries" in name:
            assert snap["rtree"]["min_entries"] in (3, 5)
        else:
            assert snap["rtree"]["split"] == "rstar"
            assert snap["rtree"]["layout"] == "pointer"
            assert snap["query"]["kernels"] == "off"
        return snap

    def assert_same_answers(self, clone, fresh):
        for n in range(1, self.CAPACITY + 1):
            assert [e.kappa for e in clone.query(n)] == [
                e.kappa for e in fresh.query(n)
            ], f"n={n}"

    @pytest.mark.parametrize(
        "name",
        [
            "nofn_legacy_index_keys.json",
            "sharded_nofn_legacy_index_keys.json",
            "nofn_query_cache_off.json",
            "sharded_nofn_query_cache_off.json",
            "nofn_min_entries.json",
            "sharded_nofn_min_entries.json",
        ],
    )
    def test_fixture_answers_like_a_fresh_engine(self, name):
        snap = self.load(name)
        fresh = NofNSkyline(dim=2, capacity=self.CAPACITY)
        for point in self.POINTS:
            fresh.append(point)
        clone = restore(snap)
        try:
            self.assert_same_answers(clone, fresh)
            clone.check_invariants()
            # ...and keeps answering identically as the stream goes on.
            for point in self.MORE:
                clone.append(point)
                fresh.append(point)
                self.assert_same_answers(clone, fresh)
        finally:
            if isinstance(clone, ShardedNofNSkyline):
                clone.close()

    def test_snapshots_no_longer_write_the_keys(self):
        engine = NofNSkyline(dim=2, capacity=self.CAPACITY)
        with ShardedNofNSkyline(
            dim=2, capacity=self.CAPACITY, shards=2
        ) as router:
            for point in self.POINTS:
                engine.append(point)
                router.append(point)
            for snap in (snapshot(engine), snapshot(router)):
                assert set(snap["rtree"]) == {"max_entries"}
                assert "query" not in snap
