"""The benchmark's own tests: tiny workloads run clean, the tracer's
self-time arithmetic is exact, inputs are reproducible from the seed.

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers
from perfbench.drivers import oracle_kappas
from perfbench.inputs import POOL_WINDOWS, SPECS, UNGATED, Inputs, make_inputs
from perfbench.measure import END_TO_END, run_workload
from perfbench.tracer import Target, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def tiny(name):
    spec = SPECS[name]
    return dataclasses.replace(
        spec, capacity=300, setup_repeats=1, handles=min(spec.handles, 40)
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tiny_workload_has_no_failures(name):
    result = run_workload(tiny(name), seed=3, seconds=0.3, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["info"]["fail_rate"] == 0
    assert result["info"]["oracle_checks"] >= 1
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tiny_traced_run_reports_every_layer_and_restores(name):
    from repro.structures.rtree_soa import SoARTree

    original = SoARTree.__dict__["insert_many"]
    result = run_workload(tiny(name), seed=3, seconds=1.2, trace=True)
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in layers.PER_LAYER]
    assert result["info"]["trace_missing"] == []
    assert result["metrics"]["trace.arrivals"]["value"] > 0
    assert SoARTree.__dict__["insert_many"] is original


# -- tracer arithmetic ---------------------------------------------------

_now = [0.0]


class Work:
    def outer(self):
        _now[0] += 1
        self.inner(2)
        _now[0] += 1
        self.inner(4)
        _now[0] += 3
        return "done"

    def inner(self, cost):
        _now[0] += cost


def _tracer():
    return Tracer(
        [Target("outer", __name__, "Work.outer"), Target("inner", __name__, "Work.inner")],
        clock=lambda: _now[0],
    )


def test_self_time_of_nested_calls():
    tracer = _tracer()
    tracer.install()
    try:
        assert Work().outer() == "done"
    finally:
        tracer.uninstall()
    calls, self_s, top = self_times(tracer.spans)
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 5.0, "inner": 6.0}
    assert top == 11.0
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_uninstall_restores_and_missing_targets_are_listed():
    original = Work.__dict__["outer"]
    tracer = Tracer([Target("x", __name__, "Work.outer"), Target("y", __name__, "Work.gone")])
    tracer.install()
    assert Work.__dict__["outer"] is not original
    tracer.uninstall()
    assert Work.__dict__["outer"] is original
    assert tracer.missing == [f"{__name__}:Work.gone"]


def test_child_coverage_is_a_clipped_union():
    spans = [
        ("p", 0.0, 10.0, -1),
        ("c", 1.0, 4.0, 0),
        ("c", 3.0, 6.0, 0),  # overlaps the previous child
        ("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    calls, self_s, top = self_times(spans)
    assert self_s["p"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert calls == {"p": 1, "c": 3}
    assert top == 10.0


# -- inputs and oracle -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
def test_same_seed_gives_byte_identical_inputs(name):
    spec = tiny(name)
    first, second = make_inputs(spec, 5), make_inputs(spec, 5)
    assert first.digest() == second.digest()
    assert first.prefill == second.prefill and first.batches == second.batches
    assert make_inputs(spec, 6).digest() != first.digest()


def test_pool_repeats_without_two_copies_in_one_window():
    spec = tiny("ingest-anti-d5")
    inputs = make_inputs(spec, 1)
    assert len(inputs.pool) >= POOL_WINDOWS * spec.capacity
    assert len(inputs.pool) % spec.batch == 0
    n = spec.capacity
    assert inputs.point_at(n + 1) == inputs.batches[0][0]
    assert inputs.point_at(n + len(inputs.pool) + 1) == inputs.point_at(n + 1)


def test_oracle_keeps_only_the_youngest_duplicate():
    points = [(0.5, 0.5), (0.2, 0.9), (0.5, 0.5), (0.9, 0.9)]
    inputs = Inputs(points, [(1.0, 1.0)], [[(1.0, 1.0)]], [1], [0])
    assert oracle_kappas(inputs, seen=4, n=4) == [2, 3]
    assert oracle_kappas(inputs, seen=4, n=1) == [4]


def test_command_fails_without_library_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-anti-d5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    gated = [spec for name, spec in SPECS.items() if name not in UNGATED]
    assert [w["name"] for w in doc["workloads"]] == [spec.name for spec in gated]
    assert [w["why"] for w in doc["workloads"]] == [spec.why for spec in gated]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
