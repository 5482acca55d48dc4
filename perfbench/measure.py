"""The closed-loop measurement of one workload in one process.

One caller alternates an ingest call and a query call and waits for
each, because the engines are in-process libraries whose caller blocks.
Inputs are generated before set-up; set-up is timed several times and
reported as a median; correctness is checked after the timed phase.

Every time is reported at reference speed (see :mod:`perfbench.probe`):
raw wall time scaled by how fast a fixed probe routine ran around the
moment of measurement.  The raw values go into the record's ``info``.

With tracing on, the timed phase alternates untraced and traced slices
of :data:`SLICE_S` seconds, so machine drift hits both alike; the
per-layer numbers come from the traced slices and the throughput ratio
of the two kinds of slice is the tracing overhead.
"""

from __future__ import annotations

import gc
from array import array
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench import layers
from perfbench.drivers import Driver, make_driver, oracle_kappas
from perfbench.inputs import Inputs, Spec, make_inputs, params
from perfbench.probe import NOMINAL_NS, SpeedTrack, probe_ns
from perfbench.tracer import Tracer, self_times

#: Length of one traced or untraced slice of a traced run.
SLICE_S = 0.5
#: Untimed warm-up before the timed phase (capped at a tenth of it).
WARMUP_S = 0.5
_DONE = object()

END_TO_END: List[Tuple[str, str, str]] = [
    ("throughput_eps", "1/s", "higher"),
    ("ingest_p50_us", "us", "lower"),
    ("ingest_p90_us", "us", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p90_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending non-empty list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def machine() -> Dict[str, Any]:
    """The machine and toolchain a result was measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


class Phase:
    """Everything the timed loop observed, one entry per cycle.

    Per-cycle values live in compact arrays so the benchmark's own
    bookkeeping barely moves ``peak_rss_mb`` as throughput changes.
    """

    def __init__(self) -> None:
        self.started = array("d")
        self.ingest_ns = array("q")
        self.query_ns = array("q")
        self.traced = array("b")
        self.batch = 0
        self.attempted = 0
        self.raised = 0
        self.samples: List[Tuple[int, int, List[int]]] = []
        self.speed = SpeedTrack()


def _cycle(driver: Driver, inputs: Inputs, i: int) -> Tuple[int, List[Any], int, int]:
    points = inputs.batches[i % len(inputs.batches)]
    t0 = perf_counter_ns()
    driver.ingest(points)
    t1 = perf_counter_ns()
    n, answer = driver.query(i)
    t2 = perf_counter_ns()
    return n, answer, t1 - t0, t2 - t1


def timed_phase(
    driver: Driver,
    inputs: Inputs,
    seconds: float,
    first: int,
    keep: int,
    rng: random.Random,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Run ingest/query cycles from cycle ``first`` for ``seconds``.

    A seeded reservoir keeps ``keep`` query answers for the oracle.
    The loop stops at the first call that raises.
    """
    phase = Phase()
    phase.batch = len(inputs.batches[0])
    speed = phase.speed
    mode = 0
    i = first
    queries = 0
    start = slice_start = perf_counter()
    deadline = start + seconds
    while True:
        speed.maybe_probe()
        now = perf_counter()
        if now >= deadline:
            break
        if tracer is not None and now - slice_start >= SLICE_S:
            if mode:
                tracer.uninstall()
            else:
                tracer.install()
            mode ^= 1
            slice_start = perf_counter()
        phase.attempted += 2
        started = perf_counter()
        try:
            n, answer, ingest_ns, query_ns = _cycle(driver, inputs, i)
        except Exception:  # any failure of the program under test
            traceback.print_exc()
            phase.raised += 1
            break
        phase.started.append(started)
        phase.ingest_ns.append(ingest_ns)
        phase.query_ns.append(query_ns)
        phase.traced.append(mode)
        i += 1
        queries += 1
        slot = queries - 1 if queries <= keep else rng.randrange(queries)
        if slot < keep:
            sample = (driver.seen, n, [element.kappa for element in answer])
            if slot < len(phase.samples):
                phase.samples[slot] = sample
            else:
                phase.samples.append(sample)
    if tracer is not None and mode:
        tracer.uninstall()
    speed.finish()
    return phase


def _timed_setup(driver: Driver, repeats: int) -> Tuple[List[float], List[float]]:
    """Build the driver ``repeats`` times; return raw and reference-speed
    seconds per build.  Each set-up step is scaled by the median of the
    probes around it; earlier builds are released before the next."""
    raw, scaled = [], []
    for _ in range(repeats):
        driver.close()
        gc.collect()
        probes, steps = [probe_ns()], []
        for _ in _timed_steps(driver.setup_steps(), steps):
            probes.append(probe_ns())
        probes.append(probe_ns())
        raw.append(sum(steps))
        scaled.append(
            sum(
                step * NOMINAL_NS / statistics.median(probes[max(0, j - 1) : j + 3])
                for j, step in enumerate(steps)
            )
        )
    return raw, scaled


def _timed_steps(steps: Iterator[None], times: List[float]) -> Iterator[None]:
    """Advance ``steps`` one step at a time, appending each step's wall
    time to ``times`` and yielding between steps (not timed)."""
    while True:
        started = perf_counter()
        done = next(steps, _DONE) is _DONE
        times.append(perf_counter() - started)
        if done:
            return
        yield


def _check(driver: Driver, inputs: Inputs, phase: Phase) -> Tuple[int, int]:
    """Oracle checks after the timed phase: ``(checked, mismatches)``."""
    mismatches = 0
    for seen, n, kappas in phase.samples:
        mismatches += kappas != oracle_kappas(inputs, seen, n)
    checked, bad = driver.end_checks()
    return len(phase.samples) + checked, mismatches + bad


def run_workload(
    spec: Spec, seed: int, seconds: float, trace: bool, out_dir: Optional[str] = None
) -> Dict[str, Any]:
    """Measure one workload; return the full result record."""
    inputs = make_inputs(spec, seed)
    driver = make_driver(spec, inputs)
    setup_raw, setup_scaled = _timed_setup(driver, spec.setup_repeats)

    warm_end = perf_counter() + min(WARMUP_S, seconds / 10)
    cycles = 0
    while perf_counter() < warm_end or cycles < 2:
        _cycle(driver, inputs, cycles)
        cycles += 1
    gc.collect()

    tracer = Tracer(layers.TARGETS) if trace else None
    before = driver.surface()
    rng = random.Random(f"{spec.name}:{seed}:oracle")
    phase = timed_phase(
        driver, inputs, seconds, cycles, spec.oracle_samples, rng, tracer
    )
    after = driver.surface()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked, mismatches = (0, 0) if phase.raised else _check(driver, inputs, phase)
    driver.close()

    failed = phase.raised + mismatches
    attempted = max(1, phase.attempted)
    scales = [phase.speed.scale(t) for t in phase.started]
    # Per mode (0 untraced, 1 traced): arrivals, raw and scaled call time.
    arrivals, raw_s, ref_s = [0, 0], [0.0, 0.0], [0.0, 0.0]
    for mode, ingest_ns, query_ns, scale in zip(
        phase.traced, phase.ingest_ns, phase.query_ns, scales
    ):
        arrivals[mode] += phase.batch
        raw_s[mode] += (ingest_ns + query_ns) / 1e9
        ref_s[mode] += (ingest_ns + query_ns) * scale / 1e9
    eps = [a / s if s else 0.0 for a, s in zip(arrivals, ref_s)]
    ingest = sorted(ns * f / 1000.0 for ns, f in zip(phase.ingest_ns, scales)) or [0.0]
    query = sorted(ns * f / 1000.0 for ns, f in zip(phase.query_ns, scales)) or [0.0]
    ingest_raw = sorted(ns / 1000.0 for ns in phase.ingest_ns) or [0.0]
    query_raw = sorted(ns / 1000.0 for ns in phase.query_ns) or [0.0]
    result: Dict[str, Any] = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": params(spec),
        "inputs_sha256": inputs.digest(),
        "machine": machine(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "info": {
            "fail_rate": failed / attempted,
            "oracle_checks": checked,
            "raised": phase.raised,
            "latency_samples": len(phase.ingest_ns),
            "ingest_p99_us": percentile(ingest, 99),
            "query_p99_us": percentile(query, 99),
            "probe_nominal_ns": NOMINAL_NS,
            "probe_median_ns": phase.speed.median_probe_ns(),
            "probes": len(phase.speed.probes),
            "raw": {
                "throughput_eps": arrivals[0] / raw_s[0] if raw_s[0] else 0.0,
                "ingest_p50_us": percentile(ingest_raw, 50),
                "ingest_p90_us": percentile(ingest_raw, 90),
                "query_p50_us": percentile(query_raw, 50),
                "query_p90_us": percentile(query_raw, 90),
                "setup_s": statistics.median(setup_raw),
                "setup_runs_s": setup_raw,
            },
        },
    }
    if tracer is not None:
        calls, self_s, top = self_times(tracer.spans, phase.speed.scale)
        values = layers.derive(
            calls,
            self_s,
            tracer.counters,
            tracer.instances,
            before,
            after,
            {
                "arrivals": arrivals[1],
                "overhead": eps[0] / eps[1] - 1.0 if eps[1] else 0.0,
                "coverage": top / ref_s[1] if ref_s[1] else 0.0,
            },
        )
        result["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
        result["info"]["untraced_throughput_eps"] = eps[0]
        result["info"]["traced_throughput_eps"] = eps[1]
        result["info"]["trace_missing"] = tracer.missing
        if out_dir is not None:
            tracer.write(os.path.join(out_dir, f"{spec.name}-seed{seed}.spans.tsv.gz"))
    else:
        values = {
            "throughput_eps": eps[0],
            "ingest_p50_us": percentile(ingest, 50),
            "ingest_p90_us": percentile(ingest, 90),
            "query_p50_us": percentile(query, 50),
            "query_p90_us": percentile(query, 90),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END
        }
    return result
