"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest-anti-d5 --seed 1 --seconds 10 --trace 0

Prints one ``name value unit`` line per metric, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  The full record (parameters, machine, inputs
digest, p99 and sample counts) goes to ``perfbench/out/``.  Exits 1 if
any call raised or any checked answer disagreed with the oracle, 2 if
the checkout holds no library source.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no library source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]

    from perfbench.inputs import SPECS
    from perfbench.measure import run_workload

    spec = SPECS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(SPECS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    result = run_workload(spec, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    path = os.path.join(OUT_DIR, f"{spec.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(result, out, indent=2)

    info = result["info"]
    print(f"# {spec.name} seed={args.seed} seconds={args.seconds} trace={args.trace} record={os.path.relpath(path, ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for target in info.get("trace_missing", []):
        print(f"# trace target not found, its layer reports 0: {target}")
    print(
        f"# fail_rate {info['fail_rate']:.6g} ({result['failed']}/{result['attempted']}),"
        f" oracle_checks {info['oracle_checks']},"
        f" ingest_p99_us {info['ingest_p99_us']:.6g} query_p99_us {info['query_p99_us']:.6g}"
        f" over {info['latency_samples']} samples each"
    )
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
