"""End-to-end benchmark of the n-of-N skyline engines with per-layer
attribution.  Entry point: ``python3 perfbench/run.py --workload NAME``;
see ``perfbench/README.md``."""
