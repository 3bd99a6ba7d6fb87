"""Benchmark for mpnnkit: train and eval throughput on molecular workloads.

Run it from the repository root:

    python3 perfbench/run.py --workload small-edgenet --seed 1 --seconds 25 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which
per-layer metric should move which end-to-end metric.
"""
