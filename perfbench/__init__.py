"""End-to-end sweep benchmark with an outside-in per-layer trace.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one of the workloads in :mod:`perfbench.workloads` back to back for
the given time and prints its metrics, last line as JSON.  See
``perfbench/README.md`` for the workloads, the metrics and the checks.
"""
