"""Benchmark self-checks: recorded digests, a held-out seed, E8 continuity.

``python3 perfbench/check.py digests``
    the trace set of every workload at the recorded seed; prints each
    digest and whether it matches ``digests.json``.
``python3 perfbench/check.py heldout --seed 2000``
    every workload's trace set at another base seed, untraced once and
    traced twice: no failed run, equal digests, equal counts.
``python3 perfbench/check.py continuity``
    ``e8-quorum`` at the old trajectory configuration (sizes 4/8/12, 4
    seeds) must process exactly :data:`TRAJECTORY_EVENTS` events, the count
    behind ``e8_scalability_serial`` in ``BENCH_6``-``BENCH_8``.

Exits 1 if any check fails.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import DETERMINISTIC_COUNTS, WORK_DIR, layer_metrics  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    E8Quorum,
    make_workload,
    recorded_digests,
    trace_set_digest,
)

#: Simulator events of the E8 sweep at sizes 4/8/12 and seeds 1000-1003.
TRAJECTORY_EVENTS = 134_804


def check_digests() -> bool:
    """The trace set of every workload at the recorded seed against ``digests.json``."""
    recorded = recorded_digests()
    ok = True
    for name in sorted(WORKLOADS):
        workload = make_workload(name, recorded["seed"], WORK_DIR)
        workload.setup()
        try:
            outcomes = [workload.run_pass(index) for index in range(workload.trace_passes)]
        finally:
            workload.teardown()
        digest = trace_set_digest(outcomes)
        match = digest == recorded["workloads"][name]
        failed = sum(outcome.recorder.failed for outcome in outcomes)
        passed = all(outcome.report_passed for outcome in outcomes)
        ok = ok and match and passed and failed == 0
        print(f"{name}: {digest} {'matches' if match else 'DIFFERS'}, "
              f"reports passed {passed}, {failed} failed")
    return ok


def check_heldout(seed: int) -> bool:
    """Every workload's trace set at ``seed``: untraced once, traced twice.

    No run may fail, every traced pass must reproduce its untraced twin's
    digest, and the two traced sets must count exactly the same work.
    """
    ok = True
    for name in sorted(WORKLOADS):
        workload = make_workload(name, seed, WORK_DIR)
        workload.setup()
        tracers = [Tracer(), Tracer()]
        try:
            indices = range(workload.trace_passes)
            plain = [workload.run_pass(index) for index in indices]
            traced = [[workload.run_pass(index, tracer) for index in indices] for tracer in tracers]
        finally:
            workload.teardown()
        counts = [
            {key: layer_metrics(tracer, 1.0)[key] for key in DETERMINISTIC_COUNTS}
            for tracer in tracers
        ]
        good = (
            all(o.report_passed and o.recorder.failed == 0 for o in plain)
            and all([o.digest for o in passes] == [o.digest for o in plain] for passes in traced)
            and counts[0] == counts[1]
        )
        ok = ok and good
        runs = sum(o.recorder.runs for o in plain)
        print(f"{name} seed={seed}: {'ok' if good else 'FAILED'}; {runs} runs, counts {counts[0]}")
    return ok


def check_continuity() -> bool:
    """``e8-quorum`` at 4 seeds from 1000 and sizes 4/8/12 reproduces the trajectory count."""
    workload = E8Quorum(1000, 4, WORK_DIR, sizes=(4, 8, 12))
    workload.setup()
    events = workload.run_pass().recorder.events
    print(f"e8-quorum at sizes 4/8/12, 4 seeds: {events} events (expected {TRAJECTORY_EVENTS})")
    return events == TRAJECTORY_EVENTS


def main(argv=None) -> int:
    """Command-line entry point; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("digests", "heldout", "continuity"))
    parser.add_argument("--seed", type=int, default=2000, help="base seed for 'heldout'")
    args = parser.parse_args(argv)
    if args.check == "digests":
        ok = check_digests()
    elif args.check == "heldout":
        ok = check_heldout(args.seed)
    else:
        ok = check_continuity()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
