"""Run one workload for a fixed time and print its metrics.

An untraced run (``--trace 0``) runs fixed-size passes over consecutive
seed blocks until the next pass would overrun ``--seconds`` (always at
least one), then sets the workload up ``SETUP_PROBES`` more times in
fresh interpreters to time set-up.  A traced run (``--trace 1``) runs the
workload's fixed set of traced passes, each after an untraced twin over
the same seeds, and reports the per-layer split of the traced ones, their
overhead over the untraced ones, and the in-process calibration against
the legacy kernel flood.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .reference import NOMINAL_SECONDS, reference_seconds
from .tracing import Tracer
from .workloads import (
    WORKLOADS,
    PassOutcome,
    Workload,
    make_workload,
    recorded_digests,
    trace_set_digest,
)

#: Fresh-interpreter set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Legacy-flood repetitions behind ``calib.legacy_flood_ev_per_s`` (median).
CALIBRATION_ROUNDS = 3
#: Pass time between two samples of the reference workload.
REFERENCE_INTERVAL_S = 0.5

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: sweep directories and span dumps.
WORK_DIR = ROOT / ".perfbench"

#: Span counts that must repeat exactly across traced passes.
DETERMINISTIC_COUNTS = (
    "sim.events",
    "core.predicate_calls",
    "core.mailbox_seen",
    "network.transmit_calls",
    "sharedmem.ops",
    "adversary.defer_calls",
    "search.choose_calls",
)


def _units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]
    }


class HostSpeed:
    """Samples of :func:`~perfbench.reference.reference_seconds` taken during a run.

    :meth:`tick` is handed to the passes, which call it between runs; it
    samples the reference whenever :data:`REFERENCE_INTERVAL_S` has passed
    since the last sample.  ``factor`` turns raw times into times at the
    nominal host speed (see :mod:`perfbench.reference`): multiply
    durations, divide rates.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = time.perf_counter()

    def sample(self) -> float:
        """Time the reference once now; returns the seconds this took."""
        started = time.perf_counter()
        self.samples.append(reference_seconds())
        self._last = time.perf_counter()
        return self._last - started

    def tick(self) -> float:
        """Sample if one is due; returns the seconds this took."""
        if time.perf_counter() - self._last < REFERENCE_INTERVAL_S:
            return 0.0
        return self.sample()

    @property
    def factor(self) -> float:
        """Nominal over mean measured reference time."""
        return NOMINAL_SECONDS / statistics.mean(self.samples)


def run_passes(workload: Workload, seconds: float, host: HostSpeed) -> List[PassOutcome]:
    """Untraced passes 0, 1, 2, ... until the next would overrun ``seconds``.

    At least one pass runs.  The reference is sampled before the first
    pass and between runs, outside the passes' wall time.
    """
    outcomes: List[PassOutcome] = []
    gc.collect()
    started = time.perf_counter()
    host.sample()
    while True:
        outcomes.append(workload.run_pass(len(outcomes), pause=host.tick))
        typical = statistics.median(outcome.wall for outcome in outcomes)
        if time.perf_counter() - started + typical > seconds:
            return outcomes


def run_traced_passes(
    workload: Workload, host: HostSpeed
) -> Tuple[List[PassOutcome], List[Tuple[PassOutcome, Tracer]]]:
    """Each of the workload's ``trace_passes`` passes untraced, then traced.

    The traced set is fixed, so its counts are exact functions of the seed.
    """
    plain: List[PassOutcome] = []
    spanned: List[Tuple[PassOutcome, Tracer]] = []
    gc.collect()
    host.sample()
    for index in range(workload.trace_passes):
        plain.append(workload.run_pass(index, pause=host.tick))
        tracer = Tracer(keep_spans=True)
        spanned.append((workload.run_pass(index, tracer, pause=host.tick), tracer))
    return plain, spanned


def verdict(workload: Workload, outcomes: List[PassOutcome]) -> Tuple[bool, int, int]:
    """``(correct, attempted, failed)`` over passes ``0, 1, ...`` of a run.

    Every pass must report its experiment as passed.  At the recorded
    seed the first ``trace_passes`` passes must also reproduce the recorded
    digest (:func:`trace_set_digest`).  A pass that breaks either fails
    every run it made.
    """
    recorded = recorded_digests()
    digest_ok = (
        workload.seed != recorded["seed"]
        or trace_set_digest(outcomes[: workload.trace_passes])
        == recorded["workloads"][workload.name]
    )
    attempted = failed = 0
    for index, outcome in enumerate(outcomes):
        attempted += outcome.recorder.runs
        if outcome.report_passed and (digest_ok or index >= workload.trace_passes):
            failed += outcome.recorder.failed
        else:
            failed += outcome.recorder.runs
    return failed == 0, attempted, failed


def end_to_end_metrics(outcomes: List[PassOutcome], factor: float) -> Dict[str, float]:
    """Mean pass wall, event rate, and run latency percentiles over every run.

    The means are totals over the run's passes, which vary less from seed
    to seed than medians do when a few passes are much slower than the
    rest.  Timings are scaled to the nominal host by ``factor``.
    """
    latencies = [latency for outcome in outcomes for latency in outcome.recorder.latencies]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    wall = sum(outcome.wall for outcome in outcomes)
    events = sum(outcome.recorder.events for outcome in outcomes)
    return {
        "sweep_s": wall / len(outcomes) * factor,
        "events_per_s": events / wall / factor,
        "run_ms.p50": cuts[49] * 1e3 * factor,
        "run_ms.p90": cuts[89] * 1e3 * factor,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from interpreter start to a set-up workload, at nominal host speed.

    Each of :data:`SETUP_PROBES` fresh interpreters sets the workload up
    and reports ``ready``; the reference is sampled before each one.
    """
    host = HostSpeed()
    samples = []
    for _ in range(SETUP_PROBES):
        host.sample()
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
        samples.append(ready - started)
    return statistics.median(samples) * host.factor


def layer_metrics(tracer: Tracer, wall: float, factor: float = 1.0) -> Dict[str, float]:
    """Per-layer counts and times of traced passes that took ``wall`` seconds.

    ``*_s`` are self times for the layers every workload exercises, scaled
    to the nominal host by ``factor``; ``*_pct`` are self times as a
    percentage of ``wall``, for layers some workloads bypass (pool
    workers' spans add to the coordinator's, so shares can sum past 100).
    """
    calls, own, counts = tracer.calls, tracer.self_time, tracer.counts
    events = counts["sim.events"]
    predicate_calls = calls["core.predicate"]

    def pct(name: str) -> float:
        return 100.0 * own[name] / wall

    return {
        "sim.events": events,
        "sim.run_s": tracer.total["sim.run"] * factor,
        "sim.self_s": own["sim.run"] * factor,
        "sim.ns_per_event": 1e9 * own["sim.run"] * factor / events if events else 0.0,
        "core.predicate_calls": predicate_calls,
        "core.predicate_hit_ratio": (
            counts["core.predicate_hits"] / predicate_calls if predicate_calls else 0.0
        ),
        "core.mailbox_seen": counts["core.mailbox_seen"],
        "core.predicate_s": own["core.predicate"] * factor,
        "network.transmit_calls": calls["network.transmit"],
        "network.transmit_s": own["network.transmit"] * factor,
        "network.bytes_sent": counts["network.bytes_sent"],
        "sharedmem.ops": calls["sharedmem.op"],
        "sharedmem.op_s": own["sharedmem.op"] * factor,
        "adversary.defer_calls": calls["adversary.defer"],
        "adversary.defer_pct": pct("adversary.defer"),
        "adversary.send_hook_calls": calls["adversary.send_hook"],
        "adversary.send_hook_pct": pct("adversary.send_hook"),
        "search.choose_calls": calls["search.choose"],
        "search.choose_pct": pct("search.choose"),
        "harness.prepare_s": own["harness.prepare"] * factor,
        "harness.finalize_s": own["harness.finalize"] * factor,
        "harness.fold_pct": pct("harness.fold"),
        "harness.claim_pct": pct("harness.claim"),
        "harness.checkpoint_pct": pct("harness.checkpoint"),
        "harness.pool_wait_pct": pct("harness.pool_wait"),
        "harness.merge_pct": pct("harness.merge"),
        "trace.pass_s": wall * factor,
    }


def legacy_flood_rate() -> float:
    """Events per second of the pre-refactor kernel on the n=64 flood (median)."""
    from benchmarks.legacy_kernel import LegacyKernel, LegacyNetwork
    from benchmarks.test_bench_micro import _run_flood

    rates = []
    for _ in range(CALIBRATION_ROUNDS):
        events, wall = _run_flood(LegacyKernel, LegacyNetwork)
        rates.append(events / wall)
    return statistics.median(rates)


def traced_metrics(
    workload: Workload,
    plain: List[PassOutcome],
    spanned: List[Tuple[PassOutcome, Tracer]],
    factor: float,
) -> Tuple[Dict[str, float], bool]:
    """Per-layer metrics over the traced passes, and whether each matched its twin.

    Every traced pass must produce the digest of the untraced pass over
    the same seeds.  The spans of all traced passes go to one JSONL file
    under ``.perfbench/traces``.
    """
    merged = Tracer()
    for _, tracer in spanned:
        merged.absorb(tracer.totals())
    metrics = layer_metrics(merged, sum(outcome.wall for outcome, _ in spanned), factor)
    consistent = all(
        outcome.digest == twin.digest for (outcome, _), twin in zip(spanned, plain)
    )
    metrics["trace.overhead"] = (
        sum(outcome.wall for outcome, _ in spanned) / sum(outcome.wall for outcome in plain)
    )
    calibration = legacy_flood_rate()
    metrics["calib.legacy_flood_ev_per_s"] = calibration
    raw_rate = end_to_end_metrics(plain, 1.0)["events_per_s"]
    metrics["calib.events_per_s_ratio"] = raw_rate / calibration
    spans_path = WORK_DIR / "traces" / f"{workload.name}-seed{workload.seed}.jsonl"
    written = sum(tracer.dump_jsonl(spans_path, append=index > 0)
                  for index, (_, tracer) in enumerate(spanned))
    print(f"wrote {written} spans to {spans_path.relative_to(ROOT)}")
    return metrics, consistent


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """The command line: workload, seed, seconds and trace, plus the set-up probe flag."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=recorded_digests()["seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up, print 'ready', tear down (used to time set-up)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point; returns the exit code."""
    args = parse_args(argv)
    workload = make_workload(args.workload, args.seed, WORK_DIR)
    workload.setup()
    if args.setup_probe:
        print("ready", flush=True)
        workload.teardown()
        return 0
    host = HostSpeed()
    spanned: List[Tuple[PassOutcome, Tracer]] = []
    try:
        if args.trace:
            plain, spanned = run_traced_passes(workload, host)
        else:
            plain = run_passes(workload, args.seconds, host)
        # The recorded digest covers the trace set: finish it, untimed, if time ran out.
        unmeasured = [
            workload.run_pass(index) for index in range(len(plain), workload.trace_passes)
        ]
    finally:
        workload.teardown()
    correct, attempted, failed = verdict(workload, plain + unmeasured)
    if args.trace:
        traced_correct, traced_attempted, traced_failed = verdict(
            workload, [outcome for outcome, _ in spanned]
        )
        metrics, consistent = traced_metrics(workload, plain, spanned, host.factor)
        correct = correct and traced_correct and consistent
        attempted += traced_attempted
        failed += traced_failed
    else:
        metrics = end_to_end_metrics(plain, host.factor)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)
    units = _units()
    print(
        f"{workload.name} seed={args.seed}: {len(plain)} untraced + {len(spanned)} traced "
        f"passes, {attempted} runs, {failed} failed (fail_ratio {failed / attempted:.4g}); "
        f"host factor {host.factor:.4f} over {len(host.samples)} reference samples"
    )
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0
