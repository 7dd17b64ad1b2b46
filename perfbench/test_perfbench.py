"""Tests of the benchmark itself, on shrunken copies of its four workloads.

The tracing must measure the same program: a traced pass reproduces the
untraced digest and counts the same work every time.  The serial and
work-stealing folds must equal the library's own single-host sweep.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.bench import DETERMINISTIC_COUNTS, layer_metrics, verdict
from perfbench.tracing import Tracer, instrument
from perfbench.workloads import (
    WORKLOADS,
    PassOutcome,
    Recorder,
    experiment_digest,
    make_workload,
    recorded_digests,
)
from repro.harness import coordinator, distributed, parallel, runner
from repro.harness.distributed import run_plan
from repro.network.transport import Network
from repro.sim.context import ProcessContext
from repro.sim.kernel import SimulationKernel

ROOT = Path(__file__).resolve().parent.parent

#: Shrunken sizes: seeds per pass, or schedules per algorithm for the search.
SMALL = {"e8-quorum": 1, "e9-faults": 2, "e11-steal": 2, "search-all": 15}


@pytest.fixture
def small(tmp_path):
    """Build, set up and (afterwards) tear down a shrunken workload by name."""
    made = []

    def build(name, seed=7):
        workload = make_workload(name, seed, tmp_path, count=SMALL[name])
        workload.setup()
        made.append(workload)
        return workload

    yield build
    for workload in made:
        workload.teardown()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_passes_reproduce_the_untraced_digest_and_counts(small, name):
    """Tracing changes no result, and two traced passes count the same work."""
    workload = small(name)
    plain = workload.run_pass(0)
    tracers = [Tracer(), Tracer()]
    traced = [workload.run_pass(0, tracer) for tracer in tracers]
    assert plain.report_passed and plain.recorder.failed == 0
    assert [outcome.digest for outcome in traced] == [plain.digest, plain.digest]
    counts = [
        {key: layer_metrics(tracer, 1.0)[key] for key in DETERMINISTIC_COUNTS}
        for tracer in tracers
    ]
    assert counts[0] == counts[1]
    assert counts[0]["sim.events"] == plain.recorder.events > 0
    assert counts[0]["core.predicate_calls"] > 0
    assert counts[0]["sharedmem.ops"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_hooks_fire_only_where_the_layer_is_exercised(small, name):
    """Adversary, search and lease spans appear only on the workloads that use them."""
    workload = small(name)
    tracer = Tracer()
    workload.run_pass(0, tracer)
    metrics = layer_metrics(tracer, 1.0)
    assert (metrics["adversary.defer_calls"] > 0) == (name in ("e9-faults", "e11-steal"))
    assert (metrics["search.choose_calls"] > 0) == (name == "search-all")
    steals = ("harness.claim", "harness.checkpoint", "harness.pool_wait", "harness.merge")
    assert all((tracer.calls[span] > 0) == (name == "e11-steal") for span in steals)


@pytest.mark.parametrize("name", ["e8-quorum", "e9-faults", "e11-steal"])
def test_pass_aggregates_equal_the_single_host_sweep(small, name):
    """A pass folds to exactly what ``run_plan`` computes, and times every run."""
    workload = small(name)
    outcome = workload.run_pass(1)
    plan = replace(workload.plan, seeds=[workload.base(1) + k for k in range(workload.count)])
    assert outcome.digest == experiment_digest(plan, run_plan(plan, max_workers=1))
    assert len(outcome.recorder.latencies) == outcome.recorder.runs == plan.total_runs


def test_instrument_restores_every_entry_point():
    """Leaving ``instrument`` puts every patched entry point back."""
    before = [
        SimulationKernel.run,
        SimulationKernel.install_adversary,
        ProcessContext.wait_until,
        ProcessContext.sm_op,
        Network.transmit,
        runner.prepare_consensus,
        distributed.fold_point,
        coordinator.execute_point,
        parallel._execute_reduced,
    ]
    with instrument(Tracer()):
        assert SimulationKernel.run is not before[0]
    after = [
        SimulationKernel.run,
        SimulationKernel.install_adversary,
        ProcessContext.wait_until,
        ProcessContext.sm_op,
        Network.transmit,
        runner.prepare_consensus,
        distributed.fold_point,
        coordinator.execute_point,
        parallel._execute_reduced,
    ]
    assert after == before


def test_self_time_excludes_child_spans():
    """Self time is span time minus child span time; children share the run id."""
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(keep_spans=True, clock=lambda: next(ticks))
    child = tracer.span("child", lambda: None)
    tracer.span("harness.run", child)()
    assert tracer.total == {"child": 2.0, "harness.run": 10.0}
    assert tracer.self_time == {"child": 2.0, "harness.run": 8.0}
    child_span, parent_span = tracer.spans
    assert child_span[1] == parent_span[0] and child_span[2] == parent_span[2] == 0


def _outcome(digest, runs=10, failed=0, passed=True):
    return PassOutcome(1.0, Recorder(runs=runs, failed=failed), digest, passed)


def test_verdict_fails_every_run_of_a_pass_with_a_wrong_result():
    """A wrong digest or a failed report fails the whole pass; run failures count singly."""
    recorded = recorded_digests()

    class Fake:
        name = "e9-faults"
        trace_passes = 1
        seed = recorded["seed"]

    assert verdict(Fake, [_outcome("not-the-recorded-digest"), _outcome("x")]) == (
        False, 20, 10,
    )
    Fake.seed = recorded["seed"] + 1
    assert verdict(Fake, [_outcome("a"), _outcome("b", failed=1)]) == (False, 20, 1)
    assert verdict(Fake, [_outcome("a"), _outcome("b", passed=False)]) == (False, 20, 10)
    assert verdict(Fake, [_outcome("a"), _outcome("b")]) == (True, 20, 0)


def test_benchmark_refuses_to_run_without_the_repository(tmp_path):
    """With only BENCHMARK.json and perfbench/, the command fails without a result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "e8-quorum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
