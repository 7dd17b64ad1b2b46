"""Benchmarks of the adversary subsystem and its no-adversary overhead gate.

The fault-injection hooks touch the kernel's hottest paths: the run loop
(one ``is None`` check per event, for the adversary and for the schedule
controller), message sends (one branch) and delivery/step handling (one
``paused`` attribute check).  The contract is that a kernel with *no*
adversary installed regresses less than 2% against a kernel without the
hooks.  That baseline is derived from the live loop, not kept as a copy:
``benchmarks.dormant.ADVERSARY_FOLDS`` folds each hook condition of
``SimulationKernel.run_batch`` to its dormant value, and the folded loop is
timed against the real one on the same workload.

Like every timing gate in this repo, the hard assert is live only in
dedicated benchmark runs (``make bench``, i.e. ``--benchmark-only``) with
at least 4 usable CPUs; plain CI executions only smoke the code paths.
"""

import statistics
import time

import pytest

from benchmarks.dormant import ADVERSARY_FOLDS, patch_dormant
from repro.adversary import build_scenario, scenario_names
from repro.cluster.topology import ClusterTopology
from repro.harness.runner import ExperimentConfig, run_consensus
from repro.sim.kernel import SimConfig

TOPOLOGY = ClusterTopology.figure1_right()
#: Timing-gate knobs: paired interleaved rounds of several runs each, best
#: round kept per variant -- repeatability beats raw sample counts here.
ROUNDS = 9
RUNS_PER_ROUND = 4
OVERHEAD_LIMIT = 1.02


def _workload():
    """One deterministic consensus run dominated by kernel event handling."""
    config = ExperimentConfig(
        topology=TOPOLOGY, algorithm="hybrid-local-coin", proposals="split", seed=5
    )
    result = run_consensus(config)
    assert result.terminated
    return result


def _time_workload():
    start = time.perf_counter()
    for _ in range(RUNS_PER_ROUND):
        _workload()
    return time.perf_counter() - start


# -------------------------------------------------------------------- the gate
@pytest.mark.timing
def test_no_adversary_hot_path_overhead_under_2_percent(strict_timing):
    """Hooked kernel vs the hook-folded kernel on the same workload.

    Rounds are interleaved (hooked, stripped, hooked, ...) so slow drifts of
    the host hit both variants equally; the best round of each side is
    compared, which is the most noise-robust point estimate for a "how fast
    can this go" question.
    """
    hooked_times, stripped_times = [], []
    _workload()  # warm-up (imports, allocator, branch caches)
    for _ in range(ROUNDS if strict_timing else 1):
        hooked_times.append(_time_workload())
        with pytest.MonkeyPatch.context() as patcher:
            patch_dormant(patcher, ADVERSARY_FOLDS)
            stripped_times.append(_time_workload())

    if not strict_timing:
        pytest.skip(
            "timing gate runs only under --benchmark-only with >= 4 usable CPUs "
            f"(smoke: hooked {hooked_times[0]:.4f}s, stripped {stripped_times[0]:.4f}s)"
        )
    hooked, stripped = min(hooked_times), min(stripped_times)
    overhead = hooked / stripped
    assert overhead < OVERHEAD_LIMIT, (
        f"no-adversary kernel hot path regressed {overhead:.4f}x vs the hook-folded "
        f"kernel (limit {OVERHEAD_LIMIT}x): hooked best {hooked:.4f}s over "
        f"{statistics.median(hooked_times):.4f}s median, stripped best {stripped:.4f}s"
    )


def test_prehook_reconstruction_is_behaviourally_identical():
    """The folded kernel must produce the same runs, or the gate is fiction."""
    hooked = _workload()
    with pytest.MonkeyPatch.context() as patcher:
        patch_dormant(patcher, ADVERSARY_FOLDS)
        stripped = _workload()
    assert hooked.sim_result.decisions == stripped.sim_result.decisions
    assert hooked.sim_result.end_time == stripped.sim_result.end_time
    assert hooked.metrics.events_processed == stripped.metrics.events_processed


# --------------------------------------------------------------- scenario costs
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_bench_scenario_run(benchmark, name):
    """Throughput of one consensus run under each library scenario."""
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3),
        algorithm="hybrid-local-coin",
        proposals="split",
        seed=7,
        sim=SimConfig(max_rounds=30, max_time=5e4),
        scenario=build_scenario(name, n=6, intensity=0.3),
    )

    def run():
        result = run_consensus(config)
        assert result.report.agreement and result.report.validity
        return result

    benchmark(run)
