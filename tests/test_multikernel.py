"""Cooperative multi-kernel execution: stepping seam, scheduler, bit-identity.

The contract under test (see ``docs/scaling.md``): a logical run is
**bit-identical** whether it executes serially, on a process pool, or
interleaved with K-1 cooperative neighbours in one process, for any K and
any interleave order.  The acceptance test sweeps *every* experiment's small
golden plan (e1-e11) through ``exec_mode="coop"`` and compares aggregates
against the process-path reference, and the K ∈ {1, 3, 7} sweeps compare raw
``RunSummary`` streams -- frozen dataclasses, so ``==`` is exact, and their
float fields were built from the same draws only if determinism held.
"""

import warnings

import pytest

from repro.cluster.topology import ClusterTopology
from repro.harness.aggregate import SummaryReducer
from repro.harness.distributed import run_plan
from repro.harness.parallel import (
    COOP_AUTO_THRESHOLD,
    EXEC_MODE_ENV_VAR,
    resolve_exec_mode,
    run_many,
)
from repro.harness.runner import ExperimentConfig, prepare_consensus, run_consensus
from repro.sim.kernel import SimulationKernel
from repro.sim.multikernel import (
    DEFAULT_BATCH_EVENTS,
    CooperativeScheduler,
    kernel_stepper,
    run_cooperative,
    scheduler_rng,
)
from tests.helpers import GOLDEN_EXPERIMENTS, golden_plans

TOPOLOGY = ClusterTopology.even_split(8, 2)


def _adversarial_config(seed=0):
    """An e9-style fault-injection config: the adversary's deferred-event
    dict and duplicate-delivery paths must survive batch boundaries too."""
    from repro.adversary.library import build_scenario

    return ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3),
        algorithm="hybrid-local-coin",
        scenario=build_scenario("duplication-storm", n=6, intensity=0.4),
        seed=seed,
    )


def _summaries(configs, exec_mode, max_workers=None):
    """Run ``configs`` and reduce to RunSummary objects (entropy fixed)."""
    reducer = SummaryReducer(entropy=7, start=0, step=1)
    return run_many(
        configs,
        max_workers=max_workers,
        check=False,
        reducer=reducer,
        exec_mode=exec_mode,
    )


# ----------------------------------------------------------- run_batch seam
class TestRunBatch:
    def test_budget_exhaustion_returns_none_then_same_result(self):
        config = ExperimentConfig(topology=TOPOLOGY, seed=3)
        reference = run_consensus(config).sim_result

        prepared = prepare_consensus(config)
        batches = 0
        while True:
            result = prepared.kernel.run_batch(100)
            if result is not None:
                break
            batches += 1
        assert batches > 1, "budget of 100 should take several batches"
        assert result.status is reference.status
        assert result.end_time == reference.end_time
        assert result.events_processed == reference.events_processed
        assert result.decisions == reference.decisions
        assert result.decision_times == reference.decision_times
        assert result.rounds == reference.rounds

    def test_events_processed_accumulates_across_batches(self):
        prepared = prepare_consensus(ExperimentConfig(topology=TOPOLOGY, seed=4))
        kernel = prepared.kernel
        assert kernel.run_batch(50) is None
        assert kernel.events_processed == 50
        assert kernel.run_batch(70) is None
        assert kernel.events_processed == 120

    def test_invalid_budget_rejected(self):
        prepared = prepare_consensus(ExperimentConfig(topology=TOPOLOGY, seed=5))
        with pytest.raises(ValueError):
            prepared.kernel.run_batch(0)
        with pytest.raises(ValueError):
            prepared.kernel.run_batch(-2)

    def test_no_processes_rejected(self):
        with pytest.raises(RuntimeError):
            SimulationKernel(seed=1).run_batch(10)

    def test_run_is_unlimited_run_batch(self):
        serial = run_consensus(ExperimentConfig(topology=TOPOLOGY, seed=6)).sim_result
        prepared = prepare_consensus(ExperimentConfig(topology=TOPOLOGY, seed=6))
        batched = prepared.kernel.run_batch(-1)
        assert batched is not None
        assert batched.events_processed == serial.events_processed
        assert batched.decisions == serial.decisions


# ------------------------------------------------------ scheduler mechanics
def _counting_driver(results, index, turns):
    for _ in range(turns):
        yield
    results.append(index)
    return f"driver-{index}"


class TestCooperativeScheduler:
    def test_width_and_interleave_validated(self):
        with pytest.raises(ValueError):
            CooperativeScheduler(width=0)
        with pytest.raises(ValueError):
            CooperativeScheduler(width=1, interleave="preemptive")
        with pytest.raises(ValueError):
            # Generator body runs on first next(), which is where the
            # batch_events validation lives.
            next(kernel_stepper(SimulationKernel(seed=1), batch_events=0))

    def test_results_in_input_order_with_backfill(self):
        finish_order = []
        # Uneven turn counts force finishes out of input order; slots
        # backfill from the pending queue as drivers complete.
        drivers = [
            _counting_driver(finish_order, 0, 9),
            _counting_driver(finish_order, 1, 1),
            _counting_driver(finish_order, 2, 5),
            _counting_driver(finish_order, 3, 0),
            _counting_driver(finish_order, 4, 2),
        ]
        results = CooperativeScheduler(width=2).run(drivers)
        assert results == [f"driver-{i}" for i in range(5)]
        assert finish_order != sorted(finish_order)

    def test_random_interleave_same_results(self):
        out_a, out_b = [], []
        results_rr = CooperativeScheduler(width=3).run(
            [_counting_driver(out_a, i, turns=i % 4) for i in range(7)]
        )
        results_rand = CooperativeScheduler(
            width=3, interleave="random", rng=scheduler_rng(123)
        ).run([_counting_driver(out_b, i, turns=i % 4) for i in range(7)])
        assert results_rr == results_rand == [f"driver-{i}" for i in range(7)]

    def test_scheduler_rng_is_spawned_namespace(self):
        # Distinct (seed, worker) namespaces derive distinct streams; the
        # same namespace re-derives the same stream -- the (worker,
        # subsystem) splitting contract.
        first = scheduler_rng(1, worker=0).stream("interleave").random()
        again = scheduler_rng(1, worker=0).stream("interleave").random()
        other_worker = scheduler_rng(1, worker=1).stream("interleave").random()
        assert first == again
        assert first != other_worker

    def test_run_cooperative_matches_solo_runs(self):
        configs = [ExperimentConfig(topology=TOPOLOGY, seed=seed) for seed in range(4)]
        solo = [run_consensus(config).sim_result for config in configs]
        kernels = [prepare_consensus(config).kernel for config in configs]
        hosted = run_cooperative(kernels, batch_events=64)
        for alone, together in zip(solo, hosted):
            assert together.end_time == alone.end_time
            assert together.events_processed == alone.events_processed
            assert together.decision_times == alone.decision_times


# ------------------------------------------------------------- exec modes
class TestResolveExecMode:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(EXEC_MODE_ENV_VAR, "coop")
        assert resolve_exec_mode("process", [], workers=4) == "process"

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(EXEC_MODE_ENV_VAR, "coop")
        assert resolve_exec_mode(None, [], workers=4) == "coop"

    def test_default_is_process(self, monkeypatch):
        monkeypatch.delenv(EXEC_MODE_ENV_VAR, raising=False)
        assert resolve_exec_mode(None, [], workers=4) == "process"

    def test_invalid_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(EXEC_MODE_ENV_VAR, "threads")
        with pytest.warns(RuntimeWarning, match="REPRO_EXEC_MODE"):
            assert resolve_exec_mode(None, [], workers=4) == "process"

    def test_invalid_argument_raises(self):
        with pytest.raises(ValueError):
            resolve_exec_mode("threads", [], workers=4)

    def test_auto_picks_coop_for_single_worker(self):
        configs = [ExperimentConfig(topology=TOPOLOGY, seed=0)]
        assert resolve_exec_mode("auto", configs, workers=1) == "coop"

    def test_auto_picks_coop_for_large_n(self):
        large = ClusterTopology.single_cluster(COOP_AUTO_THRESHOLD)
        configs = [ExperimentConfig(topology=large, seed=0)]
        assert resolve_exec_mode("auto", configs, workers=8) == "coop"

    def test_auto_picks_process_for_small_n_many_workers(self):
        configs = [ExperimentConfig(topology=TOPOLOGY, seed=0)]
        assert resolve_exec_mode("auto", configs, workers=8) == "process"


# ------------------------------------------------------------ bit-identity
class TestCoopBitIdentity:
    #: K values from the acceptance criteria: degenerate (1), odd prime
    #: neighbours (3), wider than some batches (7).
    KS = (1, 3, 7)

    @pytest.mark.parametrize("k", KS)
    def test_plain_runs_bit_identical(self, k):
        configs = [ExperimentConfig(topology=TOPOLOGY, seed=seed) for seed in range(8)]
        reference = _summaries(configs, exec_mode="process", max_workers=1)
        coop = _summaries(configs, exec_mode="coop", max_workers=k)
        assert coop == reference

    @pytest.mark.parametrize("k", KS)
    def test_adversarial_runs_bit_identical(self, k):
        configs = [_adversarial_config(seed) for seed in range(6)]
        reference = _summaries(configs, exec_mode="process", max_workers=1)
        coop = _summaries(configs, exec_mode="coop", max_workers=k)
        assert coop == reference

    def test_env_var_routes_run_many_through_coop(self, monkeypatch):
        configs = [ExperimentConfig(topology=TOPOLOGY, seed=seed) for seed in range(3)]
        reference = _summaries(configs, exec_mode="process", max_workers=1)
        monkeypatch.setenv(EXEC_MODE_ENV_VAR, "coop")
        assert _summaries(configs, exec_mode=None, max_workers=3) == reference

    def test_coop_honours_check_flag(self):
        # check=True flows through the coop driver (raise_on_violation runs
        # per finished kernel); healthy runs pass it and match the serial path.
        configs = [ExperimentConfig(topology=TOPOLOGY, seed=seed) for seed in range(3)]
        checked = run_many(configs, max_workers=3, check=True, exec_mode="coop")
        serial = run_many(configs, max_workers=1, check=True, exec_mode="process")
        assert [r.sim_result.decisions for r in checked] == [
            r.sim_result.decisions for r in serial
        ]


@pytest.fixture(scope="module")
def golden_reference_aggregates():
    """Process-path aggregates of every experiment's golden plan."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return {
            exp_id: run_plan(plan, max_workers=1)
            for exp_id, plan in golden_plans().items()
        }


@pytest.fixture(scope="module")
def golden_coop_aggregates():
    """Coop-path (K=3) aggregates of every experiment's golden plan."""
    return {
        exp_id: run_plan(plan, max_workers=3, exec_mode="coop")
        for exp_id, plan in golden_plans().items()
    }


@pytest.mark.parametrize("experiment", GOLDEN_EXPERIMENTS)
def test_every_experiment_plan_coop_equals_process(
    golden_reference_aggregates, golden_coop_aggregates, experiment
):
    """The acceptance gate: exec-mode coop == exec-mode process, per plan.

    ``RunAggregate.__eq__`` compares the folded summaries field by field
    (floats included), so any draw perturbed by the interleaving fails here.
    """
    reference = golden_reference_aggregates[experiment]
    coop = golden_coop_aggregates[experiment]
    assert sorted(coop) == sorted(reference)
    for label, aggregate in reference.items():
        assert coop[label] == aggregate, f"{experiment}/{label} diverged under coop"


# ------------------------------------------------------------------ e8 large
class TestE8Large:
    def test_plan_large_caps_multi_cluster_layouts(self):
        from repro.experiments.e8_scalability import LARGE_MULTI_CLUSTER_MAX_N, plan_large

        plan = plan_large(seeds=[1000], sizes=(8, LARGE_MULTI_CLUSTER_MAX_N, 2048))
        labels = [point.label for point in plan.points]
        assert "n=8/m=2" in labels
        assert f"n={LARGE_MULTI_CLUSTER_MAX_N}/m=2" in labels
        assert "n=2048/m=1" in labels
        assert "n=2048/m=2" not in labels
        assert plan.key == "E8L"

    def test_run_large_smoke_on_coop(self):
        """Smoke-scaled E8L: tiny sizes, coop mode, report checks hold."""
        from repro.experiments.e8_scalability import run_large

        report = run_large(seeds=[1000, 1001], sizes=(8, 16), exec_mode="coop")
        assert report.passed is True
        single = [row for row in report.rows if row["layout"] == "m=1"]
        assert [row["n"] for row in single] == [8, 16]
        for row in single:
            split = report.row_where(layout="m=2", n=row["n"])
            assert row["mean_messages"] < split["mean_messages"]

    def test_e8l_registered_in_cli_registry(self):
        from repro.cli import _resolve_experiment
        from repro.experiments import e8l_large

        assert _resolve_experiment("e8l") is e8l_large
        assert e8l_large.plan.__name__ == "plan_large"


def test_cli_exec_mode_coop_smoke(capsys):
    """``--exec-mode coop`` drives a whole experiment through the CLI."""
    from repro.cli import main

    assert main(["run", "e1", "--seeds", "1", "--exec-mode", "coop"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out
    assert "reproduction check: PASSED" in out


def test_default_batch_events_is_sane():
    assert DEFAULT_BATCH_EVENTS >= 256
