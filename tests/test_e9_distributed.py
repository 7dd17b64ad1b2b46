"""Sharded adversarial sweeps: e9 bit-identity and provenance-field refusals.

The acceptance bar for the adversary subsystem's harness integration:
``python -m repro run e9 --shard i/k`` + ``merge`` must reproduce the
single-host adversarial sweep *bit for bit* (the scenario is part of the
plan fingerprint), for k in {1, 3, 7} -- and shards produced under a
different delay model or fault scenario must be refused with an error that
names the offending field.
"""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.experiments import e9_adversary
from repro.experiments.common import default_seeds
from repro.harness.coordinator import merge_stolen
from repro.harness.distributed import (
    ManifestError,
    ShardSpec,
    plan_repeat,
    run_plan,
    run_shard,
)
from repro.harness.runner import ExperimentConfig
from repro.network.delays import ConstantDelay

SEEDS = default_seeds(3)
E9_KWARGS = dict(
    seeds=SEEDS, scenarios=("none", "lossy-links", "crash-recovery"), intensities=(0.25,)
)


def _shard_and_merge(plan, out_dir, shard_count):
    for index in range(1, shard_count + 1):
        run_shard(plan, ShardSpec(index, shard_count), out_dir, max_workers=1)
    return merge_stolen(out_dir, plan)


@pytest.mark.parametrize("shard_count", [1, 3, 7])
def test_e9_shard_merge_is_bit_identical_to_single_host(tmp_path, shard_count):
    single = run_plan(e9_adversary.plan(**E9_KWARGS), max_workers=1)
    merged = _shard_and_merge(e9_adversary.plan(**E9_KWARGS), tmp_path, shard_count)
    assert set(merged.aggregates) == set(single)
    for label, aggregate in single.items():
        assert merged.aggregates[label] == aggregate  # dataclass eq: bit-for-bit


def test_e9_sharded_report_reproduces_driver_report(tmp_path):
    direct = e9_adversary.run(max_workers=1, **E9_KWARGS)
    merged = _shard_and_merge(e9_adversary.plan(**E9_KWARGS), tmp_path, 3)
    report = e9_adversary.build_report(merged.plan, merged.aggregates)
    assert report.format(precision=12) == direct.format(precision=12)
    assert report.passed and direct.passed


def test_scenario_is_part_of_the_plan_fingerprint():
    base = e9_adversary.plan(**E9_KWARGS)
    assert base.fingerprint() == e9_adversary.plan(**E9_KWARGS).fingerprint()
    other = e9_adversary.plan(
        seeds=SEEDS, scenarios=("none", "lossy-links", "chaos"), intensities=(0.25,)
    )
    assert base.fingerprint() != other.fingerprint()
    hotter = e9_adversary.plan(
        seeds=SEEDS, scenarios=E9_KWARGS["scenarios"], intensities=(0.5,)
    )
    assert base.fingerprint() != hotter.fingerprint()


def test_manifests_record_scenarios_and_delay_models():
    plan = e9_adversary.plan(**E9_KWARGS)
    assert plan.scenario_names() == ["crash-recovery", "lossy-links", "none"]
    assert plan.delay_models() == ["UniformDelay(low=0.5, high=1.5)"]


def test_merge_refuses_mismatched_scenarios_with_named_field(tmp_path):
    ran = e9_adversary.plan(seeds=SEEDS, scenarios=("lossy-links",), intensities=(0.25,))
    run_shard(ran, ShardSpec(1, 1), tmp_path, max_workers=1)
    foreign = e9_adversary.plan(seeds=SEEDS, scenarios=("chaos",), intensities=(0.25,))
    with pytest.raises(ManifestError, match="'scenarios'"):
        merge_stolen(tmp_path, foreign)


def test_merge_refuses_mismatched_delay_models_with_named_field(tmp_path):
    topology = ClusterTopology.figure1_right()
    ran = plan_repeat(ExperimentConfig(topology=topology), SEEDS)
    run_shard(ran, ShardSpec(1, 1), tmp_path, max_workers=1)
    foreign = plan_repeat(
        ExperimentConfig(topology=topology, delay_model=ConstantDelay(1.0)), SEEDS
    )
    with pytest.raises(ManifestError, match="'delay_models'"):
        merge_stolen(tmp_path, foreign)


def test_resume_works_for_adversarial_shards(tmp_path):
    plan = e9_adversary.plan(**E9_KWARGS)
    first = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert first.runs_executed > 0
    again = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert not again.executed and again.already_done == first.executed


def test_scenario_restricted_plans_normalise_name_order():
    forward = e9_adversary.plan(seeds=SEEDS, scenarios=("none", "lossy-links"))
    backward = e9_adversary.plan(seeds=SEEDS, scenarios=("lossy-links", "none"))
    assert forward.fingerprint() == backward.fingerprint()


def test_workers_reproduce_adversarial_runs(tmp_path):
    """Scenario configs pickle to pool workers and fold bit-identically."""
    plan = e9_adversary.plan(**E9_KWARGS)
    serial = run_plan(plan, max_workers=1)
    parallel = run_plan(e9_adversary.plan(**E9_KWARGS), max_workers=2)
    for label, aggregate in serial.items():
        assert parallel[label] == aggregate
