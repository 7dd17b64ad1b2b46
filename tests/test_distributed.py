"""Sharded sweep subsystem: bit-identity, resume, and artifact validation.

The headline guarantee under test: executing a plan as k static shards (any
k, any order, any host count) and merging the directory yields aggregates
*bit-identical* to the single-host sweep -- every float, every sketch entry.
Plus the failure modes: interrupted shards resume from their checkpoints,
and malformed / mismatched / incomplete artifacts fail with clear errors.
"""

import json
import pickle
from contextlib import nullcontext

import pytest

from repro.cluster.topology import ClusterTopology
from repro.experiments import e1_figure1
from repro.experiments.common import default_seeds
from repro.harness import distributed
from repro.harness.aggregate import SummaryReducer, run_priority
from repro.harness.coordinator import (
    merge_stolen,
    plan_header_path,
    point_checkpoint_path,
    run_work_stealing,
    steal_status,
    try_claim,
    worker_manifest_path,
)
from repro.harness.distributed import (
    MANIFEST_VERSION,
    ManifestError,
    PlanPoint,
    ShardError,
    ShardSpec,
    SweepPlan,
    plan_grid,
    plan_repeat,
    plan_sweep,
    run_plan,
    run_shard,
)
from repro.harness.runner import ExperimentConfig, run_consensus
from repro.harness.sweep import grid, repeat, sweep

SEEDS = default_seeds(5)
BASE = ExperimentConfig(topology=ClusterTopology.figure1_right())
VARIATIONS = {
    "local": {"algorithm": "hybrid-local-coin"},
    "common": {"algorithm": "hybrid-common-coin"},
}
GRID_AXES = {"algorithm": ["hybrid-local-coin", "hybrid-common-coin"], "proposals": ["split", "unanimous-1"]}


def shard_and_merge(plan, out_dir, shard_count, max_workers=1):
    """Run every shard of ``plan`` into ``out_dir`` and merge them.

    More shards than points is allowed, with a warning from every shard.
    """
    for index in range(1, shard_count + 1):
        surplus = shard_count > len(plan.points)
        with pytest.warns(RuntimeWarning, match="get none") if surplus else nullcontext():
            run_shard(plan, ShardSpec(index, shard_count), out_dir, max_workers=max_workers)
    return merge_stolen(out_dir, plan)


# ------------------------------------------------------------------ specs
class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("2/4") == ShardSpec(2, 4)
        assert ShardSpec.parse(" 1 / 1 ") == ShardSpec(1, 1)

    @pytest.mark.parametrize("text", ["", "2", "0/4", "5/4", "a/b", "2/0", "-1/4", "1/4/2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ShardError):
            ShardSpec.parse(text)

    def test_round_robin_partition(self):
        spec_owns = [
            [position for position in range(17) if ShardSpec(index, 3).owns(position)]
            for index in (1, 2, 3)
        ]
        flat = sorted(position for owned in spec_owns for position in owned)
        assert flat == list(range(17))


class TestPlanValidation:
    def test_duplicate_labels_rejected(self):
        point = PlanPoint(label="p", config=BASE)
        with pytest.raises(ShardError, match="unique"):
            SweepPlan(key="k", seeds=[1], points=[point, point])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ShardError, match="seed"):
            SweepPlan(key="k", seeds=[], points=[PlanPoint(label="p", config=BASE)])

    def test_unknown_indexing_rejected(self):
        with pytest.raises(ShardError, match="indexing"):
            SweepPlan(
                key="k", seeds=[1], points=[PlanPoint(label="p", config=BASE)], indexing="zig"
            )

    def test_fingerprint_pins_configuration(self):
        plan_a = plan_sweep(BASE, VARIATIONS, SEEDS)
        plan_b = plan_sweep(BASE, VARIATIONS, SEEDS)
        assert plan_a.fingerprint() == plan_b.fingerprint()
        assert plan_a.fingerprint() != plan_sweep(BASE, VARIATIONS, SEEDS[:-1]).fingerprint()
        other_base = ExperimentConfig(topology=ClusterTopology.figure1_left())
        assert plan_a.fingerprint() != plan_sweep(other_base, VARIATIONS, SEEDS).fingerprint()

    def test_fingerprint_pins_priority_backend(self, monkeypatch):
        """Shards from numpy and numpy-free hosts must never merge silently.

        The two run_priority backends assign different sketch priorities to
        the same run index, so the backend is part of the fingerprint.
        """
        from repro.harness import aggregate

        if aggregate._SeedSequence is None:
            pytest.skip("numpy absent: only one priority backend exists on this host")
        with_numpy = plan_sweep(BASE, VARIATIONS, SEEDS).fingerprint()
        monkeypatch.setattr(aggregate, "_SeedSequence", None)
        without_numpy = plan_sweep(BASE, VARIATIONS, SEEDS).fingerprint()
        assert with_numpy != without_numpy

    def test_merge_names_the_backend_on_cross_backend_merge(self, tmp_path, monkeypatch):
        from repro.harness import aggregate

        if aggregate._SeedSequence is None:
            pytest.skip("numpy absent: only one priority backend exists on this host")
        plan = plan_sweep(BASE, VARIATIONS, SEEDS)
        run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
        monkeypatch.setattr(aggregate, "_SeedSequence", None)
        with pytest.raises(ManifestError, match="numpy availability"):
            merge_stolen(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))


def test_strided_reducer_restores_original_indices():
    result = run_consensus(BASE.with_seed(7))
    summary = SummaryReducer(start=5, step=3)(result, 2)
    assert summary.index == 11
    assert summary.priority == run_priority(0, 11)


# ------------------------------------------------------------ bit-identity
@pytest.mark.parametrize("shard_count", [1, 2, 3, 7, 16])
def test_sharded_sweep_merges_bit_identical(tmp_path, shard_count):
    single = sweep(BASE, VARIATIONS, SEEDS, max_workers=1)
    merged = shard_and_merge(plan_sweep(BASE, VARIATIONS, SEEDS), tmp_path, shard_count)
    for point in single.points:
        assert merged.aggregates[point.label] == point.aggregate

    result = merged.sweep_result()
    assert result.labels() == single.labels()
    for label in single.labels():
        assert result.point(label).aggregate == single.point(label).aggregate


def test_sharded_grid_merges_bit_identical(tmp_path):
    single = grid(BASE, GRID_AXES, SEEDS, max_workers=1)
    merged = shard_and_merge(plan_grid(BASE, GRID_AXES, SEEDS), tmp_path, 3)
    for point in single.points:
        assert merged.aggregates[point.label] == point.aggregate


def test_sharded_repeat_merges_bit_identical(tmp_path):
    single = repeat(BASE, SEEDS, max_workers=1)
    merged = shard_and_merge(plan_repeat(BASE, SEEDS), tmp_path, 2)
    assert merged.aggregates["repeat"] == single


def test_shard_order_and_grouping_is_irrelevant(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    for index in (3, 1, 2):  # out of order, as independent hosts would finish
        run_shard(plan, ShardSpec(index, 3), tmp_path, max_workers=1)
    merged = merge_stolen(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))
    single = sweep(BASE, VARIATIONS, SEEDS, max_workers=1)
    for point in single.points:
        assert merged.aggregates[point.label] == point.aggregate


def test_static_shards_and_stealing_workers_share_a_directory(tmp_path):
    """Mixing schedulers is allowed: the worst case is duplicated, identical work."""
    plan = plan_grid(BASE, GRID_AXES, SEEDS)
    labels = [point.label for point in plan.points]
    first = run_shard(plan, ShardSpec(1, 3), tmp_path, max_workers=1)
    assert first.executed == [labels[0], labels[3]]
    assert try_claim(tmp_path, plan, 1, "busy", 3600.0) is not None
    stealer = run_work_stealing(plan, tmp_path, worker="stealer", max_workers=1)
    assert sorted(stealer.already_done) == sorted(first.executed)
    assert stealer.executed == [labels[2]] and stealer.left_behind == [labels[1]]
    # A static shard never waits on leases: it recomputes its point at once.
    second = run_shard(plan, ShardSpec(2, 3), tmp_path, max_workers=1)
    assert second.executed == [labels[1]]
    third = run_shard(plan, ShardSpec(3, 3), tmp_path, max_workers=1)
    assert third.already_done == [labels[2]] and not third.computed
    assert steal_status(tmp_path).done == len(plan.points)
    merged = merge_stolen(tmp_path, plan)
    single = run_plan(plan, max_workers=1)
    for label, aggregate in single.items():
        assert merged.aggregates[label] == aggregate


def test_surplus_shards_warn_that_they_own_nothing(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    with pytest.warns(RuntimeWarning, match="only 2, so 2 of the 4 shards get none"):
        idle = run_shard(plan, ShardSpec(3, 4), tmp_path, max_workers=1)
    assert not idle.computed and not idle.already_done
    with pytest.warns(RuntimeWarning, match="get none"):
        busy = run_shard(plan, ShardSpec(1, 4), tmp_path, max_workers=1)
    assert busy.executed == [plan.points[0].label]


def test_run_plan_matches_sweep_and_repeat():
    single = sweep(BASE, VARIATIONS, SEEDS, max_workers=1)
    local = run_plan(plan_sweep(BASE, VARIATIONS, SEEDS), max_workers=1)
    for point in single.points:
        assert local[point.label] == point.aggregate
    assert run_plan(plan_repeat(BASE, SEEDS), max_workers=1)["repeat"] == repeat(
        BASE, SEEDS, max_workers=1
    )


def test_sharded_experiment_reproduces_driver_report(tmp_path):
    seeds = default_seeds(3)
    direct = e1_figure1.run(seeds=seeds, max_workers=1)
    merged = shard_and_merge(e1_figure1.plan(seeds=seeds), tmp_path, 2)
    report = e1_figure1.build_report(merged.plan, merged.aggregates)
    assert report.format(precision=12) == direct.format(precision=12)
    assert report.rows == direct.rows
    assert report.passed == direct.passed


# ----------------------------------------------------------------- resume
def test_rerun_resumes_every_checkpointed_point(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    first = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert first.runs_executed > 0 and not first.already_done
    again = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert not again.executed
    assert again.already_done == first.executed
    assert again.runs_reused == first.runs_executed


def test_killed_shard_resumes_from_last_checkpoint(tmp_path, monkeypatch):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    real_run_many = distributed.run_many
    calls = {"count": 0}

    def dies_after_one_point(*args, **kwargs):
        if calls["count"] >= 1:
            raise KeyboardInterrupt("simulated kill")
        calls["count"] += 1
        return real_run_many(*args, **kwargs)

    monkeypatch.setattr(distributed, "run_many", dies_after_one_point)
    with pytest.raises(KeyboardInterrupt):
        run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    monkeypatch.setattr(distributed, "run_many", real_run_many)

    # The killed invocation left a worker manifest and one checkpoint behind.
    assert worker_manifest_path(tmp_path, "shard-1of1").exists()
    resumed = run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    assert len(resumed.already_done) == 1  # the checkpointed point was not recomputed
    assert len(resumed.executed) == len(plan.points) - 1

    merged = merge_stolen(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))
    single = sweep(BASE, VARIATIONS, SEEDS, max_workers=1)
    for point in single.points:
        assert merged.aggregates[point.label] == point.aggregate


def test_corrupt_checkpoint_is_recomputed_with_warning(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    shard = ShardSpec(1, 1)
    run_shard(plan, shard, tmp_path, max_workers=1)
    point_checkpoint_path(tmp_path, 0).write_bytes(b"not a pickle")
    with pytest.warns(RuntimeWarning, match="recomputing"):
        again = run_shard(plan, shard, tmp_path, max_workers=1)
    assert len(again.executed) == 1 and len(again.already_done) == len(plan.points) - 1
    merged = merge_stolen(tmp_path, plan)
    single = sweep(BASE, VARIATIONS, SEEDS, max_workers=1)
    for point in single.points:
        assert merged.aggregates[point.label] == point.aggregate


def test_out_dir_of_a_different_plan_is_refused(tmp_path):
    run_shard(plan_sweep(BASE, VARIATIONS, SEEDS), ShardSpec(1, 1), tmp_path, max_workers=1)
    other = plan_sweep(BASE, VARIATIONS, default_seeds(2))
    with pytest.raises(ManifestError, match="different plan"):
        run_shard(other, ShardSpec(1, 1), tmp_path, max_workers=1)


# ------------------------------------------------------------- validation
def test_merge_names_the_points_a_missing_shard_owns(tmp_path):
    plan = plan_grid(BASE, GRID_AXES, SEEDS)
    run_shard(plan, ShardSpec(1, 3), tmp_path, max_workers=1)
    run_shard(plan, ShardSpec(3, 3), tmp_path, max_workers=1)
    missing = [plan.points[1].label]  # shard 2/3 owns point 1 only
    with pytest.raises(ManifestError, match="1 unclaimed") as excinfo:
        merge_stolen(tmp_path, plan)
    assert str(missing) in str(excinfo.value)


def test_merge_rejects_malformed_plan_header(tmp_path):
    plan = plan_repeat(BASE, SEEDS)
    run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    plan_header_path(tmp_path).write_text("{ this is not json")
    with pytest.raises(ManifestError, match="malformed plan header"):
        merge_stolen(tmp_path, plan)


def test_merge_rejects_version_mismatch(tmp_path):
    plan = plan_repeat(BASE, SEEDS)
    shard = ShardSpec(1, 1)
    run_shard(plan, shard, tmp_path, max_workers=1)
    payload = json.loads(plan_header_path(tmp_path).read_text())
    payload["version"] = MANIFEST_VERSION + 1
    plan_header_path(tmp_path).write_text(json.dumps(payload))
    with pytest.raises(ManifestError, match="version"):
        merge_stolen(tmp_path, plan)


def test_merge_rejects_foreign_plan(tmp_path):
    ran = plan_sweep(BASE, VARIATIONS, SEEDS)
    run_shard(ran, ShardSpec(1, 1), tmp_path, max_workers=1)
    foreign = plan_sweep(BASE, VARIATIONS, default_seeds(3))
    with pytest.raises(ManifestError, match="different plan"):
        merge_stolen(tmp_path, foreign)


def test_merge_rejects_incomplete_shard(tmp_path, monkeypatch):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    real_run_many = distributed.run_many
    calls = {"count": 0}

    def dies_after_one_point(*args, **kwargs):
        if calls["count"] >= 1:
            raise KeyboardInterrupt("simulated kill")
        calls["count"] += 1
        return real_run_many(*args, **kwargs)

    monkeypatch.setattr(distributed, "run_many", dies_after_one_point)
    with pytest.raises(KeyboardInterrupt):
        run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    # match on message text that cannot collide with tmp_path (which contains
    # this test's name, and therefore words like "incomplete").
    with pytest.raises(ManifestError, match="re-run the shard that owns them"):
        merge_stolen(tmp_path, plan)


def test_merge_rejects_checkpoint_from_other_plan(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    shard = ShardSpec(1, 1)
    run_shard(plan, shard, tmp_path, max_workers=1)
    cpath = point_checkpoint_path(tmp_path, 0)
    payload = pickle.loads(cpath.read_bytes())
    payload["fingerprint"] = "0" * 64
    cpath.write_bytes(pickle.dumps(payload))
    with pytest.raises(ManifestError, match="different plan"):
        merge_stolen(tmp_path, plan)


def test_merge_empty_directory_fails_clearly(tmp_path):
    with pytest.raises(ManifestError, match="no plan header"):
        merge_stolen(tmp_path, plan_repeat(BASE, SEEDS))


# ------------------------------------------------------- older directories
def test_old_static_shard_directory_is_refused_by_name(tmp_path):
    """A version-3 ``shard-IofK.json`` with no ``plan.json`` is refused everywhere."""
    old = tmp_path / "shard-1of2.json"
    old.write_text(json.dumps({"version": 3, "shard_index": 1, "shard_count": 2}))
    plan = plan_repeat(BASE, SEEDS)
    for action in (
        lambda: run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1),
        lambda: run_work_stealing(plan, tmp_path, worker="w", max_workers=1),
        lambda: merge_stolen(tmp_path, plan),
        lambda: steal_status(tmp_path),
    ):
        with pytest.raises(ManifestError, match="shard-1of2.json is a static shard manifest"):
            action()
    assert not plan_header_path(tmp_path).exists()


def test_version_3_plan_header_is_refused_by_name(tmp_path):
    plan = plan_repeat(BASE, SEEDS)
    run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    payload = json.loads(plan_header_path(tmp_path).read_text())
    payload["version"] = 3
    plan_header_path(tmp_path).write_text(json.dumps(payload))
    for action in (
        lambda: run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1),
        lambda: merge_stolen(tmp_path, plan),
        lambda: steal_status(tmp_path),
    ):
        with pytest.raises(ManifestError, match="plan.json has version 3 .* re-run the sweep"):
            action()
