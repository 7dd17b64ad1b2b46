"""A hypothesis state machine over one sweep directory.

Random interleavings of the scheduler's moves on a 3-point plan: lease
claims and steals, heartbeat renewals, checkpoints, worker crashes,
corrupted checkpoints, whole static-shard runs and a lease clock moved by
hand.  Runs are replaced through the ``distributed.run_many`` seam by
precomputed summaries, so every step costs file operations only.

Invariants checked after every step:

- every point is in exactly one state, and ``done`` means exactly "holds
  a valid checkpoint";
- every worker gives each point it touched exactly one outcome, in its
  result and in its manifest;
- once every point is done, ``merge_stolen`` equals ``run_plan`` bit for
  bit -- static shards and stealing workers mixed in one directory.
"""

import functools
import json
import shutil
import tempfile
import time
import warnings
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.topology import ClusterTopology
from repro.experiments.common import default_seeds
from repro.harness import coordinator, distributed
from repro.harness.aggregate import SummaryReducer
from repro.harness.coordinator import (
    POINT_STATES,
    WorkStealingScheduler,
    current_lease,
    find_worker_manifests,
    merge_stolen,
    point_checkpoint_path,
    renew_lease,
    steal_status,
    try_claim,
    try_steal,
)
from repro.harness.distributed import ShardSpec, plan_sweep, run_plan, run_shard
from repro.harness.runner import ExperimentConfig

SEEDS = default_seeds(2)
BASE = ExperimentConfig(topology=ClusterTopology.figure1_right())
VARIATIONS = {
    "local": {"algorithm": "hybrid-local-coin"},
    "common": {"algorithm": "hybrid-common-coin"},
    "local-v2": {"algorithm": "hybrid-local-coin", "tag": "v2"},
}
POINTS = range(len(VARIATIONS))
TTL = 10.0
WORKERS = ("alpha", "beta")
OUTCOMES = {"executed", "stolen", "already-done", "left-behind", "lost"}


def make_plan():
    """The 3-point plan, rebuilt per use like real hosts do."""
    return plan_sweep(BASE, VARIATIONS, SEEDS)


@functools.lru_cache(maxsize=None)
def reference():
    """Each point's summaries keyed by its first config, and ``run_plan``'s aggregates."""
    plan = make_plan()
    summaries = {}
    for index, point in enumerate(plan.points):
        configs = [point.config.with_seed(seed) for seed in plan.seeds]
        reducer = SummaryReducer(entropy=plan.entropy, start=plan.run_index(index, 0))
        summaries[repr(configs[0])] = distributed.run_many(
            configs, max_workers=1, check=point.check, reducer=reducer
        )
    return summaries, run_plan(plan, max_workers=1)


class SweepDirectoryMachine(RuleBasedStateMachine):
    """Two stealing workers and any static shards sharing one directory."""

    def __init__(self):
        super().__init__()
        self.summaries, self.single = reference()
        self.plan = make_plan()
        self.labels = [point.label for point in self.plan.points]
        self.out = Path(tempfile.mkdtemp(prefix="sweep-machine-"))
        self.offset = 0.0
        self._saved = (coordinator._now, distributed.run_many)
        coordinator._now = lambda: time.time() + self.offset
        distributed.run_many = lambda configs, **_: list(self.summaries[repr(configs[0])])
        #: Points holding a valid checkpoint, as this model tracks them.
        self.done = set()
        self.held = {}
        self.workers = {}
        self.incarnations = dict.fromkeys(WORKERS, 0)
        for name in WORKERS:
            self._spawn(name)

    def teardown(self):
        coordinator._now, distributed.run_many = self._saved
        shutil.rmtree(self.out, ignore_errors=True)

    def _spawn(self, name):
        worker = f"{name}-{self.incarnations[name]}"
        self.workers[name] = WorkStealingScheduler(self.plan, self.out, worker=worker, lease_ttl=TTL)

    def _settled(self, name, point):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return self.workers[name]._settled(point)

    # ---------------------------------------------------------------- rules
    @rule(name=st.sampled_from(WORKERS), point=st.sampled_from(POINTS))
    def claim(self, name, point):
        if (name, point) in self.held or self._settled(name, point):
            return
        scheduler = self.workers[name]
        lease = try_claim(self.out, self.plan, point, scheduler.worker, TTL)
        if lease is not None:
            self.held[(name, point)] = scheduler._task(point, lease)

    @rule(name=st.sampled_from(WORKERS), point=st.sampled_from(POINTS))
    def steal(self, name, point):
        if (name, point) in self.held or self._settled(name, point):
            return
        current = current_lease(self.out, point, warn=False)
        if current is None or not current.expired():
            return
        scheduler = self.workers[name]
        lease = try_steal(self.out, self.plan, point, scheduler.worker, TTL, current)
        if lease is not None:
            self.held[(name, point)] = scheduler._task(point, lease)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def renew(self, data):
        task = self.held[data.draw(st.sampled_from(sorted(self.held)))]
        refreshed = renew_lease(task.lease, self.plan.fingerprint())
        if refreshed is None:
            task.superseded = True
        else:
            task.lease = refreshed

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def checkpoint(self, data):
        key = data.draw(st.sampled_from(sorted(self.held)))
        task = self.held.pop(key)
        top = current_lease(self.out, task.point_index, warn=False)
        if top.generation > task.lease.generation:
            task.superseded = True  # what the heartbeat thread would have found
        summaries = coordinator.execute_point(self.plan, task, max_workers=1)
        self.workers[key[0]].complete(task, summaries)
        self.done.add(task.point_index)

    @rule(name=st.sampled_from(WORKERS))
    def crash(self, name):
        """The worker dies holding its leases; it restarts under a fresh name."""
        for key in [key for key in self.held if key[0] == name]:
            del self.held[key]
        self.incarnations[name] += 1
        self._spawn(name)

    @rule(point=st.sampled_from(POINTS))
    def corrupt(self, point):
        path = point_checkpoint_path(self.out, point)
        if path.exists():
            path.write_bytes(b"torn write")
            self.done.discard(point)

    @rule(data=st.data())
    def static_shard(self, data):
        count = data.draw(st.integers(1, 3), label="count")
        shard = ShardSpec(data.draw(st.integers(1, count), label="index"), count)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_shard(self.plan, shard, self.out, max_workers=1)
        owned = [point for point in POINTS if shard.owns(point)]
        outcomes = result.executed + result.already_done
        assert sorted(outcomes) == sorted(self.labels[point] for point in owned)
        assert not (result.stolen or result.lost or result.left_behind)
        self.done.update(owned)

    @rule(seconds=st.sampled_from([1.0, TTL / 2, 2 * TTL]))
    def advance_clock(self, seconds):
        self.offset += seconds

    # ----------------------------------------------------------- invariants
    @invariant()
    def every_point_is_in_exactly_one_state(self):
        status = steal_status(self.out)
        assert [point.index for point in status.points] == list(POINTS)
        assert all(point.state in POINT_STATES for point in status.points)
        done = {point.index for point in status.points if point.state == "done"}
        assert done == self.done
        assert status.done + status.leased + status.orphaned + status.unclaimed == len(POINTS)

    @invariant()
    def every_worker_gives_each_point_one_outcome(self):
        for scheduler in self.workers.values():
            result = scheduler.result
            outcomes = (
                result.executed + result.stolen + result.already_done
                + result.left_behind + result.lost
            )
            assert len(outcomes) == len(set(outcomes))
            assert sorted(outcomes) == sorted(self.labels[point] for point in scheduler._recorded)
        for path in find_worker_manifests(self.out):
            for key, record in json.loads(path.read_text())["points"].items():
                assert record["outcome"] in OUTCOMES
                assert record["label"] == self.labels[int(key)]

    @invariant()
    def a_finished_directory_merges_to_run_plan(self):
        if len(self.done) == len(POINTS):
            assert merge_stolen(self.out, make_plan()).aggregates == self.single


SweepDirectoryMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None, derandomize=True
)
TestSweepDirectory = SweepDirectoryMachine.TestCase
