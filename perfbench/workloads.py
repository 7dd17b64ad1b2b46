"""The benchmark's four workloads, built from the repo's own plans and search.

Each workload is a closed loop: one client process issues runs back to
back, and :meth:`Workload.run_pass` executes one fixed-size *pass* over
the workload's inputs, timing every run and checking every result.  The
base seed is the only input: the same seed gives the same pass.

========================  ====================================================
``e8-quorum``             the E8 scalability plan (n in {4, 8}, every
                          layout), run serially
``e9-faults``             the E9 plan (the scenario library at intensities
                          0.1 and 0.3, n=6, m=3, round cap 30), run serially
``e11-steal``             the E11 plan, run as one work-stealing worker with
                          a process pool over a fresh sweep directory, then
                          merged
``search-all``            bounded schedule search over every algorithm
========================  ====================================================

A pass's correctness verdict combines the experiment's own
``build_report(...).passed`` with a digest of its results, which must be
the same for every pass and, at the recorded seed, equal to the digest
recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional
from unittest import mock

from repro.experiments import e8_scalability, e9_adversary, e11_resilience
from repro.experiments.common import default_seeds
from repro.harness import coordinator, distributed, parallel
from repro.harness.aggregate import RunSummary, SummaryReducer
from repro.harness.runner import ALGORITHMS, run_consensus, termination_expected
from repro.search import explorer
from repro.sim.kernel import SimulationKernel

from .tracing import RUN_SPAN, Tracer, instrument

#: The worker entry point of the process pool, as the library defines it.
_EXECUTE_REDUCED = parallel._execute_reduced

#: Digests recorded at the seed named in the file (see the README).
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Per-point metric means the experiment digests cover.
DIGEST_METRICS = ("messages_sent", "rounds_max", "decision_time_max", "events_processed")


@dataclass
class Recorder:
    """What one pass did: runs, failed runs, simulator events, run latencies."""

    runs: int = 0
    failed: int = 0
    events: int = 0
    latencies: List[float] = field(default_factory=list)
    #: Time spent in ``pause`` callbacks between runs, excluded from the wall.
    paused: float = 0.0

    def add_summary(self, summary: RunSummary, expected: bool) -> None:
        """Count one summarized run; it fails on a safety violation or a missed termination."""
        self.runs += 1
        self.events += int(summary.values["events_processed"])
        if not summary.safety_ok or (expected and not summary.terminated):
            self.failed += 1


@dataclass
class PassOutcome:
    """One pass: its wall time, its counters and its correctness verdict."""

    wall: float
    recorder: Recorder
    digest: str
    report_passed: bool


def _hex(value: Optional[float]) -> Optional[str]:
    return None if value is None else float(value).hex()


def _sha(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def experiment_digest(plan, aggregates) -> str:
    """Digest of a plan's aggregates over a fixed field list.

    Per point: ``float.hex`` of the mean of :data:`DIGEST_METRICS` plus the
    safety and termination rates.
    """
    rows = []
    for point in plan.points:
        aggregate = aggregates[point.label]
        means = [
            _hex(aggregate.mean(name)) if name in aggregate.stats else None
            for name in DIGEST_METRICS
        ]
        rows.append(
            [point.label, *means, _hex(aggregate.safety_rate()), _hex(aggregate.termination_rate())]
        )
    return _sha(rows)


def trace_set_digest(outcomes: List["PassOutcome"]) -> str:
    """Digest of consecutive passes' digests (the recorded digest covers the trace set)."""
    return _sha([outcome.digest for outcome in outcomes])


def recorded_digests() -> Dict[str, Any]:
    """The recorded ``{"seed": ..., "workloads": {name: digest}}``."""
    return json.loads(DIGESTS_PATH.read_text())


def _timed(fn: Callable, latencies: List[float], tracer: Optional[Tracer]) -> Callable:
    """``fn`` with one timer around each call, and a run span when tracing."""
    call = fn if tracer is None else tracer.span(RUN_SPAN, fn)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        outcome = call(*args, **kwargs)
        latencies.append(clock() - start)
        return outcome

    return timed


def _no_pause() -> float:
    return 0.0


class Workload:
    """One named workload: ``setup``, any number of ``run_pass``, ``teardown``.

    Pass ``index`` draws the next block of ``count`` seeds after the base
    seed (:meth:`base`), so consecutive passes cover a stream of distinct
    inputs and the same ``(seed, index)`` always gives the same pass.
    ``trace_passes`` is how many consecutive passes a traced run covers;
    ``work_dir`` is scratch space inside the checkout.
    """

    name = ""
    trace_passes = 1

    def __init__(self, seed: int, count: int, work_dir: Path) -> None:
        self.seed = seed
        self.count = count
        self.work_dir = work_dir

    def base(self, index: int) -> int:
        """The first seed of pass ``index``."""
        return self.seed + index * self.count

    def setup(self) -> None:
        """Build the inputs (and any pool or directory) the passes reuse."""

    def run_pass(
        self, index: int = 0, tracer: Optional[Tracer] = None, pause: Callable[[], float] = _no_pause
    ) -> PassOutcome:
        """Execute pass ``index``; with a ``tracer``, record spans into it.

        ``pause`` is called between runs (outside any span) and returns the
        seconds it took, which the pass's wall time leaves out.
        """
        raise NotImplementedError

    def teardown(self) -> None:
        """Release whatever :meth:`setup` acquired."""


class SerialExperiment(Workload):
    """An experiment plan run serially, one ``run_consensus`` call per run.

    The fold mirrors :func:`repro.harness.distributed.run_plan`: each run is
    summarized with the plan's :class:`SummaryReducer` and each point's
    summaries go through ``distributed.fold_point``, so the aggregates --
    and the report built from them -- are the single-host sweep's.
    """

    module: Any = None

    def make_plan(self):
        """The experiment plan over the first pass's seeds."""
        return self.module.plan(seeds=default_seeds(self.count, base=self.seed))

    def setup(self) -> None:
        """Build the plan."""
        self.plan = self.make_plan()

    def run_pass(
        self, index: int = 0, tracer: Optional[Tracer] = None, pause: Callable[[], float] = _no_pause
    ) -> PassOutcome:
        """Run every point and seed of the pass's plan serially, then fold and report."""
        plan = replace(self.plan, seeds=default_seeds(self.count, base=self.base(index)))
        recorder = Recorder()
        run = _timed(run_consensus, recorder.latencies, tracer)
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(instrument(tracer))
            started = time.perf_counter()
            aggregates = {}
            for point_index, point in enumerate(plan.points):
                config = point.config
                expected = termination_expected(
                    config.algorithm, config.topology, config.failure_pattern, config.scenario
                )
                reducer = SummaryReducer(
                    entropy=plan.entropy, start=plan.run_index(point_index, 0), step=1
                )
                pairs = []
                for position, seed in enumerate(plan.seeds):
                    summary = reducer(run(config.with_seed(seed)), position)
                    recorder.add_summary(summary, expected)
                    pairs.append((summary.index, summary))
                    recorder.paused += pause()
                aggregates[point.label] = distributed.fold_point(plan, point_index, pairs)
            passed = bool(self.module.build_report(plan, aggregates).passed)
            wall = time.perf_counter() - started - recorder.paused
        return PassOutcome(wall, recorder, experiment_digest(plan, aggregates), passed)


class E8Quorum(SerialExperiment):
    """``e8-quorum``: the E8 scalability plan with n in {4, 8}, one seed per pass."""

    name = "e8-quorum"
    module = e8_scalability
    #: 13 seeds x 8 points: at least 100 traced runs, as for the other workloads.
    trace_passes = 13

    def __init__(self, seed: int, count: int, work_dir: Path, sizes=(4, 8)) -> None:
        super().__init__(seed, count, work_dir)
        self.sizes = tuple(sizes)

    def make_plan(self):
        """The E8 plan over the benchmark's sizes."""
        return e8_scalability.plan(
            seeds=default_seeds(self.count, base=self.seed), sizes=self.sizes
        )


class E9Faults(SerialExperiment):
    """``e9-faults``: the E9 scenario-library plan."""

    name = "e9-faults"
    module = e9_adversary


@dataclass(frozen=True)
class TimedExecute:
    """Pool worker entry: the library's entry point, with each run timed.

    Replaces ``parallel._execute_reduced`` for a pass.  Inside the worker
    it times the ``run_consensus`` call and, when ``traced``, records the
    run's layer aggregates with a worker-local :class:`Tracer`; both ride
    back next to the summary and are split off again in the coordinating
    process (in :meth:`E11Steal.run_pass`) before anything is checkpointed.
    """

    traced: bool

    def __call__(self, task):
        latencies: List[float] = []
        tracer = Tracer() if self.traced else None
        with ExitStack() as stack:
            stack.enter_context(
                mock.patch.object(parallel, "run_consensus", _timed(run_consensus, latencies, tracer))
            )
            if tracer is not None:
                stack.enter_context(instrument(tracer))
            summary = _EXECUTE_REDUCED(task)
        return summary, latencies, tracer.totals() if tracer is not None else None


class E11Steal(Workload):
    """``e11-steal``: the E11 plan as one work-stealing worker, then merged.

    The process pool (at most two workers, never more than the host's
    CPUs) starts in :meth:`setup`; every pass claims all points of a fresh
    sweep directory through leases, checkpoints them, and folds them with
    ``merge_stolen``.  Run latencies are timed inside the pool workers.
    """

    name = "e11-steal"
    worker = "perfbench"

    def setup(self) -> None:
        """Build the plan, create the sweep root and start the pool."""
        self.plan = e11_resilience.plan(seeds=default_seeds(self.count, base=self.seed))
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.workers = min(2, parallel.available_cpus())
        self._stack = ExitStack()
        self._stack.enter_context(parallel.worker_pool(self.workers))
        pool = parallel._shared_pool
        if pool is not None:
            pool.submit(int).result()  # fork the workers now, not in the first pass

    def teardown(self) -> None:
        """Stop the pool (its workers are waited for)."""
        self._stack.close()

    def run_pass(
        self, index: int = 0, tracer: Optional[Tracer] = None, pause: Callable[[], float] = _no_pause
    ) -> PassOutcome:
        """Steal every point of a fresh sweep directory, merge, report.

        ``pause`` runs between points, while the pool is idle.
        """
        plan = replace(self.plan, seeds=default_seeds(self.count, base=self.base(index)))
        recorder = Recorder()

        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir))
        try:
            with ExitStack() as stack:
                stack.enter_context(
                    mock.patch.object(parallel, "_execute_reduced", TimedExecute(tracer is not None))
                )
                # A one-CPU host runs the points serially in this process.
                stack.enter_context(
                    mock.patch.object(
                        parallel,
                        "run_consensus",
                        _timed(run_consensus, recorder.latencies, tracer),
                    )
                )
                if tracer is not None:
                    stack.enter_context(instrument(tracer))
                execute_point = coordinator.execute_point

                def unwrap(plan, task, max_workers, exec_mode=None):
                    summaries = []
                    for item in execute_point(plan, task, max_workers, exec_mode=exec_mode):
                        if isinstance(item, tuple):
                            item, latencies, delta = item
                            recorder.latencies.extend(latencies)
                            if delta is not None:
                                tracer.absorb(delta)
                        summaries.append(item)
                    config = plan.points[task.point_index].config
                    expected = termination_expected(
                        config.algorithm, config.topology, config.failure_pattern, config.scenario
                    )
                    for summary in summaries:
                        recorder.add_summary(summary, expected)
                    recorder.paused += pause()
                    return summaries

                stack.enter_context(mock.patch.object(coordinator, "execute_point", unwrap))
                started = time.perf_counter()
                coordinator.run_work_stealing(
                    plan, out, worker=self.worker, max_workers=self.workers
                )
                merged = coordinator.merge_stolen(out, plan)
                passed = bool(e11_resilience.build_report(plan, merged.aggregates).passed)
                wall = time.perf_counter() - started - recorder.paused
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return PassOutcome(wall, recorder, experiment_digest(plan, merged.aggregates), passed)


class SearchAll(Workload):
    """``search-all``: ``search_all`` over every algorithm at n=4.

    ``count`` is the schedule budget per algorithm.  A schedule fails when
    it returns a violation.  The digest covers runs and violations per
    algorithm and the pass's simulator events.
    """

    name = "search-all"
    n = 4

    def base(self, index: int) -> int:
        """The search seed of pass ``index`` (one seed per pass)."""
        return self.seed + index

    def run_pass(
        self, index: int = 0, tracer: Optional[Tracer] = None, pause: Callable[[], float] = _no_pause
    ) -> PassOutcome:
        """Search every algorithm's schedules with the pass's seed."""
        recorder = Recorder()
        run_schedule = _timed(explorer.run_schedule, recorder.latencies, tracer)
        kernel_run = SimulationKernel.run

        def schedule(spec, choices=()):
            result = run_schedule(spec, choices)
            recorder.runs += 1
            recorder.failed += result.violation is not None
            recorder.paused += pause()
            return result

        def counted_run(kernel):
            result = kernel_run(kernel)
            recorder.events += result.events_processed
            return result

        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(explorer, "run_schedule", schedule))
            stack.enter_context(mock.patch.object(SimulationKernel, "run", counted_run))
            if tracer is not None:
                stack.enter_context(instrument(tracer))
            started = time.perf_counter()
            outcomes = explorer.search_all(
                ALGORITHMS, budget=self.count, n=self.n, seed=self.base(index)
            )
            wall = time.perf_counter() - started - recorder.paused
        digest = _sha(
            {
                "outcomes": [
                    [outcome.spec.algorithm, outcome.runs, int(outcome.found)]
                    for outcome in outcomes
                ],
                "events": recorder.events,
            }
        )
        return PassOutcome(wall, recorder, digest, True)


#: Workload name -> (class, full-size count: seeds, or schedules per algorithm).
WORKLOADS: Dict[str, Any] = {
    E8Quorum.name: (E8Quorum, 1),
    E9Faults.name: (E9Faults, 20),
    E11Steal.name: (E11Steal, 20),
    SearchAll.name: (SearchAll, 200),
}


def make_workload(name: str, seed: int, work_dir: Path, count: Optional[int] = None) -> Workload:
    """Build a workload by name; ``count`` shrinks it (seeds, or schedules per algorithm)."""
    try:
        factory, full = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return factory(seed, full if count is None else count, work_dir)
