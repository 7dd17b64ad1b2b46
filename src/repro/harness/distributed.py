"""Sweep plans, static shards, checkpoints and the canonical per-point fold.

:class:`~repro.harness.aggregate.RunAggregate` made cross-host reduction
*possible*; this module makes it *practical*.  A :class:`SweepPlan` is the
deterministic enumeration of every run of a sweep (every point of the sweep
under every seed).  Any host can execute one :class:`ShardSpec` worth of that
plan with :func:`run_shard` -- the points whose index is ``i-1`` modulo
``k``, claimed without leases by a worker named ``shard-IofK`` of the one
scheduler in :mod:`~repro.harness.coordinator` -- and
:func:`~repro.harness.coordinator.merge_stolen` folds the directory back
into aggregates *bit-identical* to the single-host execution of the plan.

How bit-identity is achieved
----------------------------
Every checkpoint covers one whole sweep point, and every run keeps the
summary index (and therefore the ``SeedSequence(entropy, spawn_key=(index,))``
sketch priority) it would have had in the unsharded execution -- who ran a
point never changes any per-run value.  Merging does **not** use the
Chan-style :meth:`~repro.harness.aggregate.StreamingStats.merge` (floating
point makes a pairwise moment merge differ from a sequential fold in the last
bits); instead the checkpoints carry the raw per-run
:class:`~repro.harness.aggregate.RunSummary` objects (~1 KB each), and
:func:`fold_point` re-folds them in run-index order through the exact code
path (:meth:`RunAggregate.from_summaries`) the single-host sweep uses.  The
streaming ``merge`` remains the right tool for *approximate* online
reduction; the checkpoint re-fold is what makes ``shard + merge == sweep``
an equality, not an approximation.

Index schemes
-------------
``indexing="per-point"`` numbers runs 0..len(seeds)-1 within each point --
what :func:`~repro.harness.sweep.repeat` does, and what the experiment
drivers build their plans with.  ``indexing="global"`` numbers runs across
the whole batch -- what :func:`~repro.harness.sweep.sweep` and
:func:`~repro.harness.sweep.grid` do.  Plans built by :func:`plan_repeat`,
:func:`plan_sweep` and :func:`plan_grid` pick the scheme matching their
single-host counterpart, so either route merges to the bit-identical result.

Static shards and work-stealing workers share one on-disk layout (see
:mod:`~repro.harness.coordinator`).  Every artifact embeds
:data:`MANIFEST_VERSION` and the plan's fingerprint, and readers refuse
other versions and other plans with errors that name the file at fault.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .aggregate import (
    SKETCH_CAPACITY,
    RunAggregate,
    RunSummary,
    SummaryReducer,
    priority_backend,
)
from .parallel import run_many, worker_pool
from .runner import ExperimentConfig
from .sweep import SweepPoint, SweepResult, grid_points, variation_points

if TYPE_CHECKING:
    from .coordinator import StealRunResult

#: Version stamped into every manifest and checkpoint this module writes.
#: Readers reject any other version, so stale artifacts fail loudly instead
#: of merging garbage.  Version 2 added the ``delay_models`` / ``scenarios``
#: provenance fields (and configs grew the fault-injection ``scenario``
#: field, changing every fingerprint), so version-1 artifacts cannot merge
#: with version-2 ones anyway.  Version 3 added the work-stealing scheduler
#: (:mod:`~repro.harness.coordinator`): manifests and checkpoints record
#: worker/lease provenance, and steal directories gained the ``plan.json``
#: header and per-point lease files.  Version 4 gave static shards that same
#: layout: ``shard-IofK.json`` manifests and per-shard checkpoints are gone,
#: and directories holding them are refused by name.
MANIFEST_VERSION = 4

#: The two run-numbering schemes a plan can use (see the module docstring).
INDEXING_SCHEMES = ("per-point", "global")


class ShardError(ValueError):
    """A shard specification, plan or shard artifact is unusable."""


class ManifestError(ShardError):
    """A manifest or checkpoint is malformed, mismatched or incomplete."""


# ---------------------------------------------------------------- shard spec
@dataclass(frozen=True)
class ShardSpec:
    """One slice ``index/count`` of a plan (1-based, ``1/1`` = everything)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ShardError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ShardError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"i/k"`` (e.g. ``"2/4"``) into a spec."""
        match = re.fullmatch(r"\s*(\d+)\s*/\s*(\d+)\s*", text)
        if not match:
            raise ShardError(
                f"shard must look like I/K (e.g. 2/4), got {text!r}"
            )
        return cls(index=int(match.group(1)), count=int(match.group(2)))

    def owns(self, point_index: int) -> bool:
        """Whether this shard is pre-assigned sweep point ``point_index``."""
        return point_index % self.count == self.index - 1

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


# --------------------------------------------------------------------- plans
@dataclass(frozen=True)
class PlanPoint:
    """One parameter combination of a plan.

    ``meta`` carries whatever per-point context a report builder wants back
    (row fields, predictions); it never crosses hosts and is not part of the
    plan fingerprint -- it is recomputed wherever the plan is rebuilt.
    """

    label: str
    config: ExperimentConfig
    check: bool = True
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class SweepPlan:
    """The deterministic enumeration of every run of one sweep.

    A plan is pure data: building one runs nothing.  Two hosts that build
    the same plan (same experiment, same seeds, same parameters) agree on
    every run's configuration, summary index and shard assignment, which is
    what lets them execute disjoint shards independently.
    """

    key: str
    seeds: List[int]
    points: List[PlanPoint]
    indexing: str = "per-point"
    experiment: Optional[str] = None
    entropy: int = 0
    capacity: int = SKETCH_CAPACITY
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.indexing not in INDEXING_SCHEMES:
            raise ShardError(
                f"unknown indexing scheme {self.indexing!r}; choose from {INDEXING_SCHEMES}"
            )
        if not self.seeds:
            raise ShardError("a plan needs at least one seed")
        if not self.points:
            raise ShardError("a plan needs at least one point")
        labels = [point.label for point in self.points]
        if len(set(labels)) != len(labels):
            duplicates = sorted({label for label in labels if labels.count(label) > 1})
            raise ShardError(f"plan point labels must be unique; duplicated: {duplicates}")

    # ---------------------------------------------------------- enumeration
    @property
    def runs_per_point(self) -> int:
        """How many runs (seeds) each point contributes."""
        return len(self.seeds)

    @property
    def total_runs(self) -> int:
        """The total number of runs in the whole plan."""
        return len(self.points) * len(self.seeds)

    def run_index(self, point_index: int, seed_position: int) -> int:
        """The summary/priority index of one run under the plan's scheme."""
        if self.indexing == "global":
            return point_index * len(self.seeds) + seed_position
        return seed_position

    def point_indices(self, point_index: int) -> List[int]:
        """All summary indices of one point, in fold order."""
        return point_run_indices(self.indexing, len(self.seeds), point_index)

    def delay_models(self) -> List[str]:
        """Sorted unique delay-model descriptions across the plan's points.

        Recorded in the plan header so a merge can refuse checkpoints
        produced under a different delay model with an error that names the
        field (the fingerprint would also catch it, but anonymously).
        """
        return sorted({point.config.delay_model.describe() for point in self.points})

    def scenario_names(self) -> List[str]:
        """Sorted unique fault-scenario names across the plan's points.

        Points without a scenario contribute ``"none"``.  Besides powering
        the named-field merge refusal (like :meth:`delay_models`), this is
        what lets ``python -m repro merge`` rebuild a scenario-restricted
        e9 plan from the plan header alone.
        """
        return sorted(
            {
                point.config.scenario.name if point.config.scenario is not None else "none"
                for point in self.points
            }
        )

    def fingerprint(self) -> str:
        """A digest pinning everything that affects sharded results.

        Covers the manifest version, the numbering scheme, the seeds, the
        sketch entropy/capacity, every point's label, ``check`` flag and
        full configuration ``repr`` (all the config components have stable,
        value-only reprs), and this host's :func:`~.aggregate.priority_backend`
        -- a numpy host and a numpy-free host derive different sketch
        priorities for the same run index, so their checkpoints must not merge.
        Two plans with equal fingerprints produce interchangeable checkpoints;
        everything this module writes or reads is checked against it.
        """
        payload = json.dumps(
            {
                "version": MANIFEST_VERSION,
                "key": self.key,
                "experiment": self.experiment,
                "indexing": self.indexing,
                "entropy": self.entropy,
                "capacity": self.capacity,
                "priority_backend": priority_backend(),
                "seeds": list(self.seeds),
                "points": [
                    [point.label, point.check, repr(point.config)] for point in self.points
                ],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def plan_repeat(
    config: ExperimentConfig,
    seeds: Sequence[int],
    label: str = "repeat",
    check: bool = True,
    key: str = "repeat",
) -> SweepPlan:
    """A single-point plan equivalent to :func:`~repro.harness.sweep.repeat`."""
    return SweepPlan(
        key=key,
        seeds=list(seeds),
        points=[PlanPoint(label=label, config=config, check=check)],
        indexing="per-point",
    )


def plan_sweep(
    base_config: ExperimentConfig,
    variations: Mapping[str, Mapping[str, Any]],
    seeds: Sequence[int],
    check: bool = True,
    key: str = "sweep",
) -> SweepPlan:
    """A plan enumerating exactly what :func:`~repro.harness.sweep.sweep` runs."""
    points = [
        PlanPoint(label=label, config=config, check=check, meta=overrides)
        for label, overrides, config in variation_points(base_config, variations)
    ]
    return SweepPlan(key=key, seeds=list(seeds), points=points, indexing="global")


def plan_grid(
    base_config: ExperimentConfig,
    axes: Mapping[str, Sequence[Any]],
    seeds: Sequence[int],
    label_format: Optional[Callable[[Dict[str, Any]], str]] = None,
    check: bool = True,
    key: str = "grid",
) -> SweepPlan:
    """A plan enumerating exactly what :func:`~repro.harness.sweep.grid` runs."""
    points = [
        PlanPoint(label=label, config=config, check=check, meta=overrides)
        for label, overrides, config in grid_points(base_config, axes, label_format=label_format)
    ]
    return SweepPlan(key=key, seeds=list(seeds), points=points, indexing="global")


# ---------------------------------------------------------- local execution
def run_plan(
    plan: SweepPlan,
    max_workers: Optional[int] = None,
    exec_mode: Optional[str] = None,
) -> Dict[str, RunAggregate]:
    """Execute the whole plan on this host, one aggregate per point label.

    The single-host reference that sharded execution is measured against:
    for a ``per-point`` plan this is bit-identical to calling
    :func:`~repro.harness.sweep.repeat` per point, for a ``global`` plan to
    the corresponding :func:`~repro.harness.sweep.sweep`/:func:`grid` call.

    ``exec_mode`` selects the per-point engine (process pool vs cooperative
    multi-kernel hosting; see :func:`~repro.harness.parallel.run_many`) and
    never changes any aggregate — only how fast they arrive.  The shared
    worker pool is only warmed up when a point can actually use it.
    """
    aggregates: Dict[str, RunAggregate] = {}
    with worker_pool(max_workers if exec_mode != "coop" else 1):
        for point_index, point in enumerate(plan.points):
            configs = [point.config.with_seed(seed) for seed in plan.seeds]
            reducer = SummaryReducer(
                entropy=plan.entropy, start=plan.run_index(point_index, 0), step=1
            )
            summaries = run_many(
                configs,
                max_workers=max_workers,
                check=point.check,
                reducer=reducer,
                exec_mode=exec_mode,
            )
            aggregates[point.label] = RunAggregate.from_summaries(
                summaries, capacity=plan.capacity
            )
    return aggregates


def point_run_indices(indexing: str, seed_count: int, point_index: int) -> List[int]:
    """A point's summary indices in fold order, from what ``plan.json`` records."""
    first = point_index * seed_count if indexing == "global" else 0
    return list(range(first, first + seed_count))


# ------------------------------------------------------------- artifact IO
def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``path`` via a same-directory temp file + rename, never partially.

    The temp name embeds the writer's pid and thread id: concurrent writers
    of the *same* path (two workers racing to checkpoint one point with
    bit-identical summaries) then each rename their own whole file, so
    readers see one complete version or the other, never a tear.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _load_checkpoint(path: Path, header: Mapping[str, Any], point_index: int) -> List[RunSummary]:
    """Read one whole-point checkpoint and verify it belongs to the plan and point.

    ``header`` is the run directory's ``plan.json`` (fingerprint, labels,
    indexing, seeds): the checkpoint must carry the plan's fingerprint, the
    point's index and label, and exactly the point's run indices in fold
    order.  The scheduler, ``status``, ``serve`` and the merge all judge a
    checkpoint this one way, with or without the plan object at hand.
    """
    try:
        with open(path, "rb") as handle:
            raw = pickle.load(handle)
    except Exception as error:  # garbage bytes can fail to unpickle in any way
        raise ManifestError(f"unreadable checkpoint {path}: {error!r}") from error
    if not isinstance(raw, dict):
        raise ManifestError(f"malformed checkpoint {path}: not a checkpoint object")
    if raw.get("version") != MANIFEST_VERSION:
        raise ManifestError(
            f"checkpoint {path} has version {raw.get('version')!r} but this build "
            f"reads version {MANIFEST_VERSION}"
        )
    if raw.get("fingerprint") != header["fingerprint"]:
        raise ManifestError(
            f"checkpoint {path} belongs to a different plan "
            f"(fingerprint {raw.get('fingerprint')!r})"
        )
    label = header["labels"][point_index]
    indices = point_run_indices(header["indexing"], len(header["seeds"]), point_index)
    summaries = raw.get("summaries")
    if (
        raw.get("point_index") != point_index
        or raw.get("label") != label
        or not isinstance(summaries, list)
        or [getattr(summary, "index", None) for summary in summaries] != indices
    ):
        raise ManifestError(
            f"checkpoint {path} does not hold the runs {indices[0]}..{indices[-1]} "
            f"of point {point_index} ({label!r})"
        )
    return summaries


def _write_checkpoint(
    path: Path,
    plan: SweepPlan,
    point_index: int,
    summaries: List[RunSummary],
    provenance: Optional[Mapping[str, Any]] = None,
) -> None:
    payload = {
        "version": MANIFEST_VERSION,
        "fingerprint": plan.fingerprint(),
        "point_index": point_index,
        "label": plan.points[point_index].label,
        "summaries": summaries,
    }
    if provenance:
        payload.update(provenance)
    _atomic_write_bytes(path, pickle.dumps(payload))


# ------------------------------------------------------------ shard running
def run_shard(
    plan: SweepPlan,
    shard: ShardSpec,
    out_dir: Union[str, Path],
    max_workers: Optional[int] = None,
    exec_mode: Optional[str] = None,
) -> "StealRunResult":
    """Execute this shard's pre-assigned points of the plan, one checkpoint each.

    Shard ``i/k`` is the worker ``shard-IofK`` of the one scheduler
    (:class:`~repro.harness.coordinator.WorkStealingScheduler`): it takes
    every point whose index is ``i-1`` modulo ``k`` without leases and never
    steals; with more shards than points the surplus shards own nothing,
    and a warning says so.  Valid checkpoints already on disk -- from a
    killed invocation, or from any other worker -- are reused at once;
    corrupt or foreign ones are recomputed with a warning.  Returns the worker's
    :class:`~repro.harness.coordinator.StealRunResult`.
    """
    from .coordinator import WorkStealingScheduler, drive_claims

    points = len(plan.points)
    if shard.count > points:
        warnings.warn(
            f"shard {shard}: a shard owns whole points and this plan has only "
            f"{points}, so {shard.count - points} of the {shard.count} shards get "
            f"none; run at most {points} shards",
            RuntimeWarning,
        )
    scheduler = WorkStealingScheduler(plan, Path(out_dir), shard=shard)
    return drive_claims(plan, scheduler, max_workers, exec_mode=exec_mode)


# ----------------------------------------------------------------- merging
@dataclass
class MergedSweep:
    """The single-host-equivalent outcome reassembled from a run directory."""

    plan: SweepPlan
    shard_count: int
    aggregates: Dict[str, RunAggregate]

    def sweep_result(self) -> SweepResult:
        """The merged aggregates as a :class:`~repro.harness.sweep.SweepResult`."""
        result = SweepResult()
        for point in self.plan.points:
            result.points.append(
                SweepPoint(
                    label=point.label,
                    parameters=dict(point.meta),
                    aggregate=self.aggregates[point.label],
                )
            )
        return result


def check_merge_provenance(recorded: Mapping[str, Any], plan: SweepPlan, out: Path) -> None:
    """Refuse merging artifacts whose recorded provenance contradicts ``plan``.

    Shared by :func:`~repro.harness.coordinator.merge_stolen` and the
    observability layer's :class:`~repro.obs.merge.IncrementalMerger`.  The
    named provenance fields come first: a delay-model or scenario mismatch
    would also trip the fingerprint check below, but with an anonymous
    digest -- the named-field error says *what* differs.
    """
    for field_name, plan_value in (
        ("delay_models", plan.delay_models()),
        ("scenarios", plan.scenario_names()),
    ):
        value = recorded.get(field_name)
        if value is not None and list(value) != plan_value:
            raise ManifestError(
                f"artifacts in {out} disagree with the merge plan on {field_name!r}: "
                f"they were produced under {value} but the plan has {plan_value}; "
                f"artifacts produced under different delay models or fault "
                f"scenarios cannot be merged"
            )
    if recorded["fingerprint"] != plan.fingerprint():
        hint = ""
        recorded_backend = recorded.get("priority_backend")
        if recorded_backend and recorded_backend != priority_backend():
            hint = (
                f" (the artifacts were produced with the {recorded_backend!r} run-priority "
                f"backend but this host uses {priority_backend()!r}; numpy availability "
                f"must match between the worker hosts and the merge host)"
            )
        raise ManifestError(
            f"artifacts in {out} were produced by a different plan (fingerprint "
            f"{recorded['fingerprint'][:12]}... != {plan.fingerprint()[:12]}...); "
            f"rebuild the merge plan with the same experiment, seeds and parameters"
            + hint
        )


def fold_point(
    plan: SweepPlan, point_index: int, pairs: Iterable[Tuple[int, RunSummary]]
) -> RunAggregate:
    """Fold one point's ``(run_index, summary)`` pairs into its aggregate.

    THE canonical per-point fold: sort by run index, require exactly the
    plan's indices for the point, and feed
    :meth:`~repro.harness.aggregate.RunAggregate.from_summaries` in that
    order.  The batch :func:`~repro.harness.coordinator.merge_stolen` and
    the observability layer's :class:`~repro.obs.merge.IncrementalMerger`
    both fold through this one function, which is what makes their
    aggregates bit-identical to :func:`run_plan` -- and to each other -- by
    construction.
    """
    ordered = sorted(pairs, key=lambda pair: pair[0])
    indices = [index for index, _ in ordered]
    if indices != plan.point_indices(point_index):
        raise ManifestError(
            f"point {plan.points[point_index].label!r} reassembled with run "
            f"indices {indices}, expected {plan.point_indices(point_index)}"
        )
    return RunAggregate.from_summaries(
        (summary for _, summary in ordered), capacity=plan.capacity
    )
