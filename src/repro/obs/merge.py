"""Incremental merging: fold per-point checkpoints as they land.

:func:`~repro.harness.coordinator.merge_stolen` is a batch operation -- it
refuses to produce anything until every point of the plan is
checkpointed.  :class:`IncrementalMerger` is its streaming counterpart
for the observability layer: each :meth:`~IncrementalMerger.poll` reads
the run directory's point states, folds every *newly completed* point,
and leaves the rest pending, so a live ``/aggregate`` endpoint can report
the finished prefix of an hours-long sweep.

**Bit-identity guarantee.** Every point is folded through
:func:`~repro.harness.distributed.fold_point` -- the same run-index-
ordered fold used by the batch merge and by single-host
:func:`~repro.harness.distributed.run_plan` -- and a point counts as
completed by the same :func:`~repro.harness.coordinator.point_states`
reader the batch merge uses.  A point's aggregate never depends on any
other point, so the partial aggregates over any completed subset are
bit-identical to what ``merge_stolen`` produces for those points once the
whole sweep finishes (the bit-identity test sweeps static shard counts k
in {1, 3, 7} over every completed prefix).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..harness import coordinator as _coord
from ..harness.aggregate import RunAggregate
from ..harness.distributed import ManifestError, MergedSweep, SweepPlan, check_merge_provenance, fold_point


class IncrementalMerger:
    """Fold a run directory's per-point checkpoints as they appear.

    Call :meth:`poll` whenever fresher data is wanted (the serve endpoints
    poll on each request); it returns the labels folded *by that call*.
    Folded aggregates accumulate in :attr:`aggregates`; a point that has
    not finished -- or whose checkpoint is unreadable -- simply stays
    pending until a later poll.  Provenance is enforced the same way the
    batch merge enforces it: artifacts from a different plan raise
    :class:`~repro.harness.distributed.ManifestError` rather than fold.
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        plan: SweepPlan,
        cache: Optional[_coord.PointCache] = None,
    ) -> None:
        self.out = Path(out_dir)
        self.plan = plan
        #: Checkpoints already judged, so a poll re-reads only changed files
        #: (shareable with other readers of the same directory).
        self._cache: _coord.PointCache = {} if cache is None else cache
        #: Folded aggregates by point label, in completion order.
        self.aggregates: Dict[str, RunAggregate] = {}
        #: The plan header, read and checked on the first poll that finds it.
        self._header: Optional[Dict[str, Any]] = None
        #: Last per-point load failure, for diagnostics (a corrupt
        #: checkpoint leaves its point pending rather than raising).
        self.last_error: Optional[str] = None

    # ---------------------------------------------------------------- state
    @property
    def complete(self) -> bool:
        """Whether every point of the plan has been folded."""
        return len(self.aggregates) == len(self.plan.points)

    def pending(self) -> List[str]:
        """Labels not folded yet, in plan order."""
        return [
            point.label for point in self.plan.points if point.label not in self.aggregates
        ]

    def merged(self) -> MergedSweep:
        """The fully merged sweep; raises until :attr:`complete`."""
        if not self.complete:
            raise ManifestError(
                f"run in {self.out} is incomplete: points {self.pending()} have "
                f"not been folded yet; keep polling (or run more workers)"
            )
        return MergedSweep(
            plan=self.plan,
            shard_count=max(len(_coord.find_worker_manifests(self.out)), 1),
            aggregates={point.label: self.aggregates[point.label] for point in self.plan.points},
        )

    # ---------------------------------------------------------------- polls
    def poll(self) -> List[str]:
        """Fold every newly completed point; return their labels."""
        if self._header is None:
            header = _coord.read_plan_header(self.out, missing_ok=True)
            if header is None:
                return []  # no worker has started yet
            check_merge_provenance(header, self.plan, self.out)
            self._header = header
        folded: List[str] = []
        for point in _coord.point_states(self.out, self._header, self._cache):
            if point.error is not None:
                self.last_error = point.error
            if point.summaries is None or point.label in self.aggregates:
                continue
            self.aggregates[point.label] = fold_point(
                self.plan, point.index, ((summary.index, summary) for summary in point.summaries)
            )
            folded.append(point.label)
        return folded
