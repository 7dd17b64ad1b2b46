"""Worker-side aggregation: mergeable streaming summaries of repeated runs.

The parallel engine used to ship one pickled :class:`~.runner.RunResult` per
run back to the parent process -- memories, traces and per-process metrics
included -- so IPC volume grew linearly with both the system size ``n`` and
the repetition count, and dominated large sweeps.  This module provides the
compact alternative: a :class:`Reducer` turns each ``RunResult`` into a tiny
:class:`RunSummary` *inside the worker*, and the parent folds those summaries
into mergeable :class:`RunAggregate` / :class:`StreamingStats` accumulators.
Each run then costs O(1) bytes over the pipe instead of O(run size).

Determinism
-----------
Folding order is always run-index order, and the percentile sketch is a
*bottom-k* sample keyed by per-run priorities derived from the run index
(via :func:`numpy.random.SeedSequence.spawn` semantics, with a SHA-256
fallback when numpy is unavailable).  Priorities depend only on the run
index, never on which worker executed the run or how the batch was chunked,
so serial, parallel and chunked executions produce bit-identical aggregates.

Accuracy
--------
Moments (count / mean / M2 / min / max) are exact.  The percentile sketch
stores the whole sample up to ``capacity`` values (exact percentiles), and
degrades to a uniform random subsample of size ``capacity`` beyond that,
giving a rank error of roughly ``1/sqrt(capacity)``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Protocol, Tuple

from .stats import SummaryStats, ci95_half_width, percentile

try:  # pragma: no cover - exercised implicitly on numpy-equipped hosts
    from numpy.random import SeedSequence as _SeedSequence
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    _SeedSequence = None

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .runner import RunResult

#: Default size of the percentile sketch.  Below this many runs the sketch
#: stores everything and percentiles are exact; typical sweeps (tens to a few
#: hundred repetitions) therefore lose nothing to sketching.
SKETCH_CAPACITY = 512


# --------------------------------------------------------------- RNG streams
def priority_backend() -> str:
    """Which implementation backs :func:`run_priority` on this host.

    The two backends are individually deterministic but produce different
    priorities for the same run index, so artifacts keyed by priorities
    (sharded-sweep checkpoints) record the backend and refuse to mix --
    merging numpy-host shards with numpy-free-host shards would otherwise
    silently break bit-identity with the single-host sweep.
    """
    return "numpy-seedsequence" if _SeedSequence is not None else "sha256"


def run_priority(entropy: int, index: int) -> float:
    """Deterministic uniform priority in [0, 1) for run ``index``.

    Implements the per-run RNG-stream split from ROADMAP: each run owns an
    independent stream derived by spawning the master ``entropy`` keyed by
    the *run index* (``SeedSequence(entropy, spawn_key=(index,))``), so the
    value is identical no matter which worker executes the run, how the
    batch is chunked, or in which order runs complete.
    """
    if _SeedSequence is not None:
        state = _SeedSequence(entropy, spawn_key=(index,)).generate_state(2)
        bits = (int(state[0]) << 32) | int(state[1])
    else:
        digest = hashlib.sha256(repr((entropy, index)).encode("utf-8")).digest()
        bits = int.from_bytes(digest[:8], "big")
    return (bits >> 11) / float(1 << 53)


# ------------------------------------------------------------ streaming stats
@dataclass
class StreamingStats:
    """Mergeable running statistics of one numeric quantity.

    Maintains exact count/mean/M2/min/max (Welford / Chan updates) plus a
    bottom-``capacity`` priority sample for percentile estimation.  Two
    accumulators built from disjoint runs merge into exactly the accumulator
    a single pass over the union would have built (the sketch is a set
    union truncated by priority, and the moment merge is written in a
    bit-commutative form, so ``merge(a, b) == merge(b, a)``).
    """

    capacity: int = SKETCH_CAPACITY
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: ``(priority, value)`` pairs, sorted by priority, at most ``capacity``.
    sample: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"sketch capacity must be >= 1, got {self.capacity}")

    # ------------------------------------------------------------- ingestion
    def add(self, value: float, priority: Optional[float] = None) -> None:
        """Fold one observation in.

        ``priority`` keys the percentile sketch; the harness passes
        :func:`run_priority` of the run index.  When omitted, a priority is
        derived from the accumulator's own observation count -- fine for a
        single accumulator, but accumulators that are later merged should
        use externally assigned priorities so the union stays a uniform
        sample.
        """
        value = float(value)
        if priority is None:
            priority = run_priority(0, self.count)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._sketch_insert(priority, value)

    def _sketch_insert(self, priority: float, value: float) -> None:
        if len(self.sample) >= self.capacity and priority >= self.sample[-1][0]:
            return
        bisect.insort(self.sample, (priority, value))
        if len(self.sample) > self.capacity:
            self.sample.pop()

    # --------------------------------------------------------------- merging
    def merge(self, other: "StreamingStats") -> "StreamingStats":
        """The statistics of the pooled sample, as a new accumulator.

        Bit-commutative: every combined term is written symmetrically
        (products and two-term sums), so swapping the operands yields the
        identical float result, and the sketch union is order-free.
        """
        if self.capacity != other.capacity:
            raise ValueError(
                f"cannot merge sketches of different capacities "
                f"({self.capacity} vs {other.capacity})"
            )
        if other.count == 0:
            return self.copy()
        if self.count == 0:
            return other.copy()
        count = self.count + other.count
        mean = (self.count * self.mean + other.count * other.mean) / count
        delta = other.mean - self.mean
        m2 = (self.m2 + other.m2) + delta * delta * (self.count * other.count / count)
        merged = StreamingStats(
            capacity=self.capacity,
            count=count,
            mean=mean,
            m2=m2,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            sample=sorted(self.sample + other.sample)[: self.capacity],
        )
        return merged

    def copy(self) -> "StreamingStats":
        """An independent copy (the sketch list is not shared)."""
        return StreamingStats(
            capacity=self.capacity,
            count=self.count,
            mean=self.mean,
            m2=self.m2,
            minimum=self.minimum,
            maximum=self.maximum,
            sample=list(self.sample),
        )

    # --------------------------------------------------------------- queries
    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 for fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(max(self.variance, 0.0))

    @property
    def sketch_values(self) -> List[float]:
        """The sketched sample values (the whole sample below capacity)."""
        return [value for _, value in self.sample]

    @property
    def exact(self) -> bool:
        """Whether percentiles are exact (nothing was evicted yet)."""
        return self.count <= self.capacity

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (exact while :attr:`exact` holds)."""
        if self.count == 0:
            raise ValueError("percentile of an empty accumulator")
        return percentile(self.sketch_values, q)

    def to_summary_stats(self) -> SummaryStats:
        """The :class:`~.stats.SummaryStats` view used by reports and sweeps."""
        if self.count == 0:
            raise ValueError("cannot summarize an empty accumulator")
        std = self.std
        return SummaryStats(
            count=self.count,
            mean=self.mean,
            std=std,
            minimum=self.minimum,
            maximum=self.maximum,
            median=self.percentile(50.0),
            p90=self.percentile(90.0),
            ci95_half_width=ci95_half_width(self.count, std),
        )


# --------------------------------------------------------------- run summary
@dataclass(frozen=True)
class RunSummary:
    """The O(1)-size digest of one run that crosses the worker pipe.

    Carries everything the sweep layer and the experiment drivers consume:
    the numeric metric fields (derived ratios included), the boolean
    outcome flags, and the sketch priority of the run.
    """

    seed: int
    index: int
    priority: float
    algorithm: str
    terminated: bool
    safety_ok: bool
    decided: bool
    decided_value: Optional[int]
    values: Dict[str, float]

    @classmethod
    def from_result(cls, result: "RunResult", index: int, priority: float) -> "RunSummary":
        """Digest one full :class:`~.runner.RunResult` into a summary."""
        from .metrics import numeric_metric_values

        return cls(
            seed=result.config.seed,
            index=index,
            priority=priority,
            algorithm=result.config.algorithm,
            terminated=result.metrics.terminated,
            safety_ok=result.report.safety_ok,
            decided=bool(result.sim_result.decisions),
            decided_value=result.metrics.decided_value,
            values=numeric_metric_values(result.metrics),
        )


class Reducer(Protocol):
    """Worker-side reduction applied by :func:`~.parallel.run_many`.

    A reducer must be picklable (a module-level function or a dataclass of
    picklable fields), because it travels to the worker processes alongside
    each configuration.  It receives the full :class:`~.runner.RunResult`
    and the run's index in the batch, and whatever it returns is what
    crosses the pipe back to the parent.
    """

    def __call__(self, result: "RunResult", index: int) -> Any:  # pragma: no cover
        ...


@dataclass(frozen=True)
class SummaryReducer:
    """The standard reducer: ``RunResult`` -> :class:`RunSummary`.

    ``entropy`` seeds the per-run priority streams; the default of 0 keeps
    summaries comparable across sweeps (the sketch keeps the same run
    indices for every metric and every sweep point).

    ``start`` and ``step`` remap the batch position ``t`` that
    :func:`~.parallel.run_many` hands the reducer to the run's *logical*
    index ``start + t * step``.  The defaults are the identity, which is what
    a whole batch executed in one place wants.  A caller executing an
    index-strided subset of a larger batch uses the remap so every run keeps
    the priority it would have had in the whole execution -- the property
    that makes merged aggregates bit-identical to the single-host sweep.
    (The sweep harness checkpoints whole points, so it needs only ``start``.)
    """

    entropy: int = 0
    start: int = 0
    step: int = 1

    def __call__(self, result: "RunResult", index: int) -> RunSummary:
        index = self.start + index * self.step
        return RunSummary.from_result(result, index, run_priority(self.entropy, index))


# -------------------------------------------------------------- run aggregate
@dataclass
class RunAggregate:
    """Mergeable aggregate of many :class:`RunSummary` objects.

    One :class:`StreamingStats` per numeric metric, plus outcome counters.
    This is what :func:`~.sweep.repeat` returns in summary mode and what a
    :class:`~.sweep.SweepPoint` carries for each parameter combination.
    """

    capacity: int = SKETCH_CAPACITY
    count: int = 0
    terminated_count: int = 0
    safe_count: int = 0
    decided_count: int = 0
    stats: Dict[str, StreamingStats] = field(default_factory=dict)

    # ------------------------------------------------------------- ingestion
    def add(self, summary: RunSummary) -> None:
        """Fold one run summary into the counters and per-metric stats."""
        self.count += 1
        self.terminated_count += 1 if summary.terminated else 0
        self.safe_count += 1 if summary.safety_ok else 0
        self.decided_count += 1 if summary.decided else 0
        for name, value in summary.values.items():
            accumulator = self.stats.get(name)
            if accumulator is None:
                accumulator = StreamingStats(capacity=self.capacity)
                self.stats[name] = accumulator
            accumulator.add(value, priority=summary.priority)

    @classmethod
    def from_summaries(
        cls, summaries: Iterable[RunSummary], capacity: int = SKETCH_CAPACITY
    ) -> "RunAggregate":
        """Fold summaries in iteration order (run-index order in the harness)."""
        aggregate = cls(capacity=capacity)
        for summary in summaries:
            aggregate.add(summary)
        return aggregate

    def merge(self, other: "RunAggregate") -> "RunAggregate":
        """The pooled aggregate of two disjoint batches, as a new object."""
        if self.capacity != other.capacity:
            raise ValueError(
                f"cannot merge aggregates of different sketch capacities "
                f"({self.capacity} vs {other.capacity})"
            )
        merged = RunAggregate(
            capacity=self.capacity,
            count=self.count + other.count,
            terminated_count=self.terminated_count + other.terminated_count,
            safe_count=self.safe_count + other.safe_count,
            decided_count=self.decided_count + other.decided_count,
        )
        for name in {**self.stats, **other.stats}:
            left = self.stats.get(name)
            right = other.stats.get(name)
            if left is None:
                merged.stats[name] = right.copy()
            elif right is None:
                merged.stats[name] = left.copy()
            else:
                merged.stats[name] = left.merge(right)
        return merged

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return self.count

    def metric_names(self) -> List[str]:
        """The aggregated metric names, sorted."""
        return sorted(self.stats)

    def _stat(self, metric: str) -> StreamingStats:
        try:
            return self.stats[metric]
        except KeyError:
            raise KeyError(
                f"no aggregated metric {metric!r}; available: {self.metric_names()}"
            ) from None

    def mean(self, metric: str) -> float:
        """Mean of one aggregated metric."""
        return self._stat(metric).mean

    def std(self, metric: str) -> float:
        """Sample standard deviation of one aggregated metric."""
        return self._stat(metric).std

    def minimum(self, metric: str) -> float:
        """Smallest observed value of one aggregated metric."""
        return self._stat(metric).minimum

    def maximum(self, metric: str) -> float:
        """Largest observed value of one aggregated metric."""
        return self._stat(metric).maximum

    def percentile(self, metric: str, q: float) -> float:
        """Estimated ``q``-th percentile of one aggregated metric."""
        return self._stat(metric).percentile(q)

    def summary(self, metric: str) -> SummaryStats:
        """The :class:`~.stats.SummaryStats` view of one aggregated metric."""
        return self._stat(metric).to_summary_stats()

    def termination_rate(self) -> float:
        """Fraction of runs in which every correct process decided."""
        return self.terminated_count / self.count if self.count else 0.0

    def safety_rate(self) -> float:
        """Fraction of runs whose safety properties all held."""
        return self.safe_count / self.count if self.count else 0.0

    def decided_rate(self) -> float:
        """Fraction of runs in which at least one process decided."""
        return self.decided_count / self.count if self.count else 0.0
