"""The sweep scheduler: leases, heartbeats, theft, static shards, point state, merge.

Workers *claim* sweep points through atomic lease files in the shared
output directory, renew their claims with heartbeats while computing, and
**steal** points whose leases expire -- so a slow host sheds its
un-started points to faster ones and a killed host's work is picked up
automatically.  A static shard ``i/k`` is the same scheduler with
pre-assigned claims: the worker ``shard-IofK`` takes every point whose
index is ``i-1`` modulo ``k``, without leases, and never steals.

The unit of claiming is one whole sweep point (every seed of one
parameter combination).  Every run keeps the summary index -- and
therefore the ``SeedSequence(entropy, spawn_key=(index,))`` sketch
priority -- it would have had in the unsharded execution, so
:func:`merge_stolen` re-folds per-point checkpoints in run-index order
through the exact code path the single-host sweep uses, and the merged
aggregates are *bit-identical* to :func:`~.distributed.run_plan` no
matter how many workers ran, died, restarted or stole.

The claim protocol
------------------
Leases live under ``<out>/leases/`` as one JSON file per (point,
generation): ``point-0003-gen-0000.json`` is the initial claim of point
3, ``...-gen-0001.json`` the first steal of it, and so on.  The *live*
lease of a point is its highest generation.  All transitions are
single-winner because creating a generation file is atomic (write a
temp file, ``os.link`` it into place -- the link fails for everyone but
the first):

* **claim** -- create generation 0.  Losing the race means someone else
  owns the point; move on.
* **heartbeat** -- the holder atomically rewrites its own generation
  file every ``ttl/4`` seconds with a fresh ``renewed_at``.  A holder
  that discovers a higher generation knows it was stolen from.
* **steal** -- when ``renewed_at + ttl`` has passed (the TTL recorded
  *in* the lease, so heterogeneous workers honour each other's), create
  generation ``g+1``.  Exactly one of any number of stealers wins.
* **corrupt lease files** (torn writes, disk trouble) are treated as
  expired, with a warning -- the point becomes stealable rather than
  stuck.

Because every run of a plan is deterministic, the worst possible race
outcome -- two workers computing the same point -- costs duplicated work
but never correctness: both produce bit-identical summaries and the
checkpoint write is atomic.  Correctness never depends on the clock;
clock skew can only make theft early (duplicated work) or late (idle
time).  See ``docs/distributed.md`` for the full failure-mode table.

On-disk layout (all under the shared ``--out`` directory), the same for
static shards and stealing workers, so both may share one directory --
the worst case of mixing them is duplicated, bit-identical work::

    plan.json                    header: version, fingerprint, seeds, labels
    leases/point-0003-gen-0001.json   lease provenance, one file per claim/steal
    point-0003.pkl               checkpoint: every RunSummary of point 3
    steal-worker-<name>.json     per-worker manifest: one outcome per point

:func:`point_states` is the one reader of point state: the scheduler,
``status``, ``serve``, the incremental merger and :func:`merge_stolen` all
count a point done only when its checkpoint loads and matches the plan.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import socket
import threading
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from . import distributed
from .aggregate import RunSummary, SummaryReducer, priority_backend
from .distributed import (
    MANIFEST_VERSION,
    ManifestError,
    MergedSweep,
    ShardSpec,
    SweepPlan,
    _atomic_write_bytes,
    _load_checkpoint,
    _write_checkpoint,
    check_merge_provenance,
)
from ..obs.telemetry import Telemetry
from .parallel import worker_pool

#: How long a lease stays live without a heartbeat before it can be stolen.
#: Generous by default: a steal only pays off when the holder is minutes
#: gone, and a too-short TTL turns slow points into duplicated work.
DEFAULT_LEASE_TTL = 60.0

#: The shared-plan header file every run directory starts with.
PLAN_HEADER_NAME = "plan.json"

#: Subdirectory of the run directory holding the per-point lease files.
LEASE_DIR_NAME = "leases"

_LEASE_RE = re.compile(r"^point-(\d+)-gen-(\d+)\.json$")
_WORKER_MANIFEST_RE = re.compile(r"^steal-worker-(.+)\.json$")
_WORKER_NAME_RE = re.compile(r"[^A-Za-z0-9._-]+")
#: The static shard manifests of manifest version 3 and earlier.
_OLD_SHARD_MANIFEST_RE = re.compile(r"^shard-\d+of\d+\.json$")

#: The wall clock every lease decision reads: acquiring, renewing and
#: judging expiry.  Tests move it forward instead of sleeping past a TTL.
_now = time.time


class LeaseError(ManifestError):
    """A lease request or lease file is unusable."""


# ------------------------------------------------------------------- paths
def plan_header_path(out_dir: Union[str, Path]) -> Path:
    """Where the shared plan header of a run directory lives."""
    return Path(out_dir) / PLAN_HEADER_NAME


def lease_dir(out_dir: Union[str, Path]) -> Path:
    """The lease subdirectory of a run directory."""
    return Path(out_dir) / LEASE_DIR_NAME


def point_checkpoint_path(out_dir: Union[str, Path], point_index: int) -> Path:
    """Where the whole-point checkpoint of one sweep point lives."""
    return Path(out_dir) / f"point-{point_index:04d}.pkl"


def worker_manifest_path(out_dir: Union[str, Path], worker: str) -> Path:
    """Where one worker's progress manifest lives."""
    return Path(out_dir) / f"steal-worker-{worker}.json"


def find_worker_manifests(out_dir: Union[str, Path]) -> List[Path]:
    """Every worker manifest in ``out_dir``, sorted by worker name."""
    out = Path(out_dir)
    if not out.is_dir():
        raise ManifestError(f"{out} is not a directory")
    return sorted(path for path in out.iterdir() if _WORKER_MANIFEST_RE.match(path.name))


def default_worker_name() -> str:
    """This process's worker identity: ``<hostname>-<pid>``.

    Unique per live process, which is what the lease protocol needs; a
    *restarted* worker gets a fresh name and recovers its own dead leases
    through the ordinary expiry-and-steal path.
    """
    return sanitize_worker_name(f"{socket.gethostname()}-{os.getpid()}")


def sanitize_worker_name(worker: str) -> str:
    """Make a worker name safe to embed in lease and manifest filenames."""
    cleaned = _WORKER_NAME_RE.sub("-", worker.strip()).strip("-.")
    if not cleaned:
        raise LeaseError(f"unusable worker name {worker!r}")
    return cleaned


def _atomic_create_bytes(path: Path, payload: bytes) -> bool:
    """Create ``path`` with ``payload`` all-or-nothing; False if it exists.

    The temp-file + ``os.link`` dance makes creation atomic *including the
    content*: a concurrent reader sees either no file or the whole file,
    and of any number of racing creators exactly one wins.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    tmp.write_bytes(payload)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        tmp.unlink(missing_ok=True)
    return True


# ------------------------------------------------------------- plan header
def write_plan_header(out_dir: Union[str, Path], plan: SweepPlan) -> Path:
    """Publish (or validate against) the shared plan header of ``out_dir``.

    The first worker creates ``plan.json`` atomically; every later worker
    -- and :func:`steal_status` / :func:`merge_stolen`, which need nothing
    but the directory -- validates against it.  A header for a different
    plan, or a directory written by an older build, is refused.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = plan_header_path(out)
    if not path.exists():
        _refuse_old_layout(out)
    encoded = json.dumps(_header_payload(plan), indent=2).encode("utf-8")
    if not path.exists() and _atomic_create_bytes(path, encoded):
        return path
    existing = read_plan_header(out)
    if existing["fingerprint"] != plan.fingerprint():
        raise ManifestError(
            f"{path} belongs to a different plan (fingerprint "
            f"{existing['fingerprint'][:12]}... != {plan.fingerprint()[:12]}...); "
            f"every worker sharing an output directory must run the same "
            f"experiment with the same seeds -- merge or clear that directory "
            f"before reusing it"
        )
    return path


def _header_payload(plan: SweepPlan) -> Dict[str, Any]:
    """The ``plan.json`` contents for ``plan``."""
    return {
        "version": MANIFEST_VERSION,
        "fingerprint": plan.fingerprint(),
        "plan_key": plan.key,
        "experiment": plan.experiment,
        "indexing": plan.indexing,
        "priority_backend": priority_backend(),
        "delay_models": plan.delay_models(),
        "scenarios": plan.scenario_names(),
        "seeds": list(plan.seeds),
        "labels": [point.label for point in plan.points],
        "runs_total": plan.total_runs,
    }


def read_plan_header(out_dir: Union[str, Path], missing_ok: bool = False) -> Optional[Dict[str, Any]]:
    """Load and structurally validate the plan header of ``out_dir``.

    A directory with no header yet raises :class:`ManifestError`, or gives
    ``None`` with ``missing_ok``; a directory written by an older build is
    refused either way, with an error naming the file.
    """
    path = plan_header_path(out_dir)
    if not path.is_file():
        _refuse_old_layout(Path(out_dir))
        if missing_ok:
            return None
        raise ManifestError(
            f"no plan header ({PLAN_HEADER_NAME}) in {out_dir}: not a run "
            f"directory, or no worker has started on it yet"
        )
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise ManifestError(f"malformed plan header {path}: {error}") from error
    if not isinstance(raw, dict) or "version" not in raw:
        raise ManifestError(f"malformed plan header {path}: not a header object")
    if raw["version"] != MANIFEST_VERSION:
        raise ManifestError(
            f"plan header {path} has version {raw['version']!r} but this build "
            f"reads version {MANIFEST_VERSION}; re-run the sweep with this build "
            f"into a fresh directory"
        )
    missing = [key for key in ("fingerprint", "indexing", "seeds", "labels") if key not in raw]
    if missing:
        raise ManifestError(f"malformed plan header {path}: missing fields {missing}")
    return raw


def _refuse_old_layout(out: Path) -> None:
    """Refuse a directory of manifest-version-3 static shards, naming a manifest."""
    if not out.is_dir():
        return
    for path in sorted(out.iterdir()):
        if _OLD_SHARD_MANIFEST_RE.match(path.name):
            raise ManifestError(
                f"{path} is a static shard manifest from an older build (manifest "
                f"version 3 or earlier); this build reads version {MANIFEST_VERSION} "
                f"run directories only -- re-run the sweep with this build into a "
                f"fresh directory"
            )


# ------------------------------------------------------------------ leases
@dataclass(frozen=True)
class Lease:
    """One generation of one point's lease, as read from (or written to) disk.

    ``corrupt`` marks a lease file that could not be parsed; it reports
    itself expired whatever the clock says, so a torn write makes a point
    stealable instead of stuck.
    """

    point_index: int
    generation: int
    worker: str
    acquired_at: float
    renewed_at: float
    ttl: float
    path: Path
    corrupt: bool = False
    #: The holder's telemetry snapshot, refreshed with every heartbeat --
    #: the lease file doubles as the worker's live metrics channel (see
    #: :mod:`repro.obs.telemetry`).
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def expires_at(self) -> float:
        """The wall-clock time after which this lease may be stolen."""
        return self.renewed_at + self.ttl

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether this lease is past its TTL (corrupt leases always are)."""
        if self.corrupt:
            return True
        return (_now() if now is None else now) >= self.expires_at


def _lease_path(out_dir: Union[str, Path], point_index: int, generation: int) -> Path:
    return lease_dir(out_dir) / f"point-{point_index:04d}-gen-{generation:04d}.json"


def _lease_payload(lease: Lease, fingerprint: str) -> bytes:
    payload = {
        "version": MANIFEST_VERSION,
        "fingerprint": fingerprint,
        "point_index": lease.point_index,
        "generation": lease.generation,
        "worker": lease.worker,
        "acquired_at": lease.acquired_at,
        "renewed_at": lease.renewed_at,
        "ttl": lease.ttl,
    }
    if lease.telemetry is not None:
        payload["telemetry"] = lease.telemetry
    return json.dumps(payload, indent=2).encode("utf-8")


def _parse_lease(path: Path, point_index: int, generation: int, warn: bool = True) -> Lease:
    """Read one lease file; corrupt files come back as expired, with a warning."""
    try:
        raw = json.loads(path.read_text())
        telemetry = raw.get("telemetry")
        return Lease(
            point_index=point_index,
            generation=generation,
            worker=str(raw["worker"]),
            acquired_at=float(raw["acquired_at"]),
            renewed_at=float(raw["renewed_at"]),
            ttl=float(raw["ttl"]),
            path=path,
            telemetry=telemetry if isinstance(telemetry, dict) else None,
        )
    except (OSError, ValueError, KeyError, TypeError) as error:
        if warn:
            warnings.warn(
                f"treating corrupt lease file {path.name} as expired: {error}",
                RuntimeWarning,
            )
        return Lease(
            point_index=point_index,
            generation=generation,
            worker="?",
            acquired_at=0.0,
            renewed_at=0.0,
            ttl=0.0,
            path=path,
            corrupt=True,
        )


def _lease_index(out_dir: Union[str, Path]) -> Dict[int, Tuple[int, Path]]:
    """One directory scan: each point's highest lease generation and its file.

    Shared by :func:`current_lease` (one point) and :func:`point_states`
    (every point), so a status call over a P-point plan costs one scan of
    ``leases/``, not P of them.
    """
    index: Dict[int, Tuple[int, Path]] = {}
    directory = lease_dir(out_dir)
    if not directory.is_dir():
        return index
    for path in directory.iterdir():
        match = _LEASE_RE.match(path.name)
        if not match:
            continue
        point_index, generation = int(match.group(1)), int(match.group(2))
        if point_index not in index or generation > index[point_index][0]:
            index[point_index] = (generation, path)
    return index


def current_lease(
    out_dir: Union[str, Path], point_index: int, warn: bool = True
) -> Optional[Lease]:
    """The live (highest-generation) lease of one point, if any."""
    entry = _lease_index(out_dir).get(point_index)
    if entry is None:
        return None
    generation, path = entry
    return _parse_lease(path, point_index, generation, warn=warn)


def try_claim(
    out_dir: Union[str, Path],
    plan: SweepPlan,
    point_index: int,
    worker: str,
    ttl: float,
) -> Optional[Lease]:
    """Attempt the initial (generation-0) claim of a point; None if lost.

    Atomic and single-winner: of any number of workers claiming the same
    point, exactly one gets the lease back and the rest get ``None``.
    """
    return _try_acquire(out_dir, plan, point_index, worker, ttl, generation=0)


def try_steal(
    out_dir: Union[str, Path],
    plan: SweepPlan,
    point_index: int,
    worker: str,
    ttl: float,
    current: Lease,
) -> Optional[Lease]:
    """Attempt to steal a point whose ``current`` lease has expired.

    Creates generation ``current.generation + 1``; of any number of
    stealers racing for the same expired lease, exactly one wins.  Stealing
    a live lease is refused with :class:`LeaseError` -- callers decide
    expiry *before* stealing, with :meth:`Lease.expired`.
    """
    if not current.expired():
        raise LeaseError(
            f"lease of point {point_index} (held by {current.worker!r}, "
            f"generation {current.generation}) has not expired; refusing to steal"
        )
    return _try_acquire(
        out_dir, plan, point_index, worker, ttl, generation=current.generation + 1
    )


def _try_acquire(
    out_dir: Union[str, Path],
    plan: SweepPlan,
    point_index: int,
    worker: str,
    ttl: float,
    generation: int,
) -> Optional[Lease]:
    if ttl <= 0:
        raise LeaseError(f"lease ttl must be positive, got {ttl}")
    if not 0 <= point_index < len(plan.points):
        raise LeaseError(
            f"point index {point_index} outside the plan's 0..{len(plan.points) - 1}"
        )
    lease_dir(out_dir).mkdir(parents=True, exist_ok=True)
    now = _now()
    lease = Lease(
        point_index=point_index,
        generation=generation,
        worker=worker,
        acquired_at=now,
        renewed_at=now,
        ttl=float(ttl),
        path=_lease_path(out_dir, point_index, generation),
    )
    if not _atomic_create_bytes(lease.path, _lease_payload(lease, plan.fingerprint())):
        return None
    return lease


def renew_lease(
    lease: Lease, fingerprint: str, telemetry: Optional[Dict[str, Any]] = None
) -> Optional[Lease]:
    """Refresh a held lease's heartbeat; ``None`` when it was superseded.

    The holder atomically rewrites its own generation file with a fresh
    ``renewed_at``, then checks for a higher generation: finding one means
    a stealer decided this lease dead (the holder stalled past its TTL),
    and the holder must treat the point as no longer exclusively its own.
    ``telemetry`` (a :meth:`~repro.obs.telemetry.Telemetry.snapshot`)
    piggybacks on the heartbeat so worker metrics cost no extra file.
    """
    renewed = dataclasses.replace(
        lease, renewed_at=_now(), telemetry=telemetry if telemetry is not None else lease.telemetry
    )
    _atomic_write_bytes(lease.path, _lease_payload(renewed, fingerprint))
    top = current_lease(lease.path.parent.parent, lease.point_index, warn=False)
    if top is not None and top.generation > lease.generation:
        return None
    return renewed


# -------------------------------------------------------------- claim loop
@dataclass
class PointTask:
    """One claimed sweep point, ready to execute.

    ``lease`` is ``None`` for a static shard's pre-assigned claim;
    ``superseded`` flips when the holder's lease was stolen mid-execution.
    """

    point_index: int
    label: str
    lease: Optional[Lease] = None
    superseded: bool = False


def execute_point(
    plan: SweepPlan,
    task: PointTask,
    max_workers: Optional[int],
    exec_mode: Optional[str] = None,
) -> List[RunSummary]:
    """Run every seed of one claimed point and summarize the runs.

    Resolves ``run_many`` through the :mod:`~repro.harness.distributed`
    module at call time, preserving the long-standing test seam that
    monkeypatches ``distributed.run_many`` to simulate killed workers.
    ``exec_mode`` picks the engine (see :func:`~repro.harness.parallel.run_many`)
    and cannot change any summary — checkpoints merge bit-identically
    whichever mode computed them.
    """
    point = plan.points[task.point_index]
    configs = [point.config.with_seed(seed) for seed in plan.seeds]
    reducer = SummaryReducer(entropy=plan.entropy, start=plan.run_index(task.point_index, 0))
    return distributed.run_many(
        configs,
        max_workers=max_workers,
        check=point.check,
        reducer=reducer,
        exec_mode=exec_mode,
    )


def drive_claims(
    plan: SweepPlan,
    scheduler: "WorkStealingScheduler",
    max_workers: Optional[int] = None,
    exec_mode: Optional[str] = None,
) -> "StealRunResult":
    """Run a scheduler's claim loop to completion and return its result.

    Ask the scheduler for claimed tasks, execute each under the scheduler's
    hold (a lease heartbeat, or nothing for a static shard's pre-assigned
    claim), and hand the summaries back for checkpointing.
    """
    with worker_pool(max_workers if exec_mode != "coop" else 1):
        for task in scheduler.claims():
            with scheduler.hold(task):
                summaries = execute_point(plan, task, max_workers, exec_mode=exec_mode)
            scheduler.complete(task, summaries)
    return scheduler.finish()


@dataclass
class StealRunResult:
    """What one worker invocation did, by point label.

    ``executed`` were computed from fresh generation-0 claims (or, for a
    static shard, from pre-assigned claims), ``stolen`` from expired leases
    taken over; ``already_done`` had a valid checkpoint (any worker's)
    before this invocation touched them; ``left_behind`` were un-done when
    this worker exited -- live-leased by other workers, or unattempted
    because ``max_points`` ran out; ``lost`` were computed here but
    checkpointed by a thief first (possible only after this worker stalled
    past its TTL).
    """

    worker: str
    out_dir: Path
    manifest: Path
    executed: List[str] = field(default_factory=list)
    stolen: List[str] = field(default_factory=list)
    already_done: List[str] = field(default_factory=list)
    left_behind: List[str] = field(default_factory=list)
    lost: List[str] = field(default_factory=list)
    runs_executed: int = 0
    runs_reused: int = 0

    @property
    def computed(self) -> List[str]:
        """Every label this worker computed, claimed or stolen."""
        return self.executed + self.stolen


class WorkStealingScheduler:
    """The one scheduler: lease-based claims and steals, or a static shard.

    Pass one claims never-leased points (scanning from a worker-specific
    rotation offset, so concurrent workers mostly avoid colliding); pass
    two repeatedly steals points whose leases have expired, until every
    point is checkpointed or everything left is live-leased by someone
    else -- at which point this worker exits rather than wait (re-run it,
    or any other worker, to pick up later orphans).  With ``wait=True``
    the worker idles instead of exiting: it re-polls every
    ``poll_interval`` seconds until the remaining points are checkpointed
    by their holders or their leases expire and become stealable.

    With ``shard`` the worker (named ``shard-IofK`` by default) takes only
    its pre-assigned points, in plan order, without leases, and never
    steals: there is no lease to wait out, so a re-run resumes at once.
    """

    def __init__(
        self,
        plan: SweepPlan,
        out_dir: Path,
        worker: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_points: Optional[int] = None,
        wait: bool = False,
        poll_interval: Optional[float] = None,
        shard: Optional[ShardSpec] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise LeaseError(f"lease ttl must be positive, got {lease_ttl}")
        if max_points is not None and max_points < 1:
            raise LeaseError(f"max_points must be >= 1, got {max_points}")
        if poll_interval is not None and poll_interval <= 0:
            raise LeaseError(f"poll interval must be positive, got {poll_interval}")
        self.plan = plan
        self.out = Path(out_dir)
        self.shard = shard
        if worker is None:
            worker = (
                default_worker_name() if shard is None else f"shard-{shard.index}of{shard.count}"
            )
        self.worker = sanitize_worker_name(worker)
        self.ttl = float(lease_ttl)
        self.max_points = max_points
        self.wait = wait
        #: Default idle re-poll cadence tracks the heartbeat cadence: there
        #: is nothing new to observe between two renewals of a live lease.
        self.poll_interval = (
            float(poll_interval) if poll_interval is not None else max(self.ttl / 4.0, 0.01)
        )
        self.telemetry = Telemetry()
        write_plan_header(self.out, plan)
        self.result = StealRunResult(
            worker=self.worker, out_dir=self.out, manifest=worker_manifest_path(self.out, self.worker)
        )
        self._header = _header_payload(plan)
        self._recorded: Dict[int, str] = {}
        self._computed = 0

    # ------------------------------------------------------------- claiming
    def claims(self) -> Iterator[PointTask]:
        """Yield claimed tasks: fresh claims first, then steals of expired leases.

        A static shard yields its unsettled pre-assigned points instead.
        """
        for point_index in self._rotation():
            if self._exhausted():
                break
            if self._settled(point_index):
                continue
            if self.shard is not None:
                yield self._task(point_index, None)
                continue
            lease = try_claim(self.out, self.plan, point_index, self.worker, self.ttl)
            if lease is not None:
                yield self._task(point_index, lease)
        while self.shard is None and not self._exhausted():
            progressed = False
            for point_index in self._rotation():
                if self._exhausted():
                    break
                if self._settled(point_index):
                    continue
                current = current_lease(self.out, point_index)
                if current is None:
                    lease = try_claim(self.out, self.plan, point_index, self.worker, self.ttl)
                elif current.expired():
                    lease = try_steal(
                        self.out, self.plan, point_index, self.worker, self.ttl, current
                    )
                else:
                    continue
                if lease is not None:
                    progressed = True
                    yield self._task(point_index, lease)
            if not self._outstanding():
                break
            if not progressed:
                if not self.wait:
                    break
                # Everything left is live-leased by other workers.  Idle
                # instead of exiting: their checkpoints will settle the
                # points, or their leases will expire and become ours.
                self.telemetry.inc("idle_polls")
                time.sleep(self.poll_interval)
        for point_index in self._outstanding():
            label = self.plan.points[point_index].label
            self._recorded[point_index] = "left-behind"
            self.result.left_behind.append(label)
        self._write_manifest()

    @contextmanager
    def hold(self, task: PointTask) -> Iterator[None]:
        """Renew the task's lease from a heartbeat thread while it executes.

        Each renewal carries a fresh telemetry snapshot, so the lease file
        doubles as the worker's live metrics feed while it computes.  A
        static shard's lease-free task is only timed.
        """
        stop = threading.Event()
        interval = max(self.ttl / 4.0, 0.01)

        def beat() -> None:
            """Renew until stopped, superseded, or the context exits."""
            while not stop.wait(interval):
                refreshed = renew_lease(
                    task.lease, self._header["fingerprint"], telemetry=self.telemetry.snapshot()
                )
                if refreshed is None:
                    task.superseded = True
                    return
                task.lease = refreshed

        keeper = None
        if task.lease is not None:
            keeper = threading.Thread(
                target=beat, name=f"lease-keeper-point-{task.point_index}", daemon=True
            )
            keeper.start()
        try:
            with self.telemetry.timer("point_seconds"):
                yield
        finally:
            stop.set()
            if keeper is not None:
                keeper.join(timeout=10.0)

    def complete(self, task: PointTask, summaries: List[RunSummary]) -> None:
        """Checkpoint one computed point, unless a thief beat us to it."""
        self._computed += 1
        if task.superseded and load_point(self.out, self._header, task.point_index)[0] is not None:
            # Stolen from us mid-run and the thief finished first.  Its
            # checkpoint is bit-identical to ours, so nothing is wasted but
            # our own time; record the loss and keep going.
            self._recorded[task.point_index] = "lost"
            self.result.lost.append(task.label)
            self.telemetry.inc("points_lost")
            self._write_manifest()
            return
        generation = task.lease.generation if task.lease is not None else None
        _write_checkpoint(
            point_checkpoint_path(self.out, task.point_index),
            self.plan,
            task.point_index,
            summaries,
            provenance={
                "worker": self.worker,
                "lease_generation": generation,
                "stolen": bool(generation),
            },
        )
        self.result.runs_executed += len(summaries)
        self.telemetry.inc("points_computed")
        self.telemetry.inc("runs_executed", len(summaries))
        self.telemetry.set_gauge("last_checkpoint_at", time.time())
        if generation:
            self._recorded[task.point_index] = "stolen"
            self.result.stolen.append(task.label)
            self.telemetry.inc("points_stolen")
        else:
            self._recorded[task.point_index] = "executed"
            self.result.executed.append(task.label)
        self._write_manifest()

    def finish(self) -> StealRunResult:
        """Write the final worker manifest and report what this worker did."""
        self._write_manifest()
        return self.result

    # ------------------------------------------------------------ internals
    def _rotation(self) -> List[int]:
        """The point indices this worker considers, in claim order.

        A static shard takes its pre-assigned points in plan order.  A
        stealing worker scans every point from its own hash offset, so
        concurrent workers' fresh claims mostly avoid fighting over one lease.
        """
        count = len(self.plan.points)
        if self.shard is not None:
            return [point_index for point_index in range(count) if self.shard.owns(point_index)]
        offset = int(hashlib.sha256(self.worker.encode("utf-8")).hexdigest(), 16) % count
        return list(range(offset, count)) + list(range(offset))

    def _exhausted(self) -> bool:
        return self.max_points is not None and self._computed >= self.max_points

    def _settled(self, point_index: int) -> bool:
        """Whether this worker is done considering ``point_index``.

        Memoized in ``_recorded``: each valid checkpoint is loaded at most
        once per worker.
        """
        if point_index in self._recorded:
            return True
        label = self.plan.points[point_index].label
        summaries, error = load_point(self.out, self._header, point_index)
        if error is not None:
            warnings.warn(f"recomputing point {label!r}: {error}", RuntimeWarning)
        if summaries is None:
            return False
        self._recorded[point_index] = "already-done"
        self.result.already_done.append(label)
        self.result.runs_reused += len(summaries)
        self._write_manifest()
        return True

    def _outstanding(self) -> List[int]:
        """This worker's unsettled points, settling any checkpointed since the last pass.

        Goes through :meth:`_settled` so a checkpoint landing after the last
        claim pass is recorded as already-done: every point ends in exactly
        one outcome, and in the worker manifest.
        """
        return [
            point_index
            for point_index in sorted(self._rotation())
            if not self._settled(point_index)
        ]

    def _task(self, point_index: int, lease: Optional[Lease]) -> PointTask:
        return PointTask(
            point_index=point_index,
            label=self.plan.points[point_index].label,
            lease=lease,
        )

    def _write_manifest(self) -> None:
        outcomes = {
            str(point_index): {
                "label": self.plan.points[point_index].label,
                "outcome": outcome,
            }
            for point_index, outcome in sorted(self._recorded.items())
        }
        payload = {
            "version": MANIFEST_VERSION,
            "fingerprint": self._header["fingerprint"],
            "worker": self.worker,
            "lease_ttl": self.ttl,
            "points": outcomes,
            "points_computed": len(self.result.executed) + len(self.result.stolen),
            "points_stolen": len(self.result.stolen),
            "points_lost": len(self.result.lost),
            "runs_executed": self.result.runs_executed,
            "runs_reused": self.result.runs_reused,
            "telemetry": self.telemetry.snapshot(),
        }
        _atomic_write_bytes(
            self.result.manifest, json.dumps(payload, indent=2).encode("utf-8")
        )


def run_work_stealing(
    plan: SweepPlan,
    out_dir: Union[str, Path],
    worker: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_workers: Optional[int] = None,
    max_points: Optional[int] = None,
    exec_mode: Optional[str] = None,
    wait: bool = False,
    poll_interval: Optional[float] = None,
) -> StealRunResult:
    """Execute ``plan`` as one work-stealing worker over ``out_dir``.

    Claims un-started sweep points through atomic leases, heartbeats them
    while computing, steals points whose leases expire, and exits when
    every point is checkpointed or only live-leased work remains.  Any
    number of workers (concurrent or sequential, homogeneous or not, static
    shards included) may share ``out_dir``; :func:`merge_stolen` folds the
    result bit-identically to the single-host sweep.  ``max_points`` bounds
    how many points this invocation computes (useful for fixed-size work
    grants); ``lease_ttl`` is how long a silent holder keeps a point before
    it becomes stealable.  ``wait=True`` makes the worker idle (re-polling
    every ``poll_interval`` seconds, default ``lease_ttl / 4``) when
    everything left is live-leased, instead of exiting -- so a fleet drains
    a sweep without a supervisor re-launching stragglers.
    """
    scheduler = WorkStealingScheduler(
        plan,
        Path(out_dir),
        worker=worker,
        lease_ttl=lease_ttl,
        max_points=max_points,
        wait=wait,
        poll_interval=poll_interval,
    )
    return drive_claims(plan, scheduler, max_workers, exec_mode=exec_mode)


# ------------------------------------------------------------- point state
#: The states a point can be in.  Every reader classifies points the same
#: way, through :func:`point_states`.
POINT_STATES = ("done", "leased", "orphaned", "unclaimed")


@dataclass
class PointState:
    """One sweep point's state in a run directory.

    ``state`` is one of :data:`POINT_STATES`.  ``summaries`` holds the
    loaded checkpoint of a ``done`` point; ``error`` says why a checkpoint
    file on disk did not count (unreadable, or not this plan's or this
    point's).  ``lease`` is the point's live lease, if it was ever leased.
    """

    index: int
    label: str
    state: str
    lease: Optional[Lease] = None
    summaries: Optional[List[RunSummary]] = None
    error: Optional[str] = None


#: A :func:`load_point` memo: checkpoint path -> (file stamp, result).
PointCache = Dict[Path, Tuple[Tuple[Any, ...], Tuple[Any, Optional[str]]]]


def load_point(
    out_dir: Union[str, Path],
    header: Mapping[str, Any],
    point_index: int,
    cache: Optional[PointCache] = None,
) -> Tuple[Optional[List[RunSummary]], Optional[str]]:
    """A point's checkpointed summaries, or ``None`` and the reason.

    The one test of "done": the checkpoint must exist, unpickle, and match
    the plan ``header``'s fingerprint and the point's index, label and run
    indices.  A missing file gives ``(None, None)``; a bad one ``(None,
    reason)``.  With a ``cache``, a file whose inode, mtime and size are
    unchanged since it was last judged is not read again.
    """
    path = point_checkpoint_path(out_dir, point_index)
    try:
        stat = path.stat()
    except FileNotFoundError:
        return None, None
    stamp = (header["fingerprint"], stat.st_ino, stat.st_mtime_ns, stat.st_size)
    if cache is not None and path in cache and cache[path][0] == stamp:
        return cache[path][1]
    try:
        loaded = _load_checkpoint(path, header, point_index), None
    except ManifestError as error:
        loaded = None, str(error)
    if cache is not None:
        cache[path] = (stamp, loaded)
    return loaded


def point_states(
    out_dir: Union[str, Path], header: Mapping[str, Any], cache: Optional[PointCache] = None
) -> List[PointState]:
    """Every point's state, read from the run directory alone.

    A point is ``done`` only when :func:`load_point` accepts its checkpoint
    against the directory's plan ``header``; otherwise its live lease
    decides between ``leased``, ``orphaned`` (expired) and ``unclaimed``.
    Long-lived readers (``serve``, ``status --watch``) pass one ``cache``
    across calls, so each checkpoint is unpickled once, not once per poll.
    """
    out = Path(out_dir)
    leases = _lease_index(out)
    states = []
    for index, label in enumerate(header["labels"]):
        entry = leases.get(index)
        lease = _parse_lease(entry[1], index, entry[0], warn=False) if entry else None
        summaries, error = load_point(out, header, index, cache)
        if summaries is not None:
            state = "done"
        elif lease is None:
            state = "unclaimed"
        elif lease.expired():
            state = "orphaned"
        else:
            state = "leased"
        states.append(PointState(index, label, state, lease, summaries, error))
    return states


# ------------------------------------------------------------------ status
@dataclass
class StealStatus:
    """Aggregate progress of a run directory.

    ``stolen`` counts points whose live lease generation is above zero --
    points that changed hands at least once, completed or not.
    ``orphaned`` are points whose lease expired with no valid checkpoint:
    claimable by the next worker.  ``workers`` holds one row per worker
    manifest found; ``points`` the per-point states the counts come from.
    """

    points_total: int
    done: int
    leased: int
    orphaned: int
    unclaimed: int
    stolen: int
    runs_total: int
    experiment: Optional[str]
    plan_key: Optional[str]
    workers: List[Dict[str, Any]] = field(default_factory=list)
    points: List[PointState] = field(default_factory=list)

    def headline(self) -> str:
        """The one-line summary ``status`` and ``serve`` both print."""
        return (
            f"{self.experiment or self.plan_key or '?'}: {self.done}/{self.points_total} "
            f"points done ({self.stolen} stolen), {self.leased} leased, "
            f"{self.orphaned} orphaned, {self.unclaimed} unclaimed"
        )


def steal_status(out_dir: Union[str, Path], cache: Optional[PointCache] = None) -> StealStatus:
    """Read a run directory's progress from its artifacts alone (``cache``: see :func:`point_states`)."""
    out = Path(out_dir)
    header = read_plan_header(out)
    points = point_states(out, header, cache)
    counts = Counter(point.state for point in points)
    workers = []
    for path in find_worker_manifests(out):
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise ManifestError(f"malformed worker manifest {path}: {error}") from error
        row = {
            "worker": raw.get("worker", "?"),
            "computed": raw.get("points_computed", 0),
            "stolen": raw.get("points_stolen", 0),
            "lost": raw.get("points_lost", 0),
            "runs_executed": raw.get("runs_executed", 0),
        }
        telemetry = raw.get("telemetry")
        if isinstance(telemetry, dict):
            row["telemetry"] = telemetry
        workers.append(row)
    return StealStatus(
        points_total=len(points),
        done=counts["done"],
        leased=counts["leased"],
        orphaned=counts["orphaned"],
        unclaimed=counts["unclaimed"],
        stolen=sum(1 for point in points if point.lease is not None and point.lease.generation > 0),
        runs_total=header.get("runs_total", 0),
        experiment=header.get("experiment"),
        plan_key=header.get("plan_key"),
        workers=workers,
        points=points,
    )


# ------------------------------------------------------------------- merge
def merge_stolen(out_dir: Union[str, Path], plan: SweepPlan) -> MergedSweep:
    """Fold a run directory into the single-host aggregates.

    The one batch merge, for every mix of static shards and stealing
    workers.  Validates the plan header against ``plan`` (named-field
    provenance errors first, then the fingerprint), requires every point to
    be ``done`` by :func:`point_states`, and re-folds each point's summaries
    in run-index order -- the identical code path and therefore identical
    bits to :func:`~repro.harness.distributed.run_plan`, no matter which
    workers computed, stole or recomputed which points.
    """
    out = Path(out_dir)
    header = read_plan_header(out)
    check_merge_provenance(header, plan, out)
    points = point_states(out, header)
    unfinished = [point for point in points if point.state != "done"]
    if unfinished:
        counts = Counter(point.state for point in unfinished)
        errors = "".join(f"; {point.error}" for point in unfinished if point.error)
        raise ManifestError(
            f"run in {out} is incomplete: points {[point.label for point in unfinished]} "
            f"have no valid checkpoint yet ({counts['leased']} leased, {counts['orphaned']} "
            f"orphaned, {counts['unclaimed']} unclaimed){errors}; run any worker over "
            f"this directory, or re-run the shard that owns them, before merging"
        )
    aggregates = {
        point.label: distributed.fold_point(
            plan, point.index, ((summary.index, summary) for summary in point.summaries)
        )
        for point in points
    }
    shard_count = max(len(find_worker_manifests(out)), 1)
    return MergedSweep(plan=plan, shard_count=shard_count, aggregates=aggregates)
