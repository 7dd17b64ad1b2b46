"""Observability layer for sweeps: telemetry, live serving, incremental merge.

The :mod:`repro.obs` package turns a running sweep into a queryable
workload instead of a batch job:

- :mod:`repro.obs.telemetry` -- a lightweight counters/gauges/timers
  registry sampled by sweep workers; snapshots ride the coordinator's
  existing lease heartbeats and worker manifests.
- :mod:`repro.obs.merge` -- :class:`~repro.obs.merge.IncrementalMerger`,
  which folds per-point checkpoints as they land and guarantees the
  partial aggregate of a completed prefix is bit-identical to
  :func:`~repro.harness.coordinator.merge_stolen` over the same points.
- :mod:`repro.obs.serve` -- the ``python -m repro serve`` HTTP service
  (``/status``, ``/progress``, ``/workers``, ``/aggregate``) and the
  text renderer shared with ``python -m repro status --watch``.

Structured execution tracing (the JSONL trace schema and the kernel's
``trace_sink`` option) lives with the kernel in :mod:`repro.sim.trace`;
``docs/observability.md`` documents the whole layer.
"""

from .telemetry import Telemetry, merge_snapshots

__all__ = ["IncrementalMerger", "Telemetry", "merge_snapshots"]


def __getattr__(name: str):
    """Lazily resolve the merge-layer export.

    The harness coordinator imports :mod:`repro.obs.telemetry` while
    :mod:`repro.obs.merge` imports the coordinator; loading ``merge``
    eagerly here would close that loop during the coordinator's own
    import.  Deferring it keeps ``from repro.obs import IncrementalMerger``
    working without the cycle.
    """
    if name == "IncrementalMerger":
        from .merge import IncrementalMerger

        return IncrementalMerger
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
