"""Outside-in tracing: spans around the public entry points of each package.

Nothing under ``src/`` knows about this module.  :func:`instrument`
patches the entry points the simulator, protocol, network, shared-memory,
adversary, search and harness layers expose -- for the duration of a
``with`` block only -- so that every call records one span in a
:class:`Tracer`.  Spans nest through a stack: a span's *self time* is its
duration minus the time its child spans cover, so a wait predicate that the
adaptive adversary evaluates inside ``Adversary.defer`` is billed to the
protocol layer, not to the adversary.

The wrappers return exactly what the wrapped call returns, so a traced
pass computes the same results as an untraced one; the benchmark's tests
check that the digests agree.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

#: The span every consensus run (or search schedule) is recorded under;
#: entering it starts a new run id shared by the spans nested inside.
RUN_SPAN = "harness.run"


class Tracer:
    """In-memory span recorder with per-name call counts and self times.

    ``calls``, ``total`` and ``self_time`` are keyed by span name;
    ``counts`` holds the work counters recorded at the same boundaries
    (events, mailbox entries examined, bytes sent).  With ``keep_spans``
    each finished span is also kept as a ``(id, parent, run, name, start,
    end)`` tuple for :meth:`dump_jsonl`.  ``clock`` reads the time in
    seconds.
    """

    def __init__(
        self, keep_spans: bool = False, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.keep_spans = keep_spans
        self.clock = clock
        self._stack: List[List[Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[int, Optional[int], Optional[int], str, float, float]] = []
        self.run_id: Optional[int] = None
        self._next_id = 0
        self._next_run = 0

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span called ``name``."""
        stack = self._stack
        clock = self.clock
        tracer = self
        starts_run = name == RUN_SPAN

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else None
            if starts_run:
                tracer.run_id = tracer._next_run
                tracer._next_run += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append(
                        (span_id, parent[0] if parent else None, tracer.run_id, name, start, end)
                    )

        return traced

    def totals(self) -> Dict[str, Dict[str, float]]:
        """The aggregates recorded so far, as plain dicts."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
        }

    def absorb(self, delta: Dict[str, Dict[str, float]]) -> None:
        """Add another tracer's :meth:`totals` (e.g. a pool worker's)."""
        for field in ("calls", "total", "self_time", "counts"):
            mine = getattr(self, field)
            for name, value in delta[field].items():
                mine[name] += value

    def dump_jsonl(self, path: Path, append: bool = False) -> int:
        """Write the kept spans, one JSON object per line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a" if append else "w") as out:
            for span_id, parent, run, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "run": run, "name": name,
                         "start": start, "end": end}
                    )
                )
                out.write("\n")
        return len(self.spans)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans around every layer's public entry points inside the block.

    ============================  =========================================
    span                          entry point
    ============================  =========================================
    ``sim.run``                   ``SimulationKernel.run`` (+ events, bytes)
    ``core.predicate``            the predicate ``ProcessContext.wait_until``
                                  receives (+ non-``None`` results, mailbox
                                  entries examined)
    ``sharedmem.op``              the operation ``ProcessContext.sm_op``
                                  receives
    ``network.transmit``          ``Network.transmit``
    ``adversary.defer``           ``defer`` of an installed adversary
    ``adversary.send_hook``       its ``deliveries`` and ``corrupt``
    ``search.choose``             ``choose`` of an installed controller
    ``harness.prepare``           ``prepare_consensus``
    ``harness.finalize``          ``PreparedRun.finalize``, and the search's
                                  ``verify_run``
    ``harness.fold``              ``distributed.fold_point``
    ``harness.claim``             ``coordinator.try_claim`` / ``try_steal``
    ``harness.checkpoint``        ``WorkStealingScheduler.complete``
    ``harness.pool_wait``         ``coordinator.execute_point``
    ``harness.merge``             ``coordinator.merge_stolen``
    ============================  =========================================
    """
    from repro.harness import coordinator, distributed, runner
    from repro.network.transport import Network
    from repro.search import explorer
    from repro.sim.context import ProcessContext
    from repro.sim.kernel import SimulationKernel

    span = tracer.span
    counts = tracer.counts

    kernel_run = span("sim.run", SimulationKernel.run)

    def run(kernel):
        result = kernel_run(kernel)
        counts["sim.events"] += result.events_processed
        if kernel.network is not None:
            counts["network.bytes_sent"] += kernel.network.stats.bytes_sent
        return result

    def traced_predicate(predicate):
        def counted(mailbox):
            counts["core.mailbox_seen"] += len(mailbox)
            outcome = predicate(mailbox)
            if outcome is not None:
                counts["core.predicate_hits"] += 1
            return outcome

        return span("core.predicate", counted)

    wait_until = ProcessContext.wait_until
    sm_op = ProcessContext.sm_op
    install_adversary = SimulationKernel.install_adversary
    install_controller = SimulationKernel.install_schedule_controller

    def traced_install_adversary(kernel, adversary):
        adversary.defer = span("adversary.defer", adversary.defer)
        adversary.deliveries = span("adversary.send_hook", adversary.deliveries)
        adversary.corrupt = span("adversary.send_hook", adversary.corrupt)
        return install_adversary(kernel, adversary)

    def traced_install_controller(kernel, controller):
        controller.choose = span("search.choose", controller.choose)
        return install_controller(kernel, controller)

    patches = [
        (SimulationKernel, "run", run),
        (SimulationKernel, "install_adversary", traced_install_adversary),
        (SimulationKernel, "install_schedule_controller", traced_install_controller),
        (ProcessContext, "wait_until",
         lambda ctx, predicate: wait_until(ctx, traced_predicate(predicate))),
        (ProcessContext, "sm_op",
         lambda ctx, operation, *args: sm_op(ctx, span("sharedmem.op", operation), *args)),
        (Network, "transmit", span("network.transmit", Network.transmit)),
        (runner, "prepare_consensus", span("harness.prepare", runner.prepare_consensus)),
        (explorer, "prepare_consensus", span("harness.prepare", explorer.prepare_consensus)),
        (runner.PreparedRun, "finalize", span("harness.finalize", runner.PreparedRun.finalize)),
        (explorer, "verify_run", span("harness.finalize", explorer.verify_run)),
        (distributed, "fold_point", span("harness.fold", distributed.fold_point)),
        (coordinator, "try_claim", span("harness.claim", coordinator.try_claim)),
        (coordinator, "try_steal", span("harness.claim", coordinator.try_steal)),
        (coordinator.WorkStealingScheduler, "complete",
         span("harness.checkpoint", coordinator.WorkStealingScheduler.complete)),
        (coordinator, "execute_point", span("harness.pool_wait", coordinator.execute_point)),
        (coordinator, "merge_stolen", span("harness.merge", coordinator.merge_stolen)),
    ]
    with ExitStack() as stack:
        for target, attribute, replacement in patches:
            stack.enter_context(mock.patch.object(target, attribute, replacement))
        yield tracer
