"""A frozen reference workload that measures the host's speed right now.

Shared hosts change speed from one minute to the next (other tenants,
frequency scaling), by more than the differences the benchmark must
detect.  The benchmark therefore interleaves this fixed workload with its
passes and reports timings at a nominal host speed: a raw time ``t``,
measured while the reference took ``r`` seconds on average, is reported
as ``t * NOMINAL_SECONDS / r``.

The reference is a miniature of the simulator's hot path written out in
full here -- generator processes, an event heap, per-process mailboxes
scanned by a wait predicate -- so that it slows down with the host the
way the simulator does, and no change to the repository can change it.
Do not edit it: every recorded timing is relative to it.
"""

import heapq
import time

#: Reference wall time on the nominal host the reported timings are scaled to.
NOMINAL_SECONDS = 0.04

_N = 20
_ROUNDS = 15


class _Message:
    __slots__ = ("sender", "round", "value")

    def __init__(self, sender, round_number, value):
        self.sender = sender
        self.round = round_number
        self.value = value


def _process(pid, mailbox):
    value = pid % 2
    for round_number in range(_ROUNDS):
        yield ("broadcast", _Message(pid, round_number, value))

        def heard(box, round_number=round_number):
            senders = {m.sender for m in box if m.round == round_number}
            return len(senders) if len(senders) == _N else None

        yield ("wait", heard)
        value = sum(m.value for m in mailbox if m.round == round_number) * 2 > _N


def _simulate():
    mailboxes = [[] for _ in range(_N)]
    processes = [_process(pid, mailboxes[pid]) for pid in range(_N)]
    waiting = [None] * _N
    queue = [(0.0, pid, pid, None) for pid in range(_N)]
    sequence = _N
    state = 12345
    events = 0
    while queue:
        now, _, pid, message = heapq.heappop(queue)
        events += 1
        if message is not None:
            mailboxes[pid].append(message)
            if waiting[pid] is None or waiting[pid](mailboxes[pid]) is None:
                continue
            waiting[pid] = None
        try:
            kind, payload = next(processes[pid])
        except StopIteration:
            continue
        if kind == "broadcast":
            for dest in range(_N):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                sequence += 1
                heapq.heappush(queue, (now + 1.0 + state / 0x7FFFFFFF, sequence, dest, payload))
            sequence += 1
            heapq.heappush(queue, (now + 0.01, sequence, pid, None))
        elif payload(mailboxes[pid]) is None:
            waiting[pid] = payload
        else:
            sequence += 1
            heapq.heappush(queue, (now + 0.01, sequence, pid, None))
    return events


#: Events :func:`_simulate` processes; checked so that a broken run cannot pass as fast.
EVENTS = 6320


def reference_seconds() -> float:
    """Wall seconds of one run of the reference simulation."""
    start = time.perf_counter()
    events = _simulate()
    elapsed = time.perf_counter() - start
    if events != EVENTS:
        raise RuntimeError(f"reference simulation processed {events} events, not {EVENTS}")
    return elapsed
