"""Algorithm 1: the ``msg_exchange`` all-to-all communication pattern.

The pattern broadcasts ``(r, ph, est)`` and then waits until it has heard,
*directly or by cluster attribution*, from a strict majority of the
processes.  Cluster attribution is the heart of the paper: when a message
``(r, ph, v)`` from process ``p_j ∈ P[x]`` is received, it is accounted as if
the very same message had been received from every member of ``P[x]`` --
which is sound because the per-cluster consensus objects guarantee that no
two members of a cluster broadcast different values in the same phase
("one for all and all for one").

The pattern also watches for ``DECIDE`` messages so that a process whose
peers have already decided (and stopped sending phase messages) cannot block
forever.

:func:`scan_mailbox` is the reference reading of a mailbox.  The wait
itself is answered by a :class:`QuorumIndex`, which files each delivered
message once instead of rescanning the append-only mailbox on every
delivery, and must answer every query exactly as the scan would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Sequence

from ..adversary.faults import TamperedPayload
from ..sim.context import ProbeMailbox
from .base import BOT, DecideMessage, PhaseMessage, ProcessEnvironment


@dataclass(frozen=True)
class ExchangeOutcome:
    """Result of one ``msg_exchange`` invocation.

    ``kind`` is ``"supporters"`` for a normal completion (a majority of
    processes heard from) or ``"decide"`` when a ``DECIDE`` message
    short-circuited the wait.
    """

    kind: str
    round_number: int
    phase: int
    supporters: Dict[Any, FrozenSet[int]] = field(default_factory=dict)
    heard: FrozenSet[int] = frozenset()
    values_received: FrozenSet[Any] = frozenset()
    decide_value: Optional[int] = None

    @property
    def is_decide(self) -> bool:
        return self.kind == "decide"

    def supporters_of(self, value: Any) -> FrozenSet[int]:
        """Processes (after cluster attribution) supporting ``value``."""
        return self.supporters.get(value, frozenset())

    def majority_value(self, topology) -> Optional[int]:
        """A binary value supported by a strict majority, if any.

        At most one such value can exist because two strict majorities always
        intersect (weak agreement WA1 of the paper).
        """
        for value in (0, 1):
            if topology.is_majority(len(self.supporters_of(value))):
                return value
        return None


def scan_mailbox(
    mailbox: Sequence[Any],
    env: ProcessEnvironment,
    tag: str,
    round_number: int,
    phase: int,
    expand_clusters: bool = True,
) -> ExchangeOutcome:
    """Build the (partial) exchange outcome visible in ``mailbox``.

    With ``expand_clusters`` (the default) a message from ``p_j`` is
    attributed to every member of ``cluster(j)`` -- the paper's rule, which
    is only sound when cluster consensus makes clusters univalent per phase.
    The pure message-passing baselines pass ``False`` to attribute messages
    to their senders only.

    This helper is exposed separately so that tests and the property-based
    suite can exercise the attribution logic on hand-built mailboxes.
    """
    topology = env.topology
    supporters: Dict[Any, set] = {}
    heard: set = set()
    values: set = set()
    for message in mailbox:
        payload = message.payload
        # Authentication modelling: a payload a corruption fault mutated in
        # transit arrives wrapped in TamperedPayload when messages are
        # signed.  The signature check fails, so the receiver discards the
        # message -- an authenticated-channel Byzantine mutation degrades to
        # an omission and never reaches the protocol logic.
        if isinstance(payload, TamperedPayload):
            continue
        if isinstance(payload, DecideMessage) and payload.tag == tag:
            return ExchangeOutcome(
                kind="decide",
                round_number=round_number,
                phase=phase,
                decide_value=payload.value,
            )
        if not isinstance(payload, PhaseMessage):
            continue
        if payload.tag != tag or payload.round_number != round_number or payload.phase != phase:
            continue
        if expand_clusters:
            members = topology.cluster_of(message.sender)
        else:
            members = frozenset((message.sender,))
        supporters.setdefault(payload.est, set()).update(members)
        heard.update(members)
        values.add(payload.est)
    return ExchangeOutcome(
        kind="supporters",
        round_number=round_number,
        phase=phase,
        supporters={value: frozenset(pids) for value, pids in supporters.items()},
        heard=frozenset(heard),
        values_received=frozenset(values),
    )


class _Bucket:
    """The messages one process has received for one ``(tag, round, phase)``.

    ``heard`` counts toward the majority as messages arrive; the outcome is
    built only on a hit, by :func:`scan_mailbox` over ``messages``.  Those
    are exactly the mailbox's messages for the key, in mailbox order, so
    the outcome comes out identical to a scan of the whole mailbox.
    """

    __slots__ = ("heard", "messages")

    def __init__(self) -> None:
        self.heard: set = set()
        self.messages: list = []


#: Marks a key whose wait has returned: its bucket is gone for good.
_RETIRED = _Bucket()


class QuorumIndex:
    """Incremental ``msg_exchange`` state of one process's live mailbox.

    Each :meth:`answer` first files the messages appended since the last
    call into per-``(tag, round, phase)`` buckets and records the first
    ``DECIDE`` message per tag, so over a run every delivered message is
    examined once (``folded`` counts them).  A miss then costs one bucket
    lookup and a length test; the :class:`ExchangeOutcome` is built only on
    a hit.  A hit retires its key -- the wait it answered is over -- so its
    bucket is dropped and later messages for it are not filed.

    Every answer is what :func:`scan_mailbox` gives on the sequence passed
    in when that ends the wait (a decide, or a strict majority heard), and
    ``None`` otherwise.  Any sequence other than the bound live mailbox,
    and any retired key, gets the scan itself; a
    :class:`~repro.sim.context.ProbeMailbox` over the live mailbox is
    answered from the bucket plus the one extra message, without filing it.
    """

    __slots__ = ("mailbox", "env", "expand_clusters", "folded", "_quorum", "_buckets", "_decides")

    def __init__(self, mailbox: Sequence[Any], env: ProcessEnvironment, expand_clusters: bool) -> None:
        self.mailbox = mailbox
        self.env = env
        self.expand_clusters = expand_clusters
        self.folded = 0
        self._quorum = env.topology.majority_threshold()
        self._buckets: Dict[tuple, _Bucket] = {}
        #: tag -> the first DECIDE message for it in the mailbox.
        self._decides: Dict[str, Any] = {}

    def fold(self) -> None:
        """File every message appended to the live mailbox since the last call."""
        new = self.mailbox[self.folded :]
        self.folded += len(new)
        buckets = self._buckets
        expand = self.expand_clusters
        cluster_of = self.env.topology.cluster_of
        for message in new:
            payload = message.payload
            # A TamperedPayload is neither kind, so a message that failed
            # authentication is dropped exactly as scan_mailbox drops it.
            if isinstance(payload, PhaseMessage):
                key = (payload.tag, payload.round_number, payload.phase)
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = _Bucket()
                elif bucket is _RETIRED:
                    continue
                sender = message.sender
                bucket.heard.update(cluster_of(sender) if expand else (sender,))
                bucket.messages.append(message)
            elif isinstance(payload, DecideMessage):
                self._decides.setdefault(payload.tag, message)

    def answer(self, mailbox: Sequence[Any], key: tuple) -> Optional[ExchangeOutcome]:
        """The ``msg_exchange`` wait answer for ``key`` on ``mailbox``."""
        live = self.mailbox
        buckets = self._buckets
        if mailbox is live:
            if len(live) > self.folded:
                self.fold()
            bucket = buckets.get(key)
            if bucket is not _RETIRED:
                if key[0] not in self._decides and (bucket is None or len(bucket.heard) < self._quorum):
                    return None
                buckets[key] = _RETIRED
                return self._outcome(key, bucket.messages if bucket is not None else ())
        elif type(mailbox) is ProbeMailbox and mailbox.base is live and buckets.get(key) is not _RETIRED:
            return self._probe(mailbox.extra, key)
        return self._scan(mailbox, key)

    def _probe(self, message: Any, key: tuple) -> Optional[ExchangeOutcome]:
        """The answer with ``message`` appended, leaving the index as it was."""
        if len(self.mailbox) > self.folded:
            self.fold()
        bucket = self._buckets.get(key)
        heard = bucket.heard if bucket is not None else ()
        messages = bucket.messages if bucket is not None else ()
        payload = message.payload
        if key[0] in self._decides:
            return self._outcome(key, messages)
        if isinstance(payload, DecideMessage) and payload.tag == key[0]:
            return self._outcome(key, [message])
        if isinstance(payload, PhaseMessage) and (
            payload.tag,
            payload.round_number,
            payload.phase,
        ) == key:
            sender = message.sender
            members = self.env.topology.cluster_of(sender) if self.expand_clusters else (sender,)
            if len(heard) + sum(1 for pid in members if pid not in heard) < self._quorum:
                return None
            return self._outcome(key, [*messages, message])
        if len(heard) < self._quorum:
            return None
        return self._outcome(key, messages)

    def _outcome(self, key: tuple, messages: Sequence[Any]) -> ExchangeOutcome:
        """The outcome of a complete wait: a scan of the tag's first DECIDE, else of ``messages``."""
        decide = self._decides.get(key[0])
        return scan_mailbox(
            messages if decide is None else [decide], self.env, *key, self.expand_clusters
        )

    def _scan(self, mailbox: Sequence[Any], key: tuple) -> Optional[ExchangeOutcome]:
        """The reference answer: :func:`scan_mailbox`, if it ends the wait."""
        outcome = scan_mailbox(mailbox, self.env, *key, self.expand_clusters)
        if outcome.is_decide or self.env.topology.is_majority(len(outcome.heard)):
            return outcome
        return None


def msg_exchange(
    ctx,
    env: ProcessEnvironment,
    round_number: int,
    phase: int,
    est: Any,
    tag: str,
    expand_clusters: bool = True,
):
    """The paper's ``msg_exchange(r, ph, est)`` (a generator).

    Broadcasts the phase message, then blocks until either a ``DECIDE``
    message for this instance arrives or the processes heard from (with
    cluster attribution, unless ``expand_clusters`` is ``False``) form a
    strict majority.  Returns the corresponding :class:`ExchangeOutcome`.
    The wait is answered by the process's :class:`QuorumIndex` over
    ``ctx.mailbox``.
    """
    if est not in (0, 1, BOT):
        raise ValueError(f"est must be 0, 1 or ⊥, got {est!r}")
    yield from ctx.broadcast(PhaseMessage(tag=tag, round_number=round_number, phase=phase, est=est))

    mailbox = ctx.mailbox
    index = env.quorum_indexes.get(expand_clusters)
    if index is None or index.mailbox is not mailbox:
        index = env.quorum_indexes[expand_clusters] = QuorumIndex(mailbox, env, expand_clusters)
    key = (tag, round_number, phase)

    def predicate(mailbox: Sequence[Any]) -> Optional[ExchangeOutcome]:
        return index.answer(mailbox, key)

    outcome = yield from ctx.wait_until(predicate)
    return outcome
