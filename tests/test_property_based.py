"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import SyncContext, drive, make_message

from repro.adversary.faults import TamperedPayload
from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.core.base import BOT, DecideMessage, PhaseMessage, ProcessEnvironment
from repro.core.pattern import QuorumIndex, scan_mailbox
from repro.harness.runner import ExperimentConfig, run_consensus
from repro.harness.stats import percentile, summarize
from repro.sharedmem.consensus_object import CASConsensusObject, LLSCConsensusObject
from repro.sim.context import ProbeMailbox
from repro.sim.rng import RandomSource


# ----------------------------------------------------------------------- helpers
@st.composite
def partitions(draw, max_n=12):
    """A random partition of 0..n-1 into non-empty clusters."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pids = list(range(n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    rng.shuffle(pids)
    clusters = []
    index = 0
    while index < n:
        size = rng.randint(1, n - index)
        clusters.append(pids[index : index + size])
        index += size
    return clusters


# --------------------------------------------------------------------- topology
@given(partitions())
@settings(max_examples=60, deadline=None)
def test_topology_partition_invariants(clusters):
    topology = ClusterTopology(clusters)
    # Every process belongs to exactly one cluster and cluster_of round-trips.
    seen = set()
    for index, members in enumerate(topology.clusters):
        for pid in members:
            assert topology.cluster_index_of(pid) == index
            assert pid not in seen
            seen.add(pid)
    assert seen == set(range(topology.n))
    assert sum(topology.cluster_sizes) == topology.n
    # A strict majority never fits twice in n processes.
    threshold = topology.majority_threshold()
    assert topology.is_majority(threshold)
    assert not topology.is_majority(threshold - 1)
    assert 2 * threshold > topology.n


@given(partitions(), st.sets(st.integers(min_value=0, max_value=11)))
@settings(max_examples=60, deadline=None)
def test_termination_condition_monotone_in_correct_set(clusters, extra):
    topology = ClusterTopology(clusters)
    correct = {pid for pid in extra if pid < topology.n}
    holds = topology.termination_condition_holds(correct)
    # Adding more correct processes can only help.
    for pid in range(topology.n):
        if topology.termination_condition_holds(correct | {pid}) is False:
            assert not holds or pid in correct or True
    assert topology.termination_condition_holds(set(range(topology.n))) or topology.n == 0
    if holds:
        assert topology.termination_condition_holds(set(range(topology.n)))
    if not correct:
        assert not holds


@given(partitions())
@settings(max_examples=40, deadline=None)
def test_majority_cluster_condition_equivalence(clusters):
    topology = ClusterTopology(clusters)
    index = topology.majority_cluster_index()
    if index is not None:
        # One correct process inside the majority cluster suffices.
        survivor = next(iter(topology.cluster_members(index)))
        assert topology.termination_condition_holds({survivor})


# --------------------------------------------------------------- failure patterns
@given(
    partitions(),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_violate_termination_condition_always_succeeds(clusters, seed):
    topology = ClusterTopology(clusters)
    pattern = FailurePattern.violate_termination_condition(topology)
    assert not pattern.allows_termination(topology)
    # And the pattern never crashes a process twice or outside the range.
    assert all(0 <= pid < topology.n for pid in pattern.crashed)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=30), st.integers())
@settings(max_examples=50, deadline=None)
def test_random_crash_pattern_counts(n, count, seed):
    count = min(count, n)
    pattern = FailurePattern.random_crashes(random.Random(seed), n, count)
    assert pattern.crash_count() == count
    assert pattern.correct(n) == set(range(n)) - pattern.crashed


# ---------------------------------------------------------------- pattern scanning
@given(
    partitions(max_n=10),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.sampled_from([0, 1, "BOT"])),
        max_size=25,
    ),
)
@settings(max_examples=60, deadline=None)
def test_scan_mailbox_supporters_are_unions_of_clusters(clusters, raw_messages):
    topology = ClusterTopology(clusters)
    env = ProcessEnvironment(pid=0, proposal=0, topology=topology)
    mailbox = []
    senders_seen = set()
    cluster_value = {}
    for sender, value in raw_messages:
        if sender >= topology.n or sender in senders_seen:
            # In the crash-failure model a process broadcasts a single value
            # per (round, phase); keep only its first message.
            continue
        senders_seen.add(sender)
        est = BOT if value == "BOT" else value
        # Cluster consensus makes clusters univalent per phase: members of an
        # already-heard cluster repeat the cluster's value.
        cluster_index = topology.cluster_index_of(sender)
        est = cluster_value.setdefault(cluster_index, est)
        mailbox.append(make_message(sender, PhaseMessage(tag="t", round_number=1, phase=1, est=est)))
    outcome = scan_mailbox(mailbox, env, "t", 1, 1)
    # Heard set is exactly the union of the senders' clusters.
    expected_heard = set()
    for message in mailbox:
        expected_heard |= topology.cluster_of(message.sender)
    assert outcome.heard == frozenset(expected_heard)
    # Supporters of every value are unions of whole clusters.
    for value, supporters in outcome.supporters.items():
        for pid in supporters:
            assert topology.cluster_of(pid) <= supporters
    # A value's supporters never exceed the heard set.
    for supporters in outcome.supporters.values():
        assert supporters <= outcome.heard
    # At most one binary value can hold a strict majority.
    majorities = [v for v in (0, 1) if topology.is_majority(len(outcome.supporters_of(v)))]
    assert len(majorities) <= 1


#: The (tag, round, phase) instances the quorum-index test draws from and queries.
_INDEX_KEYS = [(tag, r, ph) for tag in ("t", "u") for r in (1, 2) for ph in (1, 2)]


@st.composite
def mailbox_entries(draw, n):
    """One delivered message: a phase message, a duplicate, a tampered or a decide."""
    kind = draw(st.sampled_from(["phase", "phase", "phase", "duplicate", "tampered", "decide"]))
    sender = draw(st.integers(min_value=0, max_value=n - 1))
    if kind == "decide":
        decide = DecideMessage(tag=draw(st.sampled_from(["t", "u"])), value=draw(st.sampled_from([0, 1])))
        return kind, make_message(sender, decide)
    tag, round_number, phase = draw(st.sampled_from(_INDEX_KEYS))
    payload = PhaseMessage(tag, round_number, phase, draw(st.sampled_from([0, 1, BOT])))
    if kind == "tampered":
        payload = TamperedPayload(original=payload, mutated=payload)
    return kind, make_message(sender, payload)


def _scan_answer(mailbox, env, key, expand_clusters):
    """The reference answer of a ``msg_exchange`` wait: the scan, if complete."""
    outcome = scan_mailbox(mailbox, env, *key, expand_clusters=expand_clusters)
    if outcome.is_decide or env.topology.is_majority(len(outcome.heard)):
        return outcome
    return None


@given(partitions(max_n=7), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_quorum_index_answers_exactly_like_the_scan(clusters, data):
    topology = ClusterTopology(clusters)
    env = ProcessEnvironment(pid=0, proposal=0, topology=topology)
    entries = data.draw(st.lists(mailbox_entries(topology.n), max_size=24))
    live = []
    # ``probed`` also answers foreign sequences and probes; ``plain`` only
    # ever sees the live mailbox.  Both must answer every query like the scan.
    probed = {expand: QuorumIndex(live, env, expand) for expand in (True, False)}
    plain = {expand: QuorumIndex(live, env, expand) for expand in (True, False)}
    for kind, message in entries:
        if kind == "duplicate" and live:
            message = live[data.draw(st.integers(min_value=0, max_value=len(live) - 1))]
        live.append(message)
        extra = data.draw(mailbox_entries(topology.n))[1]
        # Waits start at different times: a key first queried late must see
        # everything filed before, e.g. the first of several DECIDEs.
        keys = data.draw(st.lists(st.sampled_from(_INDEX_KEYS), max_size=4, unique=True))
        for expand in (True, False):
            for key in keys:
                for other in (list(live), live[:-1], [message, extra]):
                    assert probed[expand].answer(other, key) == _scan_answer(other, env, key, expand)
                view = ProbeMailbox(live, extra)
                assert probed[expand].answer(view, key) == _scan_answer(list(view), env, key, expand)
                expected = _scan_answer(live, env, key, expand)
                # A hit retires the key: from then on the index must fall back
                # to the scan, so the same expected answer still holds.
                assert probed[expand].answer(live, key) == expected
                assert plain[expand].answer(live, key) == expected
                assert probed[expand].folded == plain[expand].folded == len(live)
    for expand in (True, False):
        for key in _INDEX_KEYS:
            expected = _scan_answer(live, env, key, expand)
            assert probed[expand].answer(live, key) == plain[expand].answer(live, key) == expected


# -------------------------------------------------------------- consensus objects
@given(
    st.lists(st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=1)),
             min_size=1, max_size=8),
    st.sampled_from(["cas", "llsc"]),
)
@settings(max_examples=60, deadline=None)
def test_consensus_object_agreement_validity_any_schedule(proposals, kind):
    factory = CASConsensusObject if kind == "cas" else LLSCConsensusObject
    obj = factory("prop", members=set(range(8)))
    decisions = []
    proposed_values = []
    for pid, value in proposals:
        proposed_values.append(value)
        decisions.append(drive(obj.propose(SyncContext(pid=pid), value)))
    assert len(set(decisions)) == 1
    assert decisions[0] in proposed_values
    assert decisions[0] == proposed_values[0]  # first proposal wins under sequential schedule


# ------------------------------------------------------------------------- stats
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_summary_statistics_invariants(values):
    stats = summarize(values)
    tolerance = 1e-9 * max(1.0, abs(stats.minimum), abs(stats.maximum))
    assert stats.minimum <= stats.median <= stats.maximum
    assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
    assert stats.std >= 0
    assert stats.count == len(values)
    assert stats.minimum <= stats.p90 <= stats.maximum
    assert stats.ci95[0] <= stats.mean <= stats.ci95[1]


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=0, max_value=100),
)
@settings(max_examples=80, deadline=None)
def test_percentile_bounds_and_monotonicity(values, q):
    value = percentile(values, q)
    assert min(values) <= value <= max(values)
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)


# ----------------------------------------------------------------------- rng
@given(st.integers(min_value=0, max_value=2**32), st.text(min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_rng_streams_reproducible_for_any_seed_and_name(seed, name):
    a = RandomSource(seed).stream(name)
    b = RandomSource(seed).stream(name)
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]


# --------------------------------------------------------- end-to-end (sampled)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=50),
    st.sampled_from(["hybrid-local-coin", "hybrid-common-coin"]),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_small_configurations_satisfy_consensus(n, m, seed, algorithm):
    m = min(m, n)
    topology = ClusterTopology.even_split(n, m)
    proposals = {pid: (pid * 7 + seed) % 2 for pid in range(n)}
    result = run_consensus(
        ExperimentConfig(topology=topology, algorithm=algorithm, proposals=proposals, seed=seed)
    )
    result.report.raise_on_violation()
    assert result.decided_value in set(proposals.values())
