"""Bit-identity of the refactored kernel against the pre-refactor fixture.

``tests/golden/kernel_summaries.json`` froze every ``RunSummary`` of the
small e1-e9 sweep plans (``tests.helpers.golden_plans``) as produced by the
PRE-refactor kernel -- dataclass queue entries, per-call delay sampling, no
``__slots__``.  This test recomputes the same runs on the current kernel and
asserts every summary matches exactly: floats are compared through their
``float.hex()`` serialisation, so "close" is not good enough.  (The e11 and
e10 entries were appended later, each regenerated against a green current
kernel with every earlier entry byte-identical, to pin the empirical-delay
sampling path and the adaptive adversary's per-event deferrals the same
way.)

The fixture spans every kernel-exercising experiment (e1-e11), including
the adversarial scenarios (e9), the adaptive adversaries (e10), the
empirical-delay resilience runs (e11) and
the shard/steal merge inputs (per-run summaries + priorities are
exactly what the distributed coordinator merges), so a green run here is the
acceptance evidence that the hot-path refactor changed no observable
behaviour.  Regenerate the fixture only for a deliberate, understood
behaviour change: ``python scripts/gen_golden_summaries.py``.
"""

import json
import pathlib

import pytest

from tests.helpers import GOLDEN_EXPERIMENTS, compute_golden_summaries

FIXTURE = pathlib.Path(__file__).parent / "golden" / "kernel_summaries.json"


@pytest.fixture(scope="module")
def golden_fixture():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current_summaries():
    return compute_golden_summaries()


def test_fixture_exists_and_covers_all_experiments(golden_fixture):
    assert golden_fixture["format"] == 1
    assert sorted(golden_fixture["experiments"]) == sorted(GOLDEN_EXPERIMENTS)


def test_priority_backend_matches(golden_fixture, current_summaries):
    """Priorities are comparable only when computed by the same backend."""
    assert current_summaries["priority_backend"] == golden_fixture["priority_backend"]


@pytest.mark.parametrize("experiment", GOLDEN_EXPERIMENTS)
def test_kernel_reproduces_prerefactor_summaries(golden_fixture, current_summaries, experiment):
    expected_points = golden_fixture["experiments"][experiment]
    actual_points = current_summaries["experiments"][experiment]
    assert len(actual_points) == len(expected_points)
    for expected, actual in zip(expected_points, actual_points):
        assert actual["label"] == expected["label"]
        # Compare run by run for a readable diff on mismatch; the dicts
        # already serialise floats as exact float.hex() strings.
        assert len(actual["runs"]) == len(expected["runs"])
        for expected_run, actual_run in zip(expected["runs"], actual["runs"]):
            assert actual_run == expected_run, (
                f"{experiment}/{expected['label']} seed={expected_run['seed']}: "
                "summary diverged from the pre-refactor kernel"
            )
