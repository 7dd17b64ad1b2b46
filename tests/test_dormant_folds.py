"""The dormant-hook folds behind the <2% overhead gates, checked on every Python.

``benchmarks/dormant.py`` derives each gate's hook-free baseline by parsing
the live kernel and context sources and folding named conditions away.  The
gates themselves only run in the benchmark suite; these tests pin, on every
interpreter in the CI matrix, that each named condition still exists in the
live source and that a folded run equals the live run while the hooks are
dormant.
"""

import dataclasses

import pytest

from benchmarks.dormant import ADVERSARY_FOLDS, OBS_FOLDS, fold_dormant, patch_dormant
from repro.harness.aggregate import RunSummary
from repro.harness.runner import run_consensus
from repro.sim.kernel import SimulationKernel
from tests.helpers import GOLDEN_SEEDS, golden_plans

FOLD_SETS = {"adversary": ADVERSARY_FOLDS, "obs": OBS_FOLDS}


def _golden_e9_config(drop_adversary):
    point = golden_plans()["e9"].points[0]
    config = point.config.with_seed(GOLDEN_SEEDS[0])
    assert config.scenario is not None
    return dataclasses.replace(config, scenario=None) if drop_adversary else config


def _summary(config):
    return RunSummary.from_result(run_consensus(config), 0, 0.0)


@pytest.mark.parametrize("name", sorted(FOLD_SETS))
def test_every_named_condition_folds_against_the_live_source(name):
    for owner, method, conditions in FOLD_SETS[name]:
        assert callable(fold_dormant(getattr(owner, method), conditions))


def test_a_missing_condition_raises():
    with pytest.raises(ValueError, match="adversary_is_gone"):
        fold_dormant(SimulationKernel.run_batch, {"adversary_is_gone": False})


@pytest.mark.parametrize("name", sorted(FOLD_SETS))
def test_folded_run_of_a_golden_e9_point_equals_the_live_run(name, monkeypatch):
    """With the hooks dormant, folding them away changes nothing observable.

    The adversary folds strip the very hooks the e9 scenario drives, so that
    set runs the point's configuration without its adversary; the obs folds
    run the point as planned, adversary included.
    """
    config = _golden_e9_config(drop_adversary=name == "adversary")
    live = _summary(config)
    patch_dormant(monkeypatch, FOLD_SETS[name])
    assert _summary(config) == live
