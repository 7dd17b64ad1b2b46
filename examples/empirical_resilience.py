"""Empirical delays end to end: fit from measured RTTs, stress flaky hosts.

The production workflow behind experiment e11, in one script:

1. load a measured RTT dataset (the checked-in fixture mirrors the
   package-embedded reference dataset) and fit both trace-driven delay
   models -- the ECDF-grid :class:`~repro.network.EmpiricalDelay` and the
   :class:`~repro.network.ShiftedLogNormalDelay` -- rescaled to the
   simulator's unit-mean conventions (the CLI twin is
   ``python -m repro fit-delays tests/data/rtt_sample.csv --model empirical
   --unit-mean``);
2. build a small e11 plan sweeping those fitted models against
   crash-recovery fault schedules (a second host dying while the first is
   still recovering, and a two-replica loss window);
3. run it as two shards into a shared directory and merge -- then verify
   the merged aggregates are *bit-identical* to the single-host run;
4. build the e11 report, which demands a 100% safety rate *and* a 100%
   termination rate in every cell: these schedules always leave a majority
   able to return, so a stall is a finding.

The script exits nonzero if the merge is not bit-identical or the report
fails -- CI's examples-smoke job runs it on every push.

Run with:  python examples/empirical_resilience.py
"""

import tempfile
from pathlib import Path

from repro.experiments import e11_resilience
from repro.experiments.common import default_seeds
from repro.harness.coordinator import merge_stolen
from repro.harness.distributed import ShardSpec, run_plan, run_shard
from repro.network import fit_delay_model, load_rtt_samples

RTT_DATASET = Path(__file__).resolve().parent.parent / "tests" / "data" / "rtt_sample.csv"
SEEDS = default_seeds(2)


def main() -> None:
    # --- 1) fit the trace-driven delay models from measurements ------------
    samples = load_rtt_samples(RTT_DATASET)
    print(f"loaded {len(samples)} RTT samples from {RTT_DATASET.name} "
          f"(min {min(samples):.1f}ms, max {max(samples):.1f}ms)")
    for kind in ("empirical", "shifted-lognormal"):
        model = fit_delay_model(samples, kind=kind, unit_mean=True)
        print(f"  {kind:>17}: {model.describe()}")
    print()

    # --- 2) a small e11 plan over fitted delays x fault schedules ----------
    plan = e11_resilience.plan(
        seeds=SEEDS,
        scenarios=("kill-during-recovery", "replica-loss-2"),
        delays=("empirical", "shifted-lognormal"),
        round_cap=15,
    )
    print(f"plan {plan.key}: {len(plan.points)} sweep points x {len(plan.seeds)} seeds "
          f"= {plan.total_runs} runs  (fingerprint {plan.fingerprint()[:12]}...)")
    print()

    # --- 3) two shards, one merge, bit-identity against one host ----------
    with tempfile.TemporaryDirectory() as out_dir:
        for index in (1, 2):
            result = run_shard(plan, ShardSpec(index, 2), out_dir)
            print(f"shard {index}/2 ran {result.runs_executed} runs "
                  f"({len(result.executed)} sweep points checkpointed)")
        merged = merge_stolen(out_dir, e11_resilience.plan(
            seeds=SEEDS,
            scenarios=("kill-during-recovery", "replica-loss-2"),
            delays=("empirical", "shifted-lognormal"),
            round_cap=15,
        ))

    direct_aggregates = run_plan(plan)
    identical = all(
        merged.aggregates[point.label] == direct_aggregates[point.label]
        for point in plan.points
    )
    print(f"\nmerged aggregates equal the single-host run bit-for-bit: {identical}")

    # --- 4) the report gates on safety AND termination ---------------------
    report = e11_resilience.build_report(plan, merged.aggregates)
    print()
    print(report.format())
    if not (identical and report.passed):  # visible to CI's examples-smoke job
        raise SystemExit(1)


if __name__ == "__main__":
    main()
