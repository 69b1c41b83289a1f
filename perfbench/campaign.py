"""The campaign-recovery workload: fault-injection campaigns to a report.

``run_campaign`` with ``workers=1`` on ``bfs``, compiled for
high-variability STT-MRAM with MRA = 4.  One round runs one campaign per
recovery policy (``reread-vote``, ``degrade-mra``, ``checkpoint-replay``;
interpreted) plus the bare ``none`` policy on the vectorized engine, all
on the run's seed, each timed until its JSON report is written (in
reference seconds, see :class:`perfbench.common.Clock`).  The number of
rounds follows from the run's seconds; because every round replays the
same seed, every round must reproduce the same counters exactly.
"""

from __future__ import annotations

import dataclasses
import json

from perfbench.common import (
    STATE,
    Clock,
    Outcome,
    geomean,
    median,
    program_quality,
)

#: recovery policies campaigned each round (interpreted engine)
RECOVERY = ("reread-vote", "degrade-mra", "checkpoint-replay")
#: trials per recovery-policy campaign
RECOVERY_TRIALS = 40
#: trials of the bare ``none`` campaign (vectorized engine); sized so it
#: takes about as long as one recovery campaign
BARE_TRIALS = 2000
#: simulated lanes per trial
LANES = 16
#: about how long one round takes; a run campaigns ``seconds / ROUND_S``
#: rounds (at least one), a fixed amount of work
ROUND_S = 3.5


def prepare():
    """Set-up: compile the campaign program (bfs, STT-MRAM, MRA = 4)."""
    from repro.arch.target import TargetSpec
    from repro.core.compiler import compile_dag
    from repro.core.config import CompilerConfig
    from repro.devices import STT_MRAM
    from repro.workloads import get_workload

    tech = STT_MRAM.with_variability(0.12, 0.12)
    target = TargetSpec.square(64, tech, num_arrays=4, max_activated_rows=4)
    return compile_dag(get_workload("bfs").build_dag(), target,
                       CompilerConfig(mapper="sherlock", mra=4), cache=False)


def _campaign(program, policy: str, seed: int):
    """One campaign until its JSON report is on disk."""
    import repro.reliability.campaign as campaign

    trials = BARE_TRIALS if policy == "none" else RECOVERY_TRIALS
    engine = "vectorized" if policy == "none" else "interpreted"
    result = campaign.run_campaign(program, trials=trials, seed=seed,
                                   policy=policy, lanes=LANES, workers=1,
                                   engine=engine)
    report = dict(result.summary(), policy=policy, engine=engine,
                  decision_failures=result.decision_failures,
                  output_failures=result.output_failures,
                  stats=dataclasses.asdict(result.stats))
    path = STATE / "campaign" / f"{policy}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1))
    return result


def counters(result) -> dict:
    """The counters a fixed seed must reproduce exactly."""
    return {"decision_failures": result.decision_failures,
            "output_failures": result.output_failures,
            "injected_faults": result.injected_faults,
            **dataclasses.asdict(result.stats)}


def _problems(results: dict) -> list[str]:
    """The run's correctness checks on one round of results."""
    bare = results["none"]
    problems = []
    if not bare.analytic_within_interval:
        problems.append(
            f"none: analytic P_app {bare.analytic_p_app:.4f} outside the "
            f"decision interval {bare.decision_wilson}")
    for policy in RECOVERY:
        if results[policy].output_failure_rate > bare.output_failure_rate:
            problems.append(
                f"{policy}: output failure rate "
                f"{results[policy].output_failure_rate:.3f} above none's "
                f"{bare.output_failure_rate:.3f}")
    return problems


def run(program, seed: int, seconds: float, tracer=None) -> Outcome:
    """Campaign ``seconds / ROUND_S`` rounds (at least one)."""
    outcome = Outcome(tracer)
    clock = Clock(sample=True)
    times: dict[str, list[float]] = {p: [] for p in ("none", *RECOVERY)}
    first: dict = {}
    for _ in range(max(1, round(seconds / ROUND_S))):
        results = {}
        for policy in ("none", *RECOVERY):
            result, elapsed = clock.time(_campaign, program, policy, seed)
            times[policy].append(elapsed)
            results[policy] = result
            facts = counters(result)
            expected = outcome.repeat.setdefault(
                f"campaign:{policy}:seed{seed}", facts)
            ok = facts == expected
            outcome.check(ok, "" if ok else
                          f"{policy}: counters differ between rounds")
        if not first:
            first = results
            for problem in _problems(results):
                outcome.check(False, problem)
    medians = {policy: median(values) for policy, values in times.items()}
    round_trials = sum(r.trials for r in first.values())
    outcome.metrics.update(program_quality([program]))
    outcome.metrics.update({
        "latency_ms": geomean(medians.values()) * 1e3,
        "max_rate_rps": round_trials / sum(medians.values()),
    })
    for policy, values in times.items():
        per_trial = (BARE_TRIALS if policy == "none" else RECOVERY_TRIALS)
        outcome.layers[f"campaign.trial_ms.{policy}"] = (
            median(values) / per_trial * 1e3)
    recovery_stats = [first[p].stats for p in RECOVERY]
    for key in ("extra_senses", "votes", "rollbacks",
                "replayed_instructions"):
        outcome.layers[f"campaign.{key}"] = sum(
            getattr(stats, key) for stats in recovery_stats)
    outcome.layers["campaign.decision_failure_rate"] = sum(
        r.decision_failures for r in first.values()) / round_trials
    outcome.layers["campaign.output_failure_rate"] = sum(
        r.output_failures for r in first.values()) / round_trials
    outcome.notes.append(
        "campaign-recovery: " + ", ".join(
            f"{policy} {median(values):.3f}s x{len(values)}"
            for policy, values in times.items()))
    return outcome
