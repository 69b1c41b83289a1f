"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests run every workload once at a tiny size (about a minute
in total on a 2-core host) and check the result line against
``BENCHMARK.json``; the others check the tracer and that the checkers
count a corrupted answer as a failure.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import campaign, serve_load  # noqa: E402
from perfbench.common import (  # noqa: E402
    CAL_REF_S,
    END_TO_END,
    Clock,
    Outcome,
    at_reference_speed,
)
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_reports_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_run("campaign-recovery", 1))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == PER_LAYER
    assert metrics["campaign.trial_ms.reread-vote"]["value"] > 0
    assert metrics["selftime.reliability_pct"]["value"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("serve-hot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt(outputs: dict) -> dict:
    name = sorted(outputs)[0]
    return dict(outputs, **{name: outputs[name] ^ 1})


@pytest.mark.parametrize("item", [("kernel", 8), ("workload", "bfs"),
                                  ("synthetic", (24, 1))])
def test_a_corrupted_serve_answer_counts_as_a_failure(item):
    from repro.dfg.evaluate import evaluate

    pool = serve_load.Pool()
    rng = random.Random(5)
    obj = pool.request(item, rng)
    right = {"outputs": evaluate(pool.dag(item), obj["inputs"],
                                 serve_load.LANES)}
    assert pool.check(item, obj, right) is None
    wrong = {"outputs": _corrupt(right["outputs"])}
    problem = pool.check(item, obj, wrong)
    assert problem
    outcome = Outcome()
    outcome.check(problem is None, problem)
    assert outcome.failed == 1 and outcome.ok_ratio == 0.0


def test_a_corrupted_batch_answer_counts_as_a_failure():
    from repro.dfg.evaluate import evaluate

    pool = serve_load.Pool()
    item = ("kernel", 8)
    obj = pool.request(item, random.Random(6), sets=3)
    answers = [evaluate(pool.dag(item), inputs, serve_load.LANES)
               for inputs in obj["input_sets"]]
    assert pool.check(item, obj, {"batch_outputs": answers}) is None
    answers[2] = _corrupt(answers[2])
    assert pool.check(item, obj, {"batch_outputs": answers})
    assert pool.check(item, obj, {"error": "shed"})


def test_a_recovery_policy_worse_than_none_is_a_problem():
    class Result:
        def __init__(self, rate, inside=True):
            self.output_failure_rate = rate
            self.analytic_within_interval = inside
            self.analytic_p_app = 0.5
            self.decision_wilson = (0.4, 0.6)

    results = {"none": Result(0.3), **{p: Result(0.1)
                                       for p in campaign.RECOVERY}}
    assert campaign._problems(results) == []
    results["degrade-mra"] = Result(0.4)
    results["none"] = Result(0.3, inside=False)
    assert len(campaign._problems(results)) == 2


def test_times_are_rescaled_to_the_reference_speed():
    # a host running at half the reference speed doubles both the
    # calibration and the operation; the rescaled time is unchanged
    assert at_reference_speed(0.2, 2 * CAL_REF_S, 2 * CAL_REF_S) == \
        pytest.approx(0.1)
    calibrations = iter([CAL_REF_S, 4 * CAL_REF_S])
    clock = Clock(calibrate=lambda: next(calibrations))
    result, elapsed = clock.time(sum, [1, 2])
    assert result == 3
    assert 0 <= elapsed < 1e-3  # wall time times the mean of 1 and 1/4
    assert clock.before() == 4 * CAL_REF_S  # reused while fresh


def test_tracer_self_time_excludes_children_and_uninstall_restores():
    class Owner:
        @staticmethod
        def inner():
            return 1

    def outer():
        return Owner.inner() + 1

    tracer = Tracer()
    original = Owner.__dict__["inner"]
    tracer.wrap(Owner, "inner", "dfg.inner")
    module = type(sys)("fake")
    module.outer = outer
    tracer.wrap(module, "outer", "core.outer")
    assert module.outer() == 2
    agg = tracer.aggregate()
    assert agg["durations_ms"]["core.outer"]["n"] == 1
    assert agg["entries_ms"]["dfg"]["n"] == 1
    total = agg["durations_ms"]["core.outer"]["total"]
    child = agg["durations_ms"]["dfg.inner"]["total"]
    assert agg["self_ms"]["core"] == pytest.approx(total - child)
    assert tracer.spans[1][3] == 0  # the child's parent is the outer span
    tracer.uninstall()
    assert Owner.__dict__["inner"] is original
