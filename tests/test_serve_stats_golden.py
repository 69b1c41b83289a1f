"""Golden pin of the serve stats surface over one deterministic scenario.

One plain, one batch, one voted and one breaker-tripping request run
through a single-worker :class:`CompileService` with a constant clock, so
every counter and latency percentile is reproducible.  The full
``stats_text()`` rendering, the top-level ``stats()`` key set and the keys
the serve benchmark reads must stay exactly as pinned here.
"""

import random

from repro.arch.target import TargetSpec
from repro.core.compiler import SherlockCompiler
from repro.core.config import CompilerConfig
from repro.devices import RERAM, CellFault, FaultMap
from repro.errors import SherlockError
from repro.serve import (
    ArtifactCache,
    CircuitBreaker,
    CompileService,
    ServeRequest,
)
from repro.util import latent_victims
from repro.workloads.synthetic import synthetic_dag

LANES = 8

GOLDEN_TEXT = """\
service:
  cim_failures: 1
  cim_served: 3
  compile_p50_ms: 0.0
  compile_p90_ms: 0.0
  compile_p99_ms: 0.0
  completed: 4
  cpu_served: 1
  deadline_misses: 0
  errors: 0
  execute_p50_ms: 0.0
  execute_p90_ms: 0.0
  execute_p99_ms: 0.0
  placement: sticky
  placement_shifts: 0
  placements: {0: 4}
  proactive_recompiles: 0
  queue_depth: 0
  queue_high_water: 1
  queue_limit: 16
  remaps: 0
  requests: 4
  retries: 0
  shed: 0
  shed_policy: reject
  total_p50_ms: 0.0
  total_p90_ms: 0.0
  total_p99_ms: 0.0
  vote_disagreements: 1
  votes: 1
  workers: 1
breaker: state=open trips=1 consecutive_failures=0
artifact cache: entries=1 evictions=0 hits=2 misses=1 quarantined=0 writes=1
scrub: passes=0 cells_probed=0 latent_faults_found=0 sweeps=0
health: baseline=1.0e-04 arrays=2 degraded=0 quarantined=0 recovered=0 breaker_trips=1 vote_disagreements=1
  array 0: state=healthy rate=0.00e+00 samples=2 probes=0 retries=0 hard_faults=0 scrubbed=0 latent=0 outvoted=0
  array 1: state=healthy rate=2.50e-01 samples=2 probes=0 retries=0 hard_faults=0 scrubbed=0 latent=0 outvoted=1
"""

STATS_KEYS = {
    "requests", "completed", "cim_served", "cpu_served", "shed", "retries",
    "remaps", "proactive_recompiles", "deadline_misses", "cim_failures",
    "errors", "queue_high_water", "votes", "vote_disagreements",
    "placement_shifts", "placements",
    "compile_p50_ms", "compile_p90_ms", "compile_p99_ms",
    "execute_p50_ms", "execute_p90_ms", "execute_p99_ms",
    "total_p50_ms", "total_p90_ms", "total_p99_ms",
    "queue_depth", "queue_limit", "workers", "shed_policy", "placement",
    "breaker", "cache", "health", "scrub",
}


def _inputs(dag, seed):
    rng = random.Random(seed)
    return {o.name: rng.getrandbits(LANES) for o in dag.inputs()}


def _run_scenario(tmp_path):
    target = TargetSpec.square(64, RERAM, num_arrays=2)
    config = CompilerConfig()
    dag = synthetic_dag(num_ops=16, num_inputs=6, seed=1, name="golden")
    inputs = _inputs(dag, 0)
    # array 1 carries a latent stuck-at under one of the program's input
    # cells, so the voted request sees one out-voted ballot
    program = SherlockCompiler(target, config, cache=False).compile(dag)
    victim = latent_victims(program, dag, inputs, LANES, count=1)[0]
    poisoned = FaultMap()
    poisoned.set_fault(*victim, CellFault.STUCK0)

    def chaos(stage, request):
        if request.request_id == "trip" and stage == "compile":
            raise SherlockError("forced compile failure")

    def clock():
        return 100.0

    requests = [
        ServeRequest(dag=dag, inputs=inputs, lanes=LANES,
                     request_id="plain"),
        ServeRequest(dag=dag, inputs={}, lanes=LANES, request_id="batch",
                     input_sets=[_inputs(dag, s) for s in range(3)]),
        ServeRequest(dag=dag, inputs=inputs, lanes=LANES,
                     request_id="voted", redundancy=3),
        ServeRequest(dag=dag, inputs=inputs, lanes=LANES,
                     request_id="trip"),
    ]
    with CompileService(
            target, config, cache=ArtifactCache(tmp_path / "cache"),
            workers=1,
            breaker=CircuitBreaker(failure_threshold=1, clock=clock),
            machine_faults={0: FaultMap(), 1: poisoned},
            chaos=chaos, clock=clock, sleep=lambda _s: None) as service:
        results = [service.process([request])[0] for request in requests]
        return results, service.stats(), service.stats_text()


def test_stats_surface_is_pinned(tmp_path):
    results, stats, text = _run_scenario(tmp_path)
    assert [r.error for r in results] == [None] * 4
    assert [r.engine for r in results] == ["cim", "cim", "cim", "cpu"]
    assert results[2].voted and results[2].disagreeing == (1,)
    assert results[3].offload_reason.startswith("SherlockError")
    assert text == GOLDEN_TEXT.rstrip("\n")
    assert set(stats) == STATS_KEYS


def test_benchmark_read_keys_are_pinned(tmp_path):
    _, stats, _ = _run_scenario(tmp_path)
    read = {key: stats[key] for key in (
        "shed", "retries", "cpu_served", "votes", "vote_disagreements",
        "queue_high_water")}
    assert read == {"shed": 0, "retries": 0, "cpu_served": 1, "votes": 1,
                    "vote_disagreements": 1, "queue_high_water": 1}
    cache = {key: stats["cache"][key]
             for key in ("hits", "misses", "evictions", "quarantined")}
    assert cache == {"hits": 2, "misses": 1, "evictions": 0,
                     "quarantined": 0}
    assert stats["health"]["transitions"] == []
    assert stats["breaker"]["trips"] == 1
