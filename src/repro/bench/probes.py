"""The built-in benchmark probes over the standard workloads.

Fourteen probes cover the hot paths the roadmap optimizes against:

* ``compile.cold`` / ``compile.warm`` — the full pass pipeline on the
  bitweaving DAG with the process compile cache cleared vs primed,
* ``compile.ladder`` — the graceful-degradation path: an oversized
  synthetic DAG that only compiles through recycling + partitioning,
* ``compile.multiarray`` — the multi-array co-scheduler on the Sobel
  kernel (4 arrays), including the cluster partition and assignment pass,
* ``execute.bitweaving`` — functional execution of the compiled program
  through the default engine resolution (vectorized since PR 8),
* ``execute.vectorized`` — the bit-packed op-table backend head-to-head
  against the interpreted reference (speedup ratio in the metadata),
* ``batch.execute_many`` — compile-once/execute-many throughput of the
  batch API in input sets per second,
* ``execute.multiarray`` — execution of the 4-array Sobel schedule on
  the array-set machine, with the modeled latency ratio vs the 1-array
  compile in the metadata,
* ``execute.verified`` — the same execution with verify-after-write on
  (per-cell read-back plus retry/remap bookkeeping), pricing the
  hard-fault detection path against the plain run,
* ``evaluate.reference`` — the reference DAG evaluation every campaign
  trial and shadow check pays for,
* ``campaign.serial`` / ``campaign.parallel`` — fault-injection campaign
  throughput in trials/second, single-process vs the sharded
  process-pool mode (same master seed, so both run identical trials),
* ``serve.cold`` / ``serve.cached`` — a small request batch through the
  :class:`repro.serve.CompileService` against an empty vs a primed
  persistent artifact cache; the gap is the compile work the cache
  amortizes across a serving fleet.

Probe workloads are deliberately small (sub-second per repeat) so
``sherlock bench`` stays cheap enough to run on every change; they are
*relative* numbers for regression tracking, not absolute hardware claims.
"""

from __future__ import annotations

import os
import pathlib
import random
import shutil
import tempfile
import time

from repro.arch.target import TargetSpec
from repro.bench.registry import Timer, benchmark
from repro.core.compiler import clear_compile_cache, compile_dag
from repro.core.config import CompilerConfig
from repro.devices import RERAM, STT_MRAM, FaultMap
from repro.dfg.evaluate import evaluate
from repro.reliability.campaign import run_campaign
from repro.sim.executor import run_program
from repro.workloads import get_workload
from repro.workloads.synthetic import synthetic_dag

__all__ = [
    "CAMPAIGN_TRIALS",
    "campaign_program",
    "parallel_workers",
]

#: array size for the compile/execute probes (big enough to exercise the
#: clustering mapper, small enough for sub-second cold compiles)
_COMPILE_SIZE = 256
#: simulated lanes for execution-side probes
_LANES = 8
#: trials per campaign-throughput repeat
CAMPAIGN_TRIALS = 160


def _compile_target() -> TargetSpec:
    """The fixed ReRAM target the compile/execute probes measure against."""
    return TargetSpec.square(_COMPILE_SIZE, RERAM)


def campaign_program():
    """The small fault-injecting program the campaign probes measure.

    A 24-op synthetic DAG on high-variability STT-MRAM with MRA = 4 —
    the same regime the campaign test-suite uses, chosen so trials
    actually exercise fault injection rather than a zero-probability
    fast path.
    """
    tech = STT_MRAM.with_variability(0.12, 0.12)
    target = TargetSpec.square(64, tech, num_arrays=4, max_activated_rows=4)
    dag = synthetic_dag(num_ops=24, num_inputs=8, seed=3, name="bench-camp")
    return compile_dag(dag, target, CompilerConfig(mapper="sherlock", mra=4),
                       cache=False)


def parallel_workers() -> int:
    """Worker count for the parallel campaign probe.

    Up to four processes (the shard fan-out the acceptance criteria
    quote), but at least two so the process-pool path is always
    exercised — even on a single-core machine, where the probe then
    documents the pool overhead instead of a speedup.
    """
    return max(2, min(4, os.cpu_count() or 1))


@benchmark("compile.cold", group="compile",
           description="cold-cache compile of the bitweaving DAG "
                       "(sherlock mapper, 256x256 ReRAM)")
def _compile_cold(timer: Timer):
    dag = get_workload("bitweaving").build_dag()
    target = _compile_target()

    def _work():
        compile_dag(dag, target, cache=False)

    values = timer.measure(_work, setup=clear_compile_cache)
    return values, {"workload": "bitweaving", "size": _COMPILE_SIZE,
                    "mapper": "sherlock"}


@benchmark("compile.warm", group="compile",
           description="warm-cache compile of the bitweaving DAG "
                       "(process compile-cache hit path)")
def _compile_warm(timer: Timer):
    dag = get_workload("bitweaving").build_dag()
    target = _compile_target()
    compile_dag(dag, target, cache=True)  # prime the cache, untimed

    def _work():
        compile_dag(dag, target, cache=True)

    values = timer.measure(_work)
    return values, {"workload": "bitweaving", "size": _COMPILE_SIZE,
                    "mapper": "sherlock"}


@benchmark("compile.ladder", group="compile",
           description="graceful-degradation compile of an oversized "
                       "synthetic DAG (recycle + partition fallback)")
def _compile_ladder(timer: Timer):
    # 48 ops on an 8x8 two-array target: the base mapper and the recycle
    # rung both run out of cells, so every repeat walks the full ladder
    # down to spill-and-partition
    dag = synthetic_dag(num_ops=48, num_inputs=8, seed=7,
                        name="bench-ladder")
    target = TargetSpec.square(8, RERAM, num_arrays=2)
    config = CompilerConfig(mapper="sherlock")

    def _work():
        compile_dag(dag, target, config, cache=False)

    values = timer.measure(_work)
    program = compile_dag(dag, target, config, cache=False)
    return values, {"ops": 48, "size": 8, "arrays": 2,
                    "degradation": program.degradation,
                    "stages": len(program.stages or [])}


#: array size for the multi-array probes (Sobel fits 4 arrays in one shot)
_MULTI_SIZE = 128
#: arrays of the co-scheduled compile the multi-array probes measure
_MULTI_ARRAYS = 4


def _multiarray_programs():
    """Sobel compiled single-schedule on 1 array and co-scheduled on 4."""
    dag = get_workload("sobel").build_dag()
    single = compile_dag(
        dag, TargetSpec.square(_MULTI_SIZE, RERAM, num_arrays=1),
        CompilerConfig(mapper="sherlock"), cache=False)
    multi = compile_dag(
        dag, TargetSpec.square(_MULTI_SIZE, RERAM, num_arrays=_MULTI_ARRAYS),
        CompilerConfig(mapper="sherlock", schedule="multi"), cache=False)
    return single, multi


@benchmark("compile.multiarray", group="compile",
           description="multi-array co-scheduled compile of the Sobel "
                       "kernel (cluster partition + assignment, 4 arrays)")
def _compile_multiarray(timer: Timer):
    dag = get_workload("sobel").build_dag()
    target = TargetSpec.square(_MULTI_SIZE, RERAM, num_arrays=_MULTI_ARRAYS)
    config = CompilerConfig(mapper="sherlock", schedule="multi")

    def _work():
        compile_dag(dag, target, config, cache=False)

    values = timer.measure(_work)
    program = compile_dag(dag, target, config, cache=False)
    overlap = program.overlap
    stats = program.mapping.stats
    return values, {"workload": "sobel", "size": _MULTI_SIZE,
                    "arrays": _MULTI_ARRAYS,
                    "instructions": len(program.instructions),
                    "makespan_cycles": overlap.makespan_cycles,
                    "speedup": round(overlap.speedup, 3),
                    "transfers": stats.cross_array_transfers,
                    "recomputed_ops": stats.recomputed_ops}


@benchmark("execute.multiarray", group="execute",
           description="array-set execution of the 4-array Sobel schedule "
                       "(modeled latency ratio vs 1 array in metadata)")
def _execute_multiarray(timer: Timer):
    single, multi = _multiarray_programs()
    workload = get_workload("sobel")
    inputs = workload.make_inputs(random.Random(0), _LANES)

    def _work():
        multi.execute(inputs, _LANES)

    values = timer.measure(_work)
    ratio = multi.overlap.makespan_cycles / max(
        1, single.overlap.serial_cycles)
    return values, {"workload": "sobel", "lanes": _LANES,
                    "arrays": _MULTI_ARRAYS,
                    "makespan_cycles": multi.overlap.makespan_cycles,
                    "serial_1array_cycles": single.overlap.serial_cycles,
                    "latency_ratio_vs_1array": round(ratio, 3)}


@benchmark("execute.bitweaving", group="execute",
           description="functional execution of the compiled bitweaving "
                       "program (default engine resolution)")
def _execute_bitweaving(timer: Timer):
    workload = get_workload("bitweaving")
    program = compile_dag(workload.build_dag(), _compile_target(),
                          cache=False)
    inputs = workload.make_inputs(random.Random(0), _LANES)
    program.execute(inputs, _LANES)  # warm the one-time lowering, untimed

    def _work():
        program.execute(inputs, _LANES)

    values = timer.measure(_work)
    return values, {"workload": "bitweaving", "lanes": _LANES,
                    "instructions": len(program.instructions)}


@benchmark("execute.vectorized", group="execute",
           description="bit-packed vectorized execution of the compiled "
                       "bitweaving program (speedup vs the interpreted "
                       "reference in metadata)")
def _execute_vectorized(timer: Timer):
    workload = get_workload("bitweaving")
    program = compile_dag(workload.build_dag(), _compile_target(),
                          cache=False)
    inputs = workload.make_inputs(random.Random(0), _LANES)
    program.execute(inputs, _LANES, engine="vectorized")  # warm lowering

    def _work():
        program.execute(inputs, _LANES, engine="vectorized")

    values = timer.measure(_work)
    t0 = time.perf_counter()
    program.execute(inputs, _LANES, engine="interpreted")
    interpreted_s = time.perf_counter() - t0
    vectorized_s = min(values)
    return values, {"workload": "bitweaving", "lanes": _LANES,
                    "instructions": len(program.instructions),
                    "interpreted_s": round(interpreted_s, 6),
                    "speedup_vs_interpreted": round(
                        interpreted_s / vectorized_s, 2)
                    if vectorized_s > 0 else None}


#: input sets per batch-probe repeat
_BATCH_SETS = 128


@benchmark("batch.execute_many", group="execute", unit="sets/s",
           better="higher",
           description="compile-once/execute-many batch throughput on the "
                       "bitweaving program (speedup vs an interpreted "
                       "per-set loop in metadata)")
def _batch_execute_many(timer: Timer):
    workload = get_workload("bitweaving")
    program = compile_dag(workload.build_dag(), _compile_target(),
                          cache=False)
    rng = random.Random(0)
    sets = [workload.make_inputs(rng, _LANES) for _ in range(_BATCH_SETS)]
    program.execute_many(sets[:2], _LANES)  # warm the lowering, untimed

    def _work():
        program.execute_many(sets, _LANES)

    values = timer.throughput(_work, _BATCH_SETS)
    sample = sets[:4]
    t0 = time.perf_counter()
    program.execute_many(sample, _LANES, engine="interpreted")
    interpreted_rate = len(sample) / (time.perf_counter() - t0)
    batch_rate = max(values)
    return values, {"workload": "bitweaving", "lanes": _LANES,
                    "sets": _BATCH_SETS,
                    "interpreted_sets_per_s": round(interpreted_rate, 1),
                    "speedup_vs_interpreted": round(
                        batch_rate / interpreted_rate, 2)
                    if interpreted_rate > 0 else None}


@benchmark("execute.verified", group="execute",
           description="bitweaving execution with verify-after-write on "
                       "(read-back every written cell, recover injected "
                       "write failures)")
def _execute_verified(timer: Timer):
    workload = get_workload("bitweaving")
    program = compile_dag(workload.build_dag(), _compile_target(),
                          cache=False)
    inputs = workload.make_inputs(random.Random(0), _LANES)
    machines = []

    def _work():
        machine = program.machine(_LANES, fault_rng=random.Random(7),
                                  verify_writes=True)
        machines.append(machine)
        return run_program(machine, program, inputs)

    values = timer.measure(_work)
    last = machines[-1]
    return values, {"workload": "bitweaving", "lanes": _LANES,
                    "writes_verified": last.writes_verified,
                    "write_retries_used": last.write_retries_used,
                    "remaps": len(last.remaps)}


@benchmark("evaluate.reference", group="execute",
           description="reference DAG evaluation of the bitweaving kernel "
                       "(the per-trial shadow check)")
def _evaluate_reference(timer: Timer):
    workload = get_workload("bitweaving")
    dag = workload.build_dag()
    inputs = workload.make_inputs(random.Random(0), _LANES)

    def _work():
        evaluate(dag, inputs, _LANES)

    values = timer.measure(_work)
    return values, {"workload": "bitweaving", "lanes": _LANES}


@benchmark("campaign.serial", group="campaign", unit="trials/s",
           better="higher",
           description="single-process fault-injection campaign throughput")
def _campaign_serial(timer: Timer):
    program = campaign_program()

    def _work():
        run_campaign(program, trials=CAMPAIGN_TRIALS, seed=0, lanes=_LANES,
                     workers=1, engine="vectorized")

    values = timer.throughput(_work, CAMPAIGN_TRIALS)
    return values, {"trials": CAMPAIGN_TRIALS, "lanes": _LANES, "workers": 1,
                    "engine": "vectorized"}


@benchmark("campaign.parallel", group="campaign", unit="trials/s",
           better="higher",
           description="process-pool fault-injection campaign throughput "
                       "(sharded trials, same seed as campaign.serial)")
def _campaign_parallel(timer: Timer):
    program = campaign_program()
    workers = parallel_workers()

    def _work():
        run_campaign(program, trials=CAMPAIGN_TRIALS, seed=0, lanes=_LANES,
                     workers=workers, engine="vectorized")

    values = timer.throughput(_work, CAMPAIGN_TRIALS)
    return values, {"trials": CAMPAIGN_TRIALS, "lanes": _LANES,
                    "workers": workers, "cpus": os.cpu_count(),
                    "engine": "vectorized"}


#: requests per serve-probe batch (distinct DAGs, so a cold pass pays
#: one full compile per request)
_SERVE_REQUESTS = 3


def _serve_batch():
    """The fixed target + request batch both serve probes push through."""
    from repro.serve import ServeRequest

    target = TargetSpec.square(64, RERAM, num_arrays=2)
    rng = random.Random(0)
    requests = []
    for index in range(_SERVE_REQUESTS):
        dag = synthetic_dag(num_ops=16, num_inputs=6, seed=index + 1,
                            name=f"bench-serve{index}")
        inputs = {op.name: rng.getrandbits(_LANES) for op in dag.inputs()}
        requests.append(ServeRequest(dag=dag, inputs=inputs, lanes=_LANES,
                                     request_id=f"bench{index}"))
    return target, requests


@benchmark("serve.cold", group="serve",
           description="compile-and-serve a 3-request batch against an "
                       "empty artifact cache (compile + persist + execute)")
def _serve_cold(timer: Timer):
    from repro.serve import ArtifactCache, CompileService

    target, requests = _serve_batch()
    root = pathlib.Path(tempfile.mkdtemp(prefix="sherlock-serve-cold-"))
    repeat = [0]
    with CompileService(target, workers=2) as service:
        def _setup():
            # a fresh, empty cache directory per repeat: every request
            # misses and pays the full compile + atomic publish
            repeat[0] += 1
            service.cache = ArtifactCache(root / f"repeat{repeat[0]}")

        def _work():
            service.process(requests)

        values = timer.measure(_work, setup=_setup)
        stats = service.stats()
    shutil.rmtree(root, ignore_errors=True)
    return values, {"requests": _SERVE_REQUESTS, "lanes": _LANES,
                    "workers": 2, "cim_served": stats["cim_served"],
                    "errors": stats["errors"]}


@benchmark("serve.cached", group="serve",
           description="serve the same 3-request batch from a primed "
                       "artifact cache (deserialize + execute, no compile)")
def _serve_cached(timer: Timer):
    from repro.serve import ArtifactCache, CompileService

    target, requests = _serve_batch()
    root = pathlib.Path(tempfile.mkdtemp(prefix="sherlock-serve-cached-"))
    with CompileService(target, cache=ArtifactCache(root),
                        workers=2) as service:
        service.process(requests)  # prime the cache, untimed

        def _work():
            service.process(requests)

        values = timer.measure(_work)
        cache_stats = service.cache.stats()
        stats = service.stats()
    shutil.rmtree(root, ignore_errors=True)
    return values, {"requests": _SERVE_REQUESTS, "lanes": _LANES,
                    "workers": 2, "cache_hits": cache_stats["hits"],
                    "cache_writes": cache_stats["writes"],
                    "errors": stats["errors"]}


@benchmark("serve.degraded", group="serve",
           description="serve the 3-request batch with one fleet array "
                       "quarantined (health-driven CPU offload path)")
def _serve_degraded(timer: Timer):
    from repro.serve import ArrayHealth, CompileService

    target, requests = _serve_batch()
    with CompileService(target, workers=2) as service:
        service.process(requests)  # warm the compile cache, untimed
        # quarantine the array every request targets: the health registry
        # diverts the batch onto the circuit-breaker CPU-offload path
        service.health.force_state(requests[0].array_id,
                                   ArrayHealth.QUARANTINED)

        def _work():
            service.process(requests)

        values = timer.measure(_work)
        stats = service.stats()
    return values, {"requests": _SERVE_REQUESTS, "lanes": _LANES,
                    "workers": 2, "cpu_served": stats["cpu_served"],
                    "cim_served": stats["cim_served"],
                    "errors": stats["errors"]}


@benchmark("serve.voted", group="serve",
           description="serve the 3-request batch with redundancy=3 voted "
                       "execution across a 2-array fleet plus CPU referee")
def _serve_voted(timer: Timer):
    import dataclasses

    from repro.serve import CompileService

    target, requests = _serve_batch()
    voted = [dataclasses.replace(request, redundancy=3)
             for request in requests]
    fleet = {0: FaultMap(), 1: FaultMap()}
    with CompileService(target, workers=2,
                        machine_faults=fleet) as service:
        service.process(voted)  # warm the compile cache, untimed

        def _work():
            service.process(voted)

        values = timer.measure(_work)
        stats = service.stats()
    return values, {"requests": _SERVE_REQUESTS, "lanes": _LANES,
                    "workers": 2, "redundancy": 3,
                    "votes": stats["votes"],
                    "vote_disagreements": stats["vote_disagreements"],
                    "errors": stats["errors"]}


#: cells march-tested per serve.scrub repeat
_SCRUB_BUDGET = 4096


@benchmark("serve.scrub", group="serve", unit="cells/s", better="higher",
           description="patrol-scrub march-test throughput over a 2-array "
                       "fleet with planted latent faults")
def _serve_scrub(timer: Timer):
    from repro.devices import CellFault
    from repro.serve import CompileService

    target, _ = _serve_batch()
    fleet = {0: FaultMap(), 1: FaultMap()}
    rng = random.Random(7)
    for ground in fleet.values():
        for _ in range(8):
            ground.set_fault(rng.randrange(target.num_arrays),
                             rng.randrange(target.rows),
                             rng.randrange(target.cols), CellFault.STUCK0)
    with CompileService(target, machine_faults=fleet) as service:
        def _work():
            service.scrub(budget=_SCRUB_BUDGET)

        values = timer.throughput(_work, _SCRUB_BUDGET)
        scrub_stats = service.scrubber.stats()
    return values, {"budget": _SCRUB_BUDGET, "fleet": len(fleet),
                    "passes": scrub_stats["passes"],
                    "latent_faults_found":
                        scrub_stats["latent_faults_found"]}
