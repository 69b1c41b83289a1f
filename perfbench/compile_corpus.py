"""The compile-corpus workload: cold compiles from source to program.

A closed loop compiles one kernel at a time with every cache off
(``cache=False``, no artifact cache), timing each from source — C text
through ``repro.frontend.c_to_dfg``, or the workload's DAG builder — to
the ``CompiledProgram``.  Five kernels fit their target; one (bitweaving
on a single 64x64 array) overflows and walks the degradation ladder to
``sherlock+partitioned``, the same ``_best_cut`` code as the slow Sobel
ladder at a size a run can repeat.  Every program is then executed,
untimed, on seeded inputs and checked against the reference.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass

from perfbench.common import Clock, Outcome, geomean, median, program_quality

#: lanes of the untimed execution check
LANES = 16
#: about how long one round of the corpus takes; a run compiles
#: ``seconds / ROUND_S`` rounds (at least one), a fixed amount of work
ROUND_S = 12.5


@dataclass(frozen=True)
class Kernel:
    """One corpus entry: how to build its DAG and what to compile it for."""

    name: str
    source: str  # "c" (BETWEEN kernel text) or a registered workload name
    size: int
    arrays: int = 1
    schedule: str = "single"
    fits: bool = True
    #: compiles per round: a fast kernel is compiled several times, so
    #: every kernel's median rests on a comparable stretch of time
    repeats: int = 1

    def build(self):
        """Source to DAG: the frontend for C text, else the builder."""
        if self.source == "c":
            import repro.frontend
            from repro.workloads.bitweaving import between_kernel_source

            return repro.frontend.c_to_dfg(between_kernel_source())
        from repro.workloads import get_workload

        return get_workload(self.source).build_dag()

    def compiler(self):
        """A cold compiler for this kernel's target."""
        from repro.arch.target import TargetSpec
        from repro.core.compiler import SherlockCompiler
        from repro.core.config import CompilerConfig
        from repro.devices import RERAM

        target = TargetSpec.square(self.size, RERAM, num_arrays=self.arrays)
        return SherlockCompiler(target, CompilerConfig(schedule=self.schedule),
                                cache=False)


CORPUS = (
    Kernel("bitweaving-64-ladder", "bitweaving", 64, fits=False),
    Kernel("bitweaving-512", "bitweaving", 512),
    Kernel("sobel-256", "sobel", 256),
    Kernel("bfs-512", "bfs", 512, repeats=4),
    Kernel("sobel-4x128", "sobel", 128, arrays=4, schedule="multi"),
    Kernel("between-c-512", "c", 512, repeats=20),
)


def prepare() -> list:
    """Set-up: import the compiler and build every kernel's compiler."""
    return [kernel.compiler() for kernel in CORPUS]


def compile_once(kernel: Kernel, clock: Clock):
    """Time one kernel from source to compiled program (reference seconds).

    The heap is collected first, so a collection owed to an earlier
    kernel's garbage is not charged to this one.
    """
    compiler = kernel.compiler()
    gc.collect()
    return clock.time(lambda: compiler.compile(kernel.build()))


def _check(kernel: Kernel, program, rng: random.Random) -> str | None:
    """Execute on seeded inputs; ``None`` when the outputs are right.

    Workload kernels are checked by their own ``Workload.check``; the C
    kernel against ``repro.dfg.evaluate`` on the DAG the benchmark built.
    """
    if kernel.source == "c":
        from repro.dfg.evaluate import evaluate

        dag = kernel.build()
        inputs = {operand.name: rng.getrandbits(LANES)
                  for operand in dag.inputs()}
        if program.execute(inputs, LANES) != evaluate(dag, inputs, LANES):
            return f"{kernel.name}: outputs differ from the reference"
        return None
    from repro.workloads import get_workload

    workload = get_workload(kernel.source)
    inputs = workload.make_inputs(rng, LANES)
    try:
        workload.check(inputs, program.execute(inputs, LANES), LANES)
    except Exception as error:  # any mismatch or missing output
        return f"{kernel.name}: {error}"
    return None


def shape(program) -> dict:
    """Deterministic facts about a program that must repeat exactly."""
    metrics = program.metrics
    stats = program.mapping.stats
    return {"instructions": len(program.instructions),
            "stages": len(program.stages or ()) or 1,
            "transfers": stats.cross_array_transfers,
            "recomputed_ops": stats.recomputed_ops,
            "degradation": program.degradation,
            "latency_us": metrics.latency_us,
            "energy_uj": metrics.energy_uj,
            "p_app": metrics.p_app}


def _consistent(kernel: Kernel, program, repeat: dict) -> tuple[bool, str]:
    """Whether a compile matches the kernel's first one and its fit."""
    facts = shape(program)
    if facts != repeat.setdefault(f"kernel:{kernel.name}", facts):
        return False, f"{kernel.name}: program differs between compiles"
    if kernel.fits != (program.degradation == "none"):
        return False, f"{kernel.name}: degradation {program.degradation}"
    return True, ""


def run(fixture, seed: int, seconds: float, tracer=None) -> Outcome:
    """Compile the corpus ``seconds / ROUND_S`` times (at least once).

    Every round compiles the kernels in corpus order, each its
    ``repeats`` times; the number of rounds depends on ``seconds`` only,
    so every run with the same ``seconds`` does the same work.  The seed
    draws the execution-check inputs.
    """
    outcome = Outcome(tracer)
    clock = Clock(sample=True)
    rng = random.Random(seed)
    times: dict[str, list[float]] = {k.name: [] for k in CORPUS}
    programs: dict[str, object] = {}
    for _ in range(max(1, round(seconds / ROUND_S))):
        for kernel in CORPUS:
            for _ in range(kernel.repeats):
                program, elapsed = compile_once(kernel, clock)
                times[kernel.name].append(elapsed)
                outcome.check(*_consistent(kernel, program, outcome.repeat))
                programs[kernel.name] = program
    with outcome.untraced():
        for kernel in CORPUS:
            problem = _check(kernel, programs[kernel.name], rng)
            outcome.check(problem is None, problem or "")
    medians = [median(times[k.name]) for k in CORPUS]
    outcome.metrics.update(program_quality(programs.values()))
    outcome.metrics.update({
        "latency_ms": geomean(medians) * 1e3,
        "max_rate_rps": len(medians) / sum(medians),
    })
    outcome.notes.append(
        "compile-corpus: " + ", ".join(
            f"{name} {median(values):.3f}s x{len(values)}"
            for name, values in times.items()))
    return outcome
