"""The compiler's pass-manager pipeline.

The compilation flow — DAG rewrites followed by a terminal mapping stage —
is expressed as a list of named, registered *passes* executed by a
:class:`PassManager` over a shared :class:`CompilationContext`.  This turns
the pipeline into a first-class artifact: passes can be reordered, skipped
or repeated via a spec string (``CompilerConfig.pipeline``), every pass is
timed and its IR statistics delta recorded as a :class:`PassEvent`, and the
manager can optionally validate the graph between passes and dump per-pass
IR snapshots (DOT + JSON) for debugging.

The default pipeline reproduces the historical hardcoded sequence exactly::

    fold-duplicates, cse, mra-substitute, nand-lower, arity-clamp,
    validate, map-<mapper>

Conditional stages (``cse``, ``mra-substitute``, ``nand-lower``) gate
themselves on the configuration/target and record *why* they were skipped,
so one canonical pass list serves every configuration.  Terminal passes
(``map-naive``, ``map-sherlock``) produce the :class:`MappingResult` and
must come last; a pipeline has exactly one.
"""

from __future__ import annotations

import pathlib
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.arch.target import TargetSpec
from repro.dfg.graph import DataFlowGraph
from repro.dfg.stats import GraphStats, graph_stats
from repro.dfg.transforms import (
    common_subexpression_elimination,
    fold_duplicate_operands,
    nand_lower,
    split_multi_operand,
    substitute_nodes,
)
from repro.errors import CapacityError, SherlockError
from repro.mapping.base import MappingResult

#: technologies whose HRS/LRS window is too small for direct XOR/OR sensing
NAND_LOWERING_WINDOW = 5.0


# ----------------------------------------------------------------------
# context and events
# ----------------------------------------------------------------------
@dataclass
class CompilationContext:
    """Everything a pass may read or rewrite, threaded through the pipeline.

    ``dag`` is the working graph (a private copy of the source DAG);
    transform passes mutate it in place.  The terminal mapping pass fills
    ``mapping``.  ``events`` accumulates one :class:`PassEvent` per
    executed pass — the structured log behind ``--timings`` and
    :class:`repro.core.report.PassReport`.  ``fault_map`` (a
    :class:`repro.devices.FaultMap` or ``None``) makes the terminal
    mapping pass place operands only on healthy cells.
    """

    source_dag: DataFlowGraph
    dag: DataFlowGraph
    target: TargetSpec
    config: "CompilerConfigLike"
    events: list["PassEvent"] = field(default_factory=list)
    mapping: MappingResult | None = None
    fault_map: object | None = None


@runtime_checkable
class CompilerConfigLike(Protocol):
    """The configuration fields the built-in passes consult."""

    mapper: str
    mra: int
    mra_fraction: float
    nand_lowering: bool | None
    cse: bool
    alpha: float
    beta: float
    merge_instructions: bool
    recycle: str
    fallback: str


@dataclass(frozen=True)
class PassEvent:
    """One pass execution: timing, IR deltas, and pass-specific notes."""

    name: str
    wall_s: float
    before: GraphStats
    after: GraphStats
    #: pass-specific facts, e.g. ``{"rewritten": 3}`` or ``{"skipped": ...}``
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def skipped(self) -> bool:
        """Whether the pass gated itself off for this configuration."""
        return "skipped" in self.notes

    @property
    def node_delta(self) -> int:
        """Total bipartite node-count change (after minus before)."""
        return self.after.nodes - self.before.nodes

    @property
    def op_delta(self) -> int:
        """Op node-count change (after minus before)."""
        return self.after.ops - self.before.ops


# ----------------------------------------------------------------------
# pass protocol and registry
# ----------------------------------------------------------------------
@runtime_checkable
class Pass(Protocol):
    """What the manager requires of a pass.

    ``run`` mutates the context in place and returns an optional notes
    dictionary merged into the pass's :class:`PassEvent`.  ``invalidates``
    documents which cached analyses the pass clobbers (free-form notes for
    now; b-levels and layouts are recomputed from scratch downstream).
    """

    name: str
    description: str
    terminal: bool
    invalidates: tuple[str, ...]

    def run(self, ctx: CompilationContext) -> dict[str, object] | None:
        """Execute the pass against the context."""
        ...


@dataclass(frozen=True)
class FunctionPass:
    """A :class:`Pass` wrapping a plain function (the built-in pass shape)."""

    name: str
    description: str
    fn: Callable[[CompilationContext], dict[str, object] | None]
    terminal: bool = False
    invalidates: tuple[str, ...] = ()

    def run(self, ctx: CompilationContext) -> dict[str, object] | None:
        """Delegate to the wrapped function."""
        return self.fn(ctx)


PASS_REGISTRY: dict[str, Pass] = {}


def register_pass(pass_obj: Pass) -> Pass:
    """Add a pass to the global registry; its name must be unique."""
    if pass_obj.name in PASS_REGISTRY:
        raise SherlockError(f"pass {pass_obj.name!r} is already registered")
    PASS_REGISTRY[pass_obj.name] = pass_obj
    return pass_obj


def get_pass(name: str) -> Pass:
    """Look up a registered pass by name."""
    try:
        return PASS_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(PASS_REGISTRY))
        raise SherlockError(
            f"unknown pass {name!r}; registered passes: {known}") from None


def _builtin(name: str, description: str, terminal: bool = False,
             invalidates: tuple[str, ...] = ()):
    """Decorator registering a function as a built-in pass."""
    def wrap(fn: Callable[[CompilationContext], dict[str, object] | None]):
        register_pass(FunctionPass(name=name, description=description, fn=fn,
                                   terminal=terminal, invalidates=invalidates))
        return fn
    return wrap


# ----------------------------------------------------------------------
# pipeline specs
# ----------------------------------------------------------------------
DEFAULT_TRANSFORM_PASSES = (
    "fold-duplicates", "cse", "mra-substitute", "nand-lower", "arity-clamp",
    "validate",
)


def default_pipeline(mapper: str, schedule: str = "single") -> str:
    """The spec string of the historical hardcoded pipeline for a mapper.

    With ``schedule="multi"`` the terminal pass is the multi-array
    co-scheduler regardless of ``mapper`` (the mapper still names the
    single-array algorithm degradation rungs fall back to).
    """
    terminal = "map-multiarray" if schedule == "multi" else f"map-{mapper}"
    return ",".join(DEFAULT_TRANSFORM_PASSES + (terminal,))


def parse_pipeline(spec: str, require_terminal: bool = True) -> tuple[str, ...]:
    """Parse and validate a comma-separated pass-list spec.

    Raises :class:`SherlockError` on empty segments, unknown pass names,
    more than one terminal (mapping) pass, a terminal pass that is not
    last, or — with ``require_terminal`` — a pipeline with no terminal.
    Non-terminal passes may repeat (re-folding after a custom stage is
    legitimate).
    """
    names = tuple(part.strip() for part in spec.split(","))
    if any(not name for name in names):
        raise SherlockError(f"pipeline spec {spec!r} has an empty pass name")
    terminals = []
    for index, name in enumerate(names):
        pass_obj = get_pass(name)
        if pass_obj.terminal:
            terminals.append((index, name))
    if len(terminals) > 1:
        listed = ", ".join(name for _, name in terminals)
        raise SherlockError(
            f"pipeline spec {spec!r} has more than one terminal mapping "
            f"pass ({listed}); exactly one is allowed")
    if terminals and terminals[0][0] != len(names) - 1:
        raise SherlockError(
            f"terminal pass {terminals[0][1]!r} must be last in {spec!r}")
    if require_terminal and not terminals:
        known = ", ".join(sorted(n for n, p in PASS_REGISTRY.items()
                                 if p.terminal))
        raise SherlockError(
            f"pipeline spec {spec!r} has no terminal mapping pass; "
            f"end it with one of: {known}")
    return names


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------
class PassManager:
    """Executes a pass list over a context, instrumenting every pass.

    Per pass it records wall time and before/after :class:`GraphStats`
    (node/edge counts, op histogram) into ``ctx.events``; optionally it
    re-validates the working DAG between passes (``validate_each``) and
    writes per-pass IR snapshots (``dump_ir_dir``, one ``.dot`` and one
    ``.json`` file per pass, prefixed with the pass index).
    """

    def __init__(self, passes: Iterable[Pass | str], *,
                 validate_each: bool = False,
                 dump_ir_dir: str | pathlib.Path | None = None) -> None:
        self.passes: list[Pass] = [
            get_pass(p) if isinstance(p, str) else p for p in passes]
        self.validate_each = validate_each
        self.dump_ir_dir = (pathlib.Path(dump_ir_dir)
                            if dump_ir_dir is not None else None)

    def describe(self) -> list[tuple[str, str, bool]]:
        """(name, description, terminal) rows, for ``--print-passes``."""
        return [(p.name, p.description, p.terminal) for p in self.passes]

    def run(self, ctx: CompilationContext) -> CompilationContext:
        """Execute every pass in order, appending events to the context."""
        if self.dump_ir_dir is not None:
            self.dump_ir_dir.mkdir(parents=True, exist_ok=True)
            self._dump(ctx.dag, 0, "input")
        for index, pass_obj in enumerate(self.passes, start=1):
            before = graph_stats(ctx.dag)
            start = time.perf_counter()
            notes = pass_obj.run(ctx) or {}
            wall = time.perf_counter() - start
            after = graph_stats(ctx.dag)
            ctx.events.append(PassEvent(
                name=pass_obj.name, wall_s=wall, before=before, after=after,
                notes=dict(notes)))
            if self.validate_each:
                ctx.dag.validate()
            if self.dump_ir_dir is not None:
                self._dump(ctx.dag, index, pass_obj.name)
        return ctx

    def _dump(self, dag: DataFlowGraph, index: int, label: str) -> None:
        import json

        from repro.core.serialize import dag_to_dict
        from repro.dfg.dot import to_dot

        stem = self.dump_ir_dir / f"{index:02d}-{label}"
        stem.with_suffix(".dot").write_text(to_dot(dag))
        stem.with_suffix(".json").write_text(
            json.dumps(dag_to_dict(dag), indent=1))


# ----------------------------------------------------------------------
# built-in transform passes (the historical pipeline, stage by stage)
# ----------------------------------------------------------------------
@_builtin("fold-duplicates",
          "canonicalize ops that mention an operand more than once")
def _run_fold_duplicates(ctx: CompilationContext) -> dict[str, object]:
    return {"rewritten": fold_duplicate_operands(ctx.dag)}


@_builtin("cse", "merge identical subexpressions (gated on config.cse)",
          invalidates=("b-levels",))
def _run_cse(ctx: CompilationContext) -> dict[str, object]:
    if not ctx.config.cse:
        return {"skipped": "config.cse is off"}
    removed = common_subexpression_elimination(ctx.dag)
    # merging equal subexpressions can leave XOR(t, t) etc. behind
    folded = fold_duplicate_operands(ctx.dag)
    return {"removed": removed, "refolded": folded}


@_builtin("mra-substitute",
          "fuse associative chains into multi-operand ops (Sec. 3.3.3)",
          invalidates=("b-levels",))
def _run_mra_substitute(ctx: CompilationContext) -> dict[str, object]:
    effective_mra = min(ctx.config.mra, ctx.target.max_activated_rows)
    if effective_mra <= 2:
        return {"skipped": f"effective MRA is {effective_mra}"}
    report = substitute_nodes(ctx.dag, effective_mra, ctx.config.mra_fraction)
    # fusing XOR(t, x) into t = XOR(x, y) re-mentions x: fold again
    folded = fold_duplicate_operands(ctx.dag)
    return {"merges": report.merges_applied,
            "multi_operand_ops": report.multi_operand_ops,
            "refolded": folded}


def wants_nand_lowering(target: TargetSpec,
                        config: CompilerConfigLike) -> bool:
    """Whether the pipeline should lower XOR/OR to NAND networks.

    An explicit ``config.nand_lowering`` wins; otherwise the technology's
    HRS/LRS window decides (STT-MRAM's small ratio makes direct XOR/OR
    sensing unreliable, Sec. 4.2).
    """
    if config.nand_lowering is not None:
        return config.nand_lowering
    return target.technology.hrs_lrs_ratio < NAND_LOWERING_WINDOW


@_builtin("nand-lower",
          "rewrite XOR/OR into NAND networks on narrow-window technologies",
          invalidates=("b-levels",))
def _run_nand_lower(ctx: CompilationContext) -> dict[str, object]:
    if not wants_nand_lowering(ctx.target, ctx.config):
        return {"skipped": "technology window is wide enough"}
    rewritten = nand_lower(ctx.dag)
    folded = fold_duplicate_operands(ctx.dag)
    return {"rewritten": rewritten, "refolded": folded}


@_builtin("arity-clamp",
          "split ops above the target's MRA limit into balanced trees")
def _run_arity_clamp(ctx: CompilationContext) -> dict[str, object]:
    return {"split": split_multi_operand(ctx.dag,
                                         ctx.target.max_activated_rows)}


@_builtin("validate", "check the bipartite-DAG invariants")
def _run_validate(ctx: CompilationContext) -> None:
    ctx.dag.validate()


# ----------------------------------------------------------------------
# terminal mapping passes
# ----------------------------------------------------------------------
def place_passthrough_outputs(dag: DataFlowGraph,
                              mapping: MappingResult) -> None:
    """Give outputs that alias an input/const a home cell of their own."""
    layout = mapping.layout
    for name, oid in dag.outputs.items():
        if layout.is_placed(oid):
            continue
        for gcol in range(layout.num_global_cols):
            if layout.column_free(gcol) > 0:
                # the output aliases preloaded source data: poked at t=0,
                # so its cell must never be a recycled mid-program cell
                layout.place(oid, gcol, reuse=False)
                break
        else:
            capacity = layout.target.capacity
            raise CapacityError(
                f"no free cell left for program output {name!r} "
                f"(operand {oid}): layout occupies {layout.cells_used}"
                f"/{capacity} cells over {layout.columns_used}"
                f"/{layout.num_global_cols} columns; increase num_arrays",
                required_cells=layout.cells_used + 1,
                available_cells=capacity,
                num_arrays=layout.target.num_arrays)


def _wants_recycle(config: CompilerConfigLike) -> bool:
    return getattr(config, "recycle", "auto") == "always"


@_builtin("map-naive", "Algorithm 1: b-level column-major packing + codegen",
          terminal=True)
def _run_map_naive(ctx: CompilationContext) -> dict[str, object]:
    from repro.mapping.naive import map_naive

    ctx.mapping = map_naive(ctx.dag, ctx.target,
                            recycle=_wants_recycle(ctx.config),
                            fault_map=ctx.fault_map)
    place_passthrough_outputs(ctx.dag, ctx.mapping)
    return {"instructions": len(ctx.mapping.instructions)}


@_builtin("map-sherlock",
          "Algorithm 2: clustering mapper + merged scheduling",
          terminal=True)
def _run_map_sherlock(ctx: CompilationContext) -> dict[str, object]:
    from repro.mapping.optimized import SherlockOptions, map_sherlock

    options = SherlockOptions(
        alpha=ctx.config.alpha, beta=ctx.config.beta,
        merge_instructions=ctx.config.merge_instructions,
        recycle=_wants_recycle(ctx.config))
    ctx.mapping = map_sherlock(ctx.dag, ctx.target, options,
                               fault_map=ctx.fault_map)
    place_passthrough_outputs(ctx.dag, ctx.mapping)
    return {"instructions": len(ctx.mapping.instructions),
            "clusters": ctx.mapping.stats.clusters}


@_builtin("map-multiarray",
          "multi-array co-scheduler: partition the DAG across arrays",
          terminal=True)
def _run_map_multiarray(ctx: CompilationContext) -> dict[str, object]:
    from repro.mapping.multiarray import MultiArrayOptions, map_multiarray

    options = MultiArrayOptions(
        alpha=ctx.config.alpha,
        beta=ctx.config.beta,
        merge_instructions=ctx.config.merge_instructions,
        recycle=_wants_recycle(ctx.config),
        exclude_arrays=ctx.config.exclude_arrays,
        array_penalties=ctx.config.array_penalties)
    ctx.mapping = map_multiarray(ctx.dag, ctx.target, options,
                                 fault_map=ctx.fault_map)
    # recompute duplication mutates a private copy; adopt it as the
    # working graph so layout, liveness and execution stay consistent
    ctx.dag = ctx.mapping.dag
    place_passthrough_outputs(ctx.dag, ctx.mapping)
    return {"instructions": len(ctx.mapping.instructions),
            "arrays_used": ctx.mapping.stats.arrays_used,
            "transfers": ctx.mapping.stats.cross_array_transfers,
            "recomputed_ops": ctx.mapping.stats.recomputed_ops}
