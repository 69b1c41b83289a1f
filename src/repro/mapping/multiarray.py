"""Multi-array co-scheduler: partition the DAG across arrays (MASIM-style).

The historical mappers treat ``TargetSpec.num_arrays`` as extra capacity
behind one global column space: columns spill into the next array when the
previous one fills, and spill-and-partition runs its stages *serially*.
This module instead partitions the schedule across the arrays so that
independent regions of the DAG execute *concurrently*, synchronizing only
at explicit ``xfer`` bridge copies on the shared global bus.

The partition works at the granularity of the clustering mapper's Eq. 1
clusters (:mod:`repro.mapping.clustering`): structurally similar clusters
are what keeps the level-synchronous scheduler's instruction merging
alive, so clusters — not single ops — are the unit that moves between
arrays.  The assignment pass walks the clusters in schedule order and
scores every array for every cluster:

* **affinity** — external operands whose producers already compute on an
  array pull the cluster there (each avoided bridge saves a read + xfer +
  shift + write chain on the bus),
* **balance** — estimated cell load (cluster footprints), relative to the
  array's *healthy* capacity under the compile's fault map, pushes
  clusters away from crowded or fault-ridden arrays.

Each cross-array operand edge is then priced: carrying the value over
costs a bridge chain, while *recomputing* the producer on the consumer's
array costs one CIM read + write — legal only when every producer operand
already has a copy there.  Cheaper recomputes are applied as real DAG
duplication (:func:`apply_recompute`), trading cells for bus traffic the
same way the naive mapper trades cells for gathers.

Every cluster then binds to one column of its assigned array, and the
shared :class:`repro.mapping.codegen.CodeGenerator` emits the
level-synchronous merged schedule with ``prefer_local_copies`` on, so a
copy that already crossed the bus is never fetched across it again.  The
resulting single instruction stream interleaves per-array sub-streams;
the overlap model (:func:`repro.sim.metrics.analyze_overlap`) prices them
as concurrent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.arch.layout import Layout
from repro.arch.target import TargetSpec
from repro.dfg.blevel import blevel_order
from repro.dfg.graph import DataFlowGraph
from repro.errors import CapacityError, MappingError
from repro.mapping.base import MappingResult, MappingStats
from repro.mapping.clustering import Cluster, find_clusters, merge_clusters
from repro.mapping.codegen import CodeGenerator

__all__ = [
    "ArrayAssignment",
    "MultiArrayOptions",
    "apply_recompute",
    "assign_arrays",
    "map_multiarray",
]


@dataclass(frozen=True)
class MultiArrayOptions:
    """Tuning knobs of the multi-array co-scheduler."""

    #: Eq. 1 clustering weights (same roles as ``SherlockOptions``)
    alpha: float = 1.0
    beta: float = 0.05
    #: score per operand copy already resident on a candidate array
    affinity_weight: float = 1.0
    #: penalty per unit of relative cell load on a candidate array
    balance_weight: float = 2.0
    #: duplicate a producer op instead of bridging its value when the
    #: recompute is legal (operands resident) and priced cheaper
    recompute: bool = True
    #: merge compatible instructions across columns (needs selective columns)
    merge_instructions: bool = True
    #: fraction of a column the clustering phase may fill; the rest stays
    #: free as row-alignment padding budget (mirrors ``SherlockOptions``)
    merge_headroom: float = 0.6
    #: release dead operand cells during generation (ladder rung)
    recycle: bool = False
    #: array ids the assignment must not place onto (health quarantine);
    #: excluding every array is a MappingError
    exclude_arrays: tuple[int, ...] = ()
    #: ``(array, cost)`` pairs subtracted from a candidate array's
    #: assignment score — the health registry's DEGRADED verdict as a
    #: soft preference (quarantine is the hard ``exclude_arrays`` form)
    array_penalties: tuple[tuple[int, float], ...] = ()

    def penalty_of(self) -> dict[int, float]:
        """The ``array_penalties`` pairs as a lookup dict."""
        return {int(a): float(p) for a, p in self.array_penalties}


@dataclass
class ArrayAssignment:
    """Where every op computes, and what the partition is estimated to cost."""

    #: op node id -> array id
    array_of: dict[int, int] = field(default_factory=dict)
    #: producer op id -> arrays it is duplicated onto (recompute sites)
    recomputed: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: cross-array operand edges priced as xfer bridge chains
    bridge_edges: int = 0
    #: modeled cycles of those bridge chains (read + xfer + shift + write)
    bridge_cycles: int = 0
    #: modeled cycles spent on duplicate recomputes instead of bridges
    recompute_cycles: int = 0
    #: estimated operand cells per array (results + gather copies)
    load: dict[int, int] = field(default_factory=dict)

    def arrays_used(self) -> int:
        """Number of arrays the assignment actually populates."""
        return len(set(self.array_of.values()))


def _bridge_cycles(target: TargetSpec) -> int:
    """Modeled cycles of one cross-array gather chain."""
    cost = target.cost_model

    def cycles(ns: float) -> int:
        return max(1, math.ceil(ns * target.clock_ghz))

    return (cycles(cost.read_latency_ns(1)) + cycles(cost.transfer_latency_ns())
            + cycles(cost.shift_latency_ns()) + cycles(cost.write_latency_ns()))


def _recompute_cycles(target: TargetSpec, arity: int) -> int:
    """Modeled cycles of re-running one op (CIM read + result write)."""
    cost = target.cost_model

    def cycles(ns: float) -> int:
        return max(1, math.ceil(ns * target.clock_ghz))

    return (cycles(cost.read_latency_ns(max(1, arity)))
            + cycles(cost.write_latency_ns()))


def _healthy_capacity(target: TargetSpec, fault_map,
                      exclude: tuple[int, ...] = ()) -> dict[int, int]:
    """Usable cells per array, discounting permanently faulty cells.

    Arrays in ``exclude`` (quarantined by the health registry) are
    dropped from the capacity map entirely, so neither the cluster
    assignment nor the capacity check ever considers them.
    """
    capacity = {a: target.cols * target.usable_rows
                for a in range(target.num_arrays) if a not in exclude}
    if not capacity:
        raise MappingError(
            f"exclude_arrays {tuple(sorted(exclude))} leaves none of the "
            f"target's {target.num_arrays} arrays schedulable")
    if fault_map is not None:
        for (array, row, col), _fault in fault_map.cells():
            if (array in capacity and row < target.usable_rows
                    and col < target.cols):
                capacity[array] -= 1
    return capacity


def _assign_clusters(dag: DataFlowGraph, clusters: list[Cluster],
                     options: MultiArrayOptions, capacity: dict[int, int],
                     cols: int) -> dict[int, int]:
    """Greedy cluster -> array choice: affinity minus load imbalance.

    Clusters are visited in schedule order (earliest op in the b-level
    schedule first), so producers' homes are known when their consumers'
    clusters are placed.  An array is a candidate only while it has both
    healthy cells for the cluster's footprint and a free column to bind
    it to — columns, not cells, are the scarce resource on small targets.
    Returns op id -> array for every clustered op.
    """
    arrays = sorted(capacity)
    scale = max(1, sum(capacity.values()) // max(1, len(arrays)))
    penalty = options.penalty_of()
    load = {a: 0 for a in arrays}
    cols_used = {a: 0 for a in arrays}
    position = {op_id: idx for idx, op_id in enumerate(blevel_order(dag))}
    op_array: dict[int, int] = {}

    for cluster in sorted(clusters,
                          key=lambda c: min(position[op] for op in c.ops)):
        producers = {dag.operand(oid).producer for oid in cluster.external}
        producers.discard(None)

        def score(a: int) -> float:
            resident = sum(1 for p in producers if op_array.get(p) == a)
            return (options.affinity_weight * resident
                    - options.balance_weight * load[a] / scale
                    - penalty.get(a, 0.0))

        fitting = [a for a in arrays
                   if load[a] + cluster.footprint <= capacity[a]
                   and cols_used[a] < cols]
        candidates = fitting or arrays
        best = max(candidates, key=lambda a: (score(a), -a))
        load[best] += cluster.footprint
        cols_used[best] += 1
        for op_id in cluster.ops:
            op_array[op_id] = best
    return op_array


def assign_arrays(dag: DataFlowGraph, target: TargetSpec,
                  options: MultiArrayOptions | None = None,
                  fault_map=None,
                  clusters: list[Cluster] | None = None) -> ArrayAssignment:
    """Partition the schedule across the target's arrays.

    With ``clusters`` (the production path), whole Eq. 1 clusters move
    between arrays — structural similarity inside an array is what keeps
    instruction merging effective — and the b-level walk only prices the
    resulting cross-array operand edges.  Without clusters the same
    greedy runs per op: each op lands on the array maximizing operand
    affinity minus load imbalance.  Either way every cross-array edge is
    priced as a bridge chain or (when legal and cheaper) a duplicate
    recompute.  The estimates steer the partition; correctness never
    depends on them — the code generator gathers whatever is missing.
    """
    options = options or MultiArrayOptions()
    assignment = ArrayAssignment()
    capacity = _healthy_capacity(target, fault_map,
                                 exclude=options.exclude_arrays)
    arrays = sorted(capacity)
    scale = max(1, sum(capacity.values()) // max(1, len(arrays)))
    penalty = options.penalty_of()
    bridge = _bridge_cycles(target)
    preassigned = (_assign_clusters(dag, clusters, options, capacity,
                                    target.cols)
                   if clusters is not None else {})
    # operand id -> arrays estimated to hold a physical copy
    sites: dict[int, set[int]] = {}
    recomputed: dict[int, set[int]] = {}
    load = {a: 0 for a in arrays}

    for op_id in blevel_order(dag):
        node = dag.op(op_id)
        operands = list(dict.fromkeys(node.operands))

        if op_id in preassigned:
            best = preassigned[op_id]
        else:
            def score(a: int) -> float:
                resident = sum(1 for oid in operands
                               if a in sites.get(oid, ()))
                return (options.affinity_weight * resident
                        - options.balance_weight * load[a] / scale
                        - penalty.get(a, 0.0))

            need = {a: 1 + sum(1 for oid in operands
                               if a not in sites.get(oid, ()))
                    for a in arrays}
            fitting = [a for a in arrays if load[a] + need[a] <= capacity[a]]
            candidates = fitting or arrays
            best = max(candidates, key=lambda a: (score(a), -a))
            load[best] += need[best]

        for oid in operands:
            holders = sites.setdefault(oid, set())
            if best in holders:
                continue
            producer = dag.operand(oid).producer
            if producer is None and not holders:
                # a source's first placement is free: it is preloaded (or a
                # constant poked) wherever its first consumer computes
                holders.add(best)
                continue
            legal = (options.recompute and producer is not None
                     and best not in recomputed.get(producer, set())
                     and all(best in sites.get(q, set())
                             for q in dag.op(producer).operands))
            if legal:
                cost = _recompute_cycles(target, dag.op(producer).arity)
                if cost < bridge:
                    recomputed.setdefault(producer, set()).add(best)
                    assignment.recompute_cycles += cost
                    holders.add(best)
                    continue
            assignment.bridge_edges += 1
            assignment.bridge_cycles += bridge
            holders.add(best)
        assignment.array_of[op_id] = best
        sites.setdefault(node.result, set()).add(best)

    assignment.recomputed = {p: tuple(sorted(a)) for p, a in
                             sorted(recomputed.items())}
    counts: dict[int, int] = {}
    for array in assignment.array_of.values():
        counts[array] = counts.get(array, 0) + 1
    assignment.load = dict(sorted(counts.items()))
    return assignment


def apply_recompute(dag: DataFlowGraph, assignment: ArrayAssignment) -> int:
    """Materialize the assignment's recompute sites as DAG duplication.

    Each recomputed producer is cloned once per extra array and the
    consumers assigned there are rewired to the clone, so the value never
    crosses the bus.  The original op keeps the program outputs and the
    consumers on its own array.  Returns the number of clones added.
    """
    clones = 0
    for producer_id, extra_arrays in assignment.recomputed.items():
        node = dag.op(producer_id)
        home = assignment.array_of.get(producer_id)
        for array in extra_arrays:
            if array == home:
                continue
            rewire = [c for c in dag.consumers(node.result)
                      if assignment.array_of.get(c) == array]
            if not rewire:
                continue
            clone_result = dag.add_op(node.op, list(node.operands))
            clone_id = dag.operand(clone_result).producer
            assignment.array_of[clone_id] = array
            for consumer in rewire:
                consumer_node = dag.op(consumer)
                dag.replace_op(consumer, operands=[
                    clone_result if oid == node.result else oid
                    for oid in consumer_node.operands])
            clones += 1
    return clones


def _bind_clusters(dag: DataFlowGraph, target: TargetSpec,
                   clusters: list[Cluster],
                   assignment: ArrayAssignment,
                   available: int) -> tuple[dict[int, int], dict[int, int],
                                           dict[int, int]]:
    """One column per cluster on its assigned array; clones ride along.

    Mirrors the clustering mapper's binding: cluster *i* of an array takes
    that array's next local column, and the headroom above its planned
    footprint becomes the column's row-alignment padding budget.
    Recompute clones (ops outside every cluster) join the column of a
    consumer they were cloned for, spending that column's padding.
    Raises :class:`CapacityError` when an array runs out of columns.
    """
    local_next = {a: 0 for a in range(target.num_arrays)}
    column_of: dict[int, int] = {}
    pad_budget: dict[int, int] = {}
    for cluster in clusters:
        array = assignment.array_of[cluster.ops[0]]
        if local_next[array] >= target.cols:
            raise CapacityError(
                f"array {array} needs more than its {target.cols} columns "
                "for the co-scheduled clusters",
                required_cells=dag.num_operands,
                available_cells=available,
                num_arrays=target.num_arrays,
                suggested_num_arrays=max(target.num_arrays + 1, math.ceil(
                    len(clusters) / target.cols)))
        gcol = array * target.cols + local_next[array]
        local_next[array] += 1
        for op_id in cluster.ops:
            column_of[op_id] = gcol
        pad_budget[gcol] = max(0, target.rows - cluster.footprint)

    for op_id, array in assignment.array_of.items():
        if op_id in column_of:
            continue
        node = dag.op(op_id)
        gcol = next((column_of[c] for c in dag.consumers(node.result)
                     if c in column_of), None)
        if gcol is None:
            continue  # clone without bound consumers: codegen never reaches it
        column_of[op_id] = gcol
        pad_budget[gcol] = max(0, pad_budget[gcol] - (1 + node.arity))
    return column_of, pad_budget, local_next


def _stage_shared_sources(dag: DataFlowGraph, layout: Layout,
                          column_of: dict[int, int], target: TargetSpec,
                          local_next: dict[int, int]) -> None:
    """Park source data shared between clusters in per-array staging columns.

    Same rationale as the clustering mapper's staging pass: a primary
    input sitting in one cluster's column desynchronizes that column's
    top-down region from its structural peers and breaks instruction
    merging.  Each multi-cluster source lands in a staging column of the
    array where most of its consumers compute (only the primary copy is
    preloaded, so there is exactly one staging site per source); arrays
    whose staging space is exhausted fall back to first-user placement
    inside the code generator.
    """
    usable = target.usable_rows
    staged = {a: a * target.cols + local_next[a]
              for a in range(target.num_arrays)}
    for operand in sorted(dag.operand_nodes(), key=lambda o: o.node_id):
        if operand.producer is not None:
            continue
        consuming = {column_of[op_id]
                     for op_id in dag.consumers(operand.node_id)
                     if op_id in column_of}
        if len(consuming) <= 1:
            continue
        votes: dict[int, int] = {}
        for gcol in consuming:
            array = gcol // target.cols
            votes[array] = votes.get(array, 0) + 1
        array = max(sorted(votes), key=lambda a: votes[a])
        limit = (array + 1) * target.cols
        gcol = staged[array]
        while gcol < limit:
            if layout.column_fill(gcol) >= usable:
                gcol += 1
                continue
            try:
                # preloaded at t=0: never place sources into a recycled cell
                layout.place(operand.node_id, gcol, reuse=False)
                break
            except MappingError:
                # fault-aware placement exhausted the column's healthy cells
                gcol += 1
        staged[array] = min(gcol, limit)


def map_multiarray(dag: DataFlowGraph, target: TargetSpec,
                   options: MultiArrayOptions | None = None,
                   fault_map=None) -> MappingResult:
    """Map and schedule ``dag`` as a concurrent multi-array program.

    The input DAG is left untouched: recompute duplication mutates a
    private copy, which the returned :class:`MappingResult` carries as its
    ``dag`` (callers compiling through the pass manager adopt it as the
    working graph).  ``fault_map`` steers the assignment (per-array
    healthy capacity), the placement (faulty rows are burned), and the
    merge decisions (faulty aligned windows fall back to unaligned).
    """
    options = options or MultiArrayOptions()
    dag.validate()
    if not 0 < options.merge_headroom <= 1:
        raise MappingError(
            f"merge_headroom must be in (0, 1], got {options.merge_headroom}")
    work = dag.copy()
    c_max = target.usable_rows
    build_cap = max(3, int(c_max * options.merge_headroom))
    k = max(1, math.ceil(work.num_operands / c_max))
    clusters = find_clusters(work, build_cap, options.alpha, options.beta)
    clusters, merges = merge_clusters(clusters, k, build_cap, work)

    assignment = assign_arrays(work, target, options, fault_map=fault_map,
                               clusters=clusters)
    clones = apply_recompute(work, assignment)
    available = sum(_healthy_capacity(
        target, fault_map, exclude=options.exclude_arrays).values())
    if work.num_operands > available:
        raise CapacityError(
            f"DAG needs at least {work.num_operands} cells but the target's "
            f"{target.num_arrays} arrays only offer {available} healthy "
            "usable cells; co-scheduling cannot fit it either",
            required_cells=work.num_operands,
            available_cells=available,
            num_arrays=target.num_arrays)
    column_of, pad_budget, local_next = _bind_clusters(
        work, target, clusters, assignment, available)

    layout = Layout(target, fault_map=fault_map)
    _stage_shared_sources(work, layout, column_of, target, local_next)
    stats = MappingStats("multiarray")
    stats.clusters = len(clusters)
    stats.cluster_merges = merges
    stats.recomputed_ops = clones
    gen = CodeGenerator(work, target, layout, stats, pad_budget=pad_budget,
                        recycle=options.recycle, prefer_local_copies=True)
    if options.merge_instructions and target.selective_columns:
        gen.run_merged(column_of)
    else:
        gen.run_per_op(lambda op_id: column_of[op_id], place_results=True)

    result = MappingResult(dag=work, target=target, layout=layout,
                           instructions=gen.instructions, stats=stats)
    result.finalize_stats()
    return result
