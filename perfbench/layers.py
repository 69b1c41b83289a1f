"""The per-layer metrics of a traced run, assembled from spans and counters.

Every workload reports every name below; a layer the workload does not
reach reads 0 (that is the prediction for it, see ``README.md``).
"""

from __future__ import annotations

from perfbench.tracing import LAYERS, PASS_NAMES, pass_metric

_COUNT = "count"

PER_LAYER: dict[str, str] = {
    "server.parse_ms.p50": "ms",
    "server.parse_ms.p99": "ms",
    "server.error_answers": _COUNT,
    "frontend.lower_ms": "ms",
    "frontend.calls": _COUNT,
    "frontend.ops": "ops",
    "service.wait_ms.p50": "ms",
    "service.wait_ms.p99": "ms",
    "service.total_ms.p50": "ms",
    "service.total_ms.p99": "ms",
    "service.queue_high_water": _COUNT,
    "service.shed": _COUNT,
    "service.retries": _COUNT,
    "service.cpu_served": _COUNT,
    "service.votes": _COUNT,
    "service.vote_disagreements": _COUNT,
    "cache.key_ms": "ms",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.hits": _COUNT,
    "cache.misses": _COUNT,
    "cache.evictions": _COUNT,
    "cache.quarantined": _COUNT,
    "cache.entry_bytes": "bytes",
    "core.compile_ms": "ms",
    "core.compile_calls": _COUNT,
    "core.ladder_rungs": _COUNT,
    **{pass_metric(name): "ms" for name in PASS_NAMES},
    "core.pass.other_ms": "ms",
    "mapping.partition_ms": "ms",
    "mapping.instructions": _COUNT,
    "mapping.stages": _COUNT,
    "mapping.transfers": _COUNT,
    "mapping.recomputed_ops": _COUNT,
    "sim.execute_ms": "ms",
    "sim.interpreted_calls": _COUNT,
    "sim.vectorized_calls": _COUNT,
    "sim.writes_verified": _COUNT,
    "dfg.evaluate_ms": "ms",
    "dfg.evaluate_calls": _COUNT,
    "campaign.trial_ms.none": "ms",
    "campaign.trial_ms.reread-vote": "ms",
    "campaign.trial_ms.degrade-mra": "ms",
    "campaign.trial_ms.checkpoint-replay": "ms",
    "campaign.extra_senses": _COUNT,
    "campaign.votes": _COUNT,
    "campaign.rollbacks": _COUNT,
    "campaign.replayed_instructions": _COUNT,
    "campaign.decision_failure_rate": "ratio",
    "campaign.output_failure_rate": "ratio",
    "health.transitions": _COUNT,
    "breaker.trips": _COUNT,
    "generator.late_ms.p99": "ms",
    "generator.backlog": "flag",
    **{f"selftime.{layer}_pct": "%" for layer in LAYERS},
    "trace.latency_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def per_layer(agg: dict, layers: dict) -> dict[str, float]:
    """Every per-layer metric from a span aggregate plus workload numbers.

    ``agg`` is :meth:`perfbench.tracing.Tracer.aggregate` of the process
    that did the work; ``layers`` holds what the workload measured itself
    (stats-endpoint deltas, client-side waits, campaign counters).
    """
    durations = agg["durations_ms"]
    entries = agg["entries_ms"]
    counts = agg["counts"]
    samples = agg["samples"]

    def span(name: str, key: str = "p50") -> float:
        return durations.get(name, {}).get(key, 0)

    def mean(name: str) -> float:
        return samples.get(name, {}).get("mean", 0)

    out = {name: 0 for name in PER_LAYER}
    out.update({
        "server.parse_ms.p50": span("server.parse"),
        "server.parse_ms.p99": span("server.parse", "p99"),
        "frontend.lower_ms": span("frontend.lower"),
        "frontend.calls": span("frontend.lower", "n"),
        "frontend.ops": mean("frontend.ops"),
        "cache.key_ms": span("cache.key"),
        "cache.get_ms": span("cache.get"),
        "cache.put_ms": span("cache.put"),
        "cache.hits": counts.get("cache.hits", 0),
        "cache.misses": counts.get("cache.misses", 0),
        "cache.entry_bytes": mean("cache.entry_bytes"),
        "core.compile_ms": span("core.compile"),
        "core.compile_calls": span("core.compile", "n"),
        "core.ladder_rungs": counts.get("core.ladder_rungs", 0),
        "mapping.partition_ms": span("mapping.partition"),
        "sim.execute_ms": entries.get("sim", {}).get("p50", 0),
        "sim.interpreted_calls": span("sim.run", "n"),
        "sim.vectorized_calls": sum(
            span(name, "n") for name in ("sim.vector_execute",
                                         "sim.vector_many",
                                         "sim.vector_campaign")),
        "sim.writes_verified": counts.get("sim.writes_verified", 0),
        "dfg.evaluate_ms": entries.get("dfg", {}).get("p50", 0),
        "dfg.evaluate_calls": entries.get("dfg", {}).get("n", 0),
    })
    hits, misses = out["cache.hits"], out["cache.misses"]
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    for name in [*(pass_metric(p) for p in PASS_NAMES), "core.pass.other_ms"]:
        out[name] = mean(name)
    for name in ("instructions", "stages", "transfers", "recomputed_ops"):
        out[f"mapping.{name}"] = mean(f"mapping.{name}")
    root = agg["root_ms"] or 1.0
    for layer in LAYERS:
        out[f"selftime.{layer}_pct"] = (
            100.0 * agg["self_ms"].get(layer, 0.0) / root)
    out.update({name: value for name, value in layers.items()
                if name in PER_LAYER})
    return out
