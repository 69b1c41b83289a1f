"""In-memory spans around the program's layer boundaries.

The benchmark installs its own wrappers around the public functions each
layer exposes (plus ``CompileService._process``, the only place a worker
thread learns which request it is serving).  A span records its name,
start and end, the enclosing span on the same thread and, where the
arguments carry one, a request id.  Spans stay in memory; the caller
writes them out when the run ends.  A layer is the name's first
component (``cache.get`` belongs to ``cache``), and a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict

from perfbench.common import median, percentile

#: layers whose self time the traced run reports as a share of all
#: traced time in the process that served the work
LAYERS = ("server", "frontend", "service", "cache", "core", "mapping",
          "sim", "dfg", "reliability")

#: pass-event names the traced run reports one metric each for; any other
#: pass lands in ``core.pass.other_ms``
PASS_NAMES = (
    "fold-duplicates", "cse", "mra-substitute", "nand-lower",
    "arity-clamp", "validate", "map-sherlock", "map-multiarray",
    "map-naive", "ladder:sherlock+recycle", "ladder:sherlock+partitioned",
    "ladder:naive+partitioned", "ladder:multiarray+recycle", "ladder:remap")


def pass_metric(name: str) -> str:
    """The per-layer metric name of one pass event, in allowed characters."""
    clean = "".join(ch if ch.isalnum() or ch in "_.-" else "_"
                    for ch in name)
    return f"core.pass.{clean}_ms"


class Tracer:
    """Collects spans and counters from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.enabled = True
        #: spans below this index were recorded before the last reset
        self.floor = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str, request_id: str | None = None) -> int:
        """Open a span on this thread; returns its index."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        if request_id is None and stack:
            request_id = self.spans[parent][5]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), request_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``index`` (the innermost open one on this thread)."""
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a counter."""
        with self._lock:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        """Record one observation of a per-call quantity."""
        with self._lock:
            self.samples[name].append(value)

    def reset(self) -> None:
        """Drop everything recorded so far (set-up work, for instance)."""
        with self._lock:
            self.floor = len(self.spans)
            self.counts.clear()
            self.samples.clear()

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, request_id=None,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``request_id(args, kwargs)`` extracts a request id from the call;
        ``after(tracer, args, result, state)`` runs once the span closed,
        with ``state = before(args)`` taken before the call.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            rid = request_id(args, kwargs) if request_id else None
            state = before(args) if before is not None else None
            index = tracer.begin(name, rid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, args, result, state)
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- reporting -----------------------------------------------------
    def write(self, path: str) -> None:
        """Write every closed span as one JSON line each."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, thread, rid in self.spans[
                    self.floor:]:
                if end is None:
                    continue
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread,
                    "request_id": rid}) + "\n")

    def aggregate(self) -> dict:
        """Per-name durations, per-layer entry durations and self time.

        A layer's entry spans are those whose parent belongs to another
        layer (or that have none): one per call into the layer.

        Everything here is JSON-compatible, so a server child can hand it
        to the benchmark process.
        """
        spans = [(index, span) for index, span in enumerate(self.spans)
                 if index >= self.floor and span[2] is not None]
        child_time = defaultdict(float)
        for _index, (_name, start, end, parent, _t, _r) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list[float]] = defaultdict(list)
        entries: dict[str, list[float]] = defaultdict(list)
        self_by_layer: dict[str, float] = defaultdict(float)
        root_total = 0.0
        for index, (name, start, end, parent, _t, _r) in spans:
            duration = end - start
            layer = name.split(".")[0]
            by_name[name].append(duration * 1e3)
            if parent < 0 or self.spans[parent][0].split(".")[0] != layer:
                entries[layer].append(duration * 1e3)
            self_by_layer[layer] += (
                duration - child_time[index]) * 1e3
            if parent < 0:
                root_total += duration * 1e3

        def summary(values):
            return {"n": len(values), "p50": median(values),
                    "p99": percentile(values, 99), "total": sum(values)}

        return {
            "spans": len(spans),
            "durations_ms": {name: summary(values)
                             for name, values in by_name.items()},
            "entries_ms": {layer: summary(values)
                           for layer, values in entries.items()},
            "self_ms": dict(self_by_layer),
            "root_ms": root_total,
            "counts": dict(self.counts),
            "samples": {name: {"n": len(values), "mean": sum(values)
                               / len(values), "p50": median(values)}
                        for name, values in self.samples.items()},
        }


# ----------------------------------------------------------------------
# the wrappers
# ----------------------------------------------------------------------
def _request_of_obj(args, kwargs):
    obj = args[0] if args else kwargs.get("obj")
    return str(obj.get("id", "")) if isinstance(obj, dict) else None


def _request_of_job(args, kwargs):
    job = args[1] if len(args) > 1 else None
    request = getattr(job, "request", None)
    return getattr(request, "request_id", None)


def _after_lower(tracer, args, dag, state):
    tracer.sample("frontend.ops", dag.num_ops)


def _entry_bytes(tracer, path) -> None:
    try:
        tracer.sample("cache.entry_bytes", os.stat(path).st_size)
    except OSError:
        pass  # evicted or replaced concurrently


def _after_get(tracer, args, program, state):
    cache, key = args[0], args[1]
    tracer.count("cache.hits" if program is not None else "cache.misses")
    if program is not None:
        _entry_bytes(tracer, cache.path_for(key))


def _after_put(tracer, args, path, state):
    _entry_bytes(tracer, path)


def _after_compile(tracer, args, program, state):
    for event in program.pass_events:
        tracer.sample(pass_metric(event.name)
                      if event.name in PASS_NAMES else "core.pass.other_ms",
                      event.wall_s * 1e3)
    tracer.count("core.ladder_rungs", len(program.ladder))
    stats = program.mapping.stats
    tracer.sample("mapping.instructions", len(program.instructions))
    tracer.sample("mapping.stages", len(program.stages or ()) or 1)
    tracer.sample("mapping.transfers", stats.cross_array_transfers)
    tracer.sample("mapping.recomputed_ops", stats.recomputed_ops)


def _writes_verified(args):
    return args[0].writes_verified


def _after_run(tracer, args, result, before):
    tracer.count("sim.writes_verified", _writes_verified(args) - before)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    mod = importlib.import_module
    server = mod("repro.serve.server")
    service = mod("repro.serve.service")
    cache = mod("repro.serve.cache")
    compiler = mod("repro.core.compiler")
    executor = mod("repro.sim.executor")
    vectorized = mod("repro.sim.vectorized")
    evaluate = mod("repro.dfg.evaluate")
    campaign = mod("repro.reliability.campaign")
    recovery = mod("repro.reliability.recovery")
    frontend = mod("repro.frontend")

    tracer.wrap(server, "parse_request", "server.parse",
                request_id=_request_of_obj)
    # bitweaving's DAG builder lowers its segments through its own import
    # of c_to_dfg, bound before or after this wrapper depending on import
    # order: wrap both names so its frontend work is always counted
    for module in (frontend, mod("repro.workloads.bitweaving")):
        tracer.wrap(module, "c_to_dfg", "frontend.lower", after=_after_lower)
    tracer.wrap(service.CompileService, "_process", "service.process",
                request_id=_request_of_job)
    tracer.wrap(cache.ArtifactCache, "key_for", "cache.key")
    tracer.wrap(cache.ArtifactCache, "get", "cache.get", after=_after_get)
    tracer.wrap(cache.ArtifactCache, "put", "cache.put", after=_after_put)
    tracer.wrap(compiler.SherlockCompiler, "compile", "core.compile",
                after=_after_compile)
    tracer.wrap(compiler, "map_partitioned", "mapping.partition")
    tracer.wrap(compiler.CompiledProgram, "execute", "sim.execute")
    tracer.wrap(compiler.CompiledProgram, "execute_many", "sim.execute_many")
    tracer.wrap(executor.ArrayMachine, "run", "sim.run",
                before=_writes_verified, after=_after_run)
    tracer.wrap(vectorized, "execute", "sim.vector_execute")
    tracer.wrap(vectorized, "execute_many", "sim.vector_many")
    tracer.wrap(vectorized, "campaign_trials", "sim.vector_campaign")
    for module in (evaluate, service):
        tracer.wrap(module, "evaluate_many", "dfg.evaluate_many")
    for module in (evaluate, service, campaign, recovery, compiler):
        tracer.wrap(module, "evaluate", "dfg.evaluate")
    tracer.wrap(campaign, "run_campaign", "reliability.campaign")
    return tracer
