"""The compile-and-serve job queue, worker pool, and offload policy.

:class:`CompileService` accepts :class:`ServeRequest`\\ s (a DAG, one set of
lane-bitmask inputs, and the array the request targets), pushes them through
a bounded job queue into a pool of compile workers, and answers with
:class:`ServeResult`\\ s.  Per request the pipeline is:

1. **admission control** — a full queue sheds the request with a structured
   :class:`~repro.errors.ServiceOverloadError` (queue depth, limit, and a
   retry-after hint derived from recent service latency);
2. **compile** — resolve the program through the persistent
   :class:`~repro.serve.cache.ArtifactCache` (corrupt entries quarantine
   and recompile transparently), keyed by the requesting array's current
   fault map, falling back to a fresh fault-aware compile;
3. **execute** — run on the fault-honoring array machine with
   verify-after-write; a :class:`~repro.errors.HardFaultError` triggers the
   remap rung *inside the service loop*: the discovered faults merge into
   the fleet's per-array map, the program recompiles around them, the new
   artifact is published for the whole fleet, and the request re-executes;
4. **offload** — a :class:`~repro.serve.breaker.CircuitBreaker` counts CIM
   failures (compile errors, exhausted retries, deadline misses); while it
   is open — or when an array's healthy capacity drops below threshold —
   requests are served from the CPU baseline
   (:func:`repro.dfg.evaluate.evaluate` for values,
   :func:`repro.sim.cpu.dag_events` + :func:`repro.sim.cpu.run_model` for
   pricing).  Healthy requests are priced CIM-vs-CPU per request.

Worker crashes (or the injectable ``chaos`` hook standing in for them) are
retried with :func:`repro.util.retry.retry_call` under a bounded
exponential-backoff policy; fatal compiler errors are not retried.  Every
stage is timed, and :meth:`CompileService.stats` exposes the counters and
per-stage latency percentiles behind ``sherlock serve --stats``.

On top of the per-request pipeline sits the **active-integrity layer**:

* ``placement="health"`` steers each request to the cheapest healthy
  fleet member instead of its sticky ``array_id`` (DEGRADED arrays carry
  a fixed placement penalty, QUARANTINED arrays are skipped entirely until
  probation readmits them) — and ``schedule="multi"`` compiles
  additionally penalize DEGRADED *sub-arrays* through
  ``CompilerConfig.array_penalties``;
* ``ServeRequest(redundancy=K)`` executes on ``K`` arrays, majority-votes
  the outputs per lane (a CPU referee joins when the fleet is thin or the
  panel would be even, and breaks exact ties), answers with the voted
  result, and reports out-voted arrays to the health registry as
  top-weight failure samples;
* a :class:`~repro.serve.scrub.PatrolScrubber` march-tests idle cells in
  the background (:meth:`CompileService.scrub`, or automatically every
  ``ScrubPolicy.every_requests`` completed jobs) so latent faults — the
  ones input preloads hit *silently* — are discovered, merged into the
  known per-array maps, and placed around before a user's answer is
  corrupted;
* ``shed_policy`` picks who loses under overload: ``"reject"`` the
  newcomer (the historical behavior), ``"oldest"`` the head of the queue,
  or ``"deadline"`` the queued job with the least slack left.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.core.compiler import SherlockCompiler
from repro.core.config import CompilerConfig
from repro.devices.faultmap import FaultMap
from repro.dfg.evaluate import evaluate, evaluate_many
from repro.dfg.ops import majority
from repro.dfg.stats import structural_hash
from repro.errors import (
    DeadlineExceededError,
    HardFaultError,
    ServeError,
    ServiceOverloadError,
    SherlockError,
    WorkerCrashError,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ArtifactCache
from repro.serve.health import (
    ArrayHealth,
    HealthPolicy,
    HealthRegistry,
    subarray_exclusions,
    subarray_penalties,
)
from repro.serve.scrub import PatrolScrubber, ScrubPolicy, ScrubReport
from repro.sim.cpu import CpuSpec, dag_events, run_model
from repro.sim.executor import run_program
from repro.sim.vectorized import validate_engine
from repro.util.retry import RetryPolicy, retry_call

__all__ = [
    "CompileService",
    "ServeRequest",
    "ServeResult",
    "ServiceStats",
    "VALID_PLACEMENTS",
    "VALID_SHED_POLICIES",
]

#: admission-control policies for a full queue (see ``shed_policy``)
VALID_SHED_POLICIES = ("reject", "oldest", "deadline")
#: compile-targeting policies (see ``placement``)
VALID_PLACEMENTS = ("sticky", "health")


@dataclass
class ServeRequest:
    """One unit of work: execute ``dag`` on ``inputs`` for one array."""

    dag: object
    inputs: dict[str, int]
    lanes: int = 16
    request_id: str = ""
    #: which array of the served fleet the request targets (its fault map
    #: keys the compile)
    array_id: int = 0
    #: wall-clock budget from submission; ``None`` = no deadline
    deadline_s: float | None = None
    #: batch mode: many independent input sets through one compile
    #: (``inputs`` is ignored when set; answers land in
    #: :attr:`ServeResult.batch_outputs`)
    input_sets: list[dict[str, int]] | None = None
    #: execution backend for the CIM path ("auto" | "interpreted" |
    #: "vectorized"); batch requests resolve "auto" to the vectorized
    #: op-table
    engine: str = "auto"
    #: voted redundant execution: run on this many arrays and answer with
    #: the per-lane majority (1 = plain single-array execution; a CPU
    #: referee joins thin fleets and breaks even-panel ties)
    redundancy: int = 1


@dataclass
class ServeResult:
    """The service's answer for one request."""

    request_id: str
    outputs: dict[str, int] | None
    #: which engine produced the outputs: "cim" or "cpu"
    engine: str = "cim"
    #: per-set outputs of a batch request (None for single-input requests)
    batch_outputs: list[dict[str, int]] | None = None
    #: whether the program came from the persistent artifact cache
    cached: bool = False
    #: whether the remap rung ran inside the service loop for this request
    remapped: bool = False
    #: the compile's degradation rung ("none" = clean compile)
    degradation: str = "none"
    #: why the request was served from the CPU baseline (None = CIM)
    offload_reason: str | None = None
    #: failure description when not even the CPU baseline could answer
    error: str | None = None
    compile_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0
    #: modeled one-run CIM latency (None when the CIM path did not run)
    cim_latency_us: float | None = None
    #: modeled CPU-baseline latency for the same work (priced per request)
    cpu_latency_us: float | None = None
    array_id: int = 0
    #: the array health-aware placement actually compiled/executed on
    #: (== ``array_id`` under sticky placement; None for CPU-only answers)
    placed_array: int | None = None
    #: whether the outputs are a redundancy-K majority vote
    voted: bool = False
    #: the voting panel: fleet array ids plus "cpu" for the referee
    voters: tuple = ()
    #: arrays whose ballot the majority out-voted (reported to health)
    disagreeing: tuple = ()
    #: whether admission control evicted this request under overload
    shed: bool = False


def _majority_outputs(ballots: list[dict[str, int]], lanes: int,
                      tiebreak: dict[str, int] | None = None
                      ) -> dict[str, int]:
    """Per-lane majority of every output over a ballot panel.

    With an even panel, lanes split exactly in half are resolved by
    ``tiebreak`` (the CPU referee's ballot) — the panel construction
    guarantees a referee is present whenever a tie is possible.
    """
    mask = (1 << lanes) - 1
    return {name: majority([ballot[name] for ballot in ballots], mask,
                           None if tiebreak is None else tiebreak[name])
            for name in ballots[0]}


def _cpu_outputs(request: ServeRequest):
    """The CPU reference evaluator's answer (one per set for a batch)."""
    if request.input_sets is not None:
        return evaluate_many(request.dag, request.input_sets, request.lanes)
    return evaluate(request.dag, request.inputs, request.lanes)


def _percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (nearest-rank) of a latency sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: latency samples kept per stage (a bounded window so a long-lived server
#: does not grow without bound)
_LATENCY_WINDOW = 2048

#: (array, dag) pairs remembered for proactive health recompiles
_SERVED_DAG_WINDOW = 32


class ServiceStats:
    """Thread-safe counter table and latency windows of one service.

    One dict holds every counter, in :meth:`snapshot` order; ``placements``
    is the one per-array tally in it (requests placed on each array).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict = dict.fromkeys((
            "requests", "completed", "cim_served", "cpu_served", "shed",
            "retries", "remaps", "proactive_recompiles", "deadline_misses",
            "cim_failures", "errors", "queue_high_water", "votes",
            "vote_disagreements", "placement_shifts"), 0)
        self._counts["placements"] = {}
        self._windows: dict[str, list[float]] = {
            "compile": [], "execute": [], "total": []}

    def add(self, name: str, n: int = 1, *, key: int | None = None) -> None:
        """Bump counter ``name`` by ``n``.

        ``key`` picks the per-array bucket of the ``placements`` tally.
        """
        with self._lock:
            if key is None:
                self._counts[name] += n
            else:
                tally = self._counts[name]
                tally[key] = tally.get(key, 0) + n

    def high_water(self, name: str, value: int) -> None:
        """Raise counter ``name`` to ``value`` if that is a new maximum."""
        with self._lock:
            self._counts[name] = max(self._counts[name], value)

    def record(self, result: ServeResult) -> None:
        """Fold one finished request into the counters and windows."""
        if result.error is not None:
            outcome = "errors"
        else:
            outcome = "cim_served" if result.engine == "cim" else "cpu_served"
        with self._lock:
            self._counts["completed"] += 1
            self._counts[outcome] += 1
            for stage, value in (("compile", result.compile_s),
                                 ("execute", result.execute_s),
                                 ("total", result.total_s)):
                window = self._windows[stage]
                window.append(value)
                if len(window) > _LATENCY_WINDOW:
                    del window[:len(window) - _LATENCY_WINDOW]

    def typical_latency_s(self) -> float:
        """Median end-to-end service time of recent requests (0 if none)."""
        with self._lock:
            return _percentile(self._windows["total"], 50)

    def snapshot(self) -> dict:
        """All counters plus p50/p90/p99 of every stage window."""
        with self._lock:
            out = dict(self._counts)
            out["placements"] = dict(sorted(out["placements"].items()))
            for stage, window in self._windows.items():
                for q in (50, 90, 99):
                    out[f"{stage}_p{q}_ms"] = round(
                        _percentile(window, q) * 1e3, 3)
            return out


class _Job:
    """One queued request with its completion event and result slot."""

    __slots__ = ("request", "enqueued_at", "event", "result")

    def __init__(self, request: ServeRequest, enqueued_at: float) -> None:
        self.request = request
        self.enqueued_at = enqueued_at
        self.event = threading.Event()
        self.result: ServeResult | None = None

    def wait(self, timeout: float | None = None) -> ServeResult:
        """Block until the worker pool finished this job."""
        if not self.event.wait(timeout):
            raise ServeError(
                f"request {self.request.request_id!r} did not complete "
                f"within {timeout} s")
        assert self.result is not None
        return self.result


#: default retry policy: worker crashes and transient I/O are retryable,
#: everything the compiler raises is fatal for the attempt
_DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.001,
                             max_delay_s=0.05,
                             retryable=(WorkerCrashError, OSError))

#: an array with fewer healthy cells than this share, or a fleet with fewer
#: non-quarantined tracked arrays, offloads to the CPU baseline
_MIN_HEALTHY_FRACTION = 0.5

#: placement surcharge of a DEGRADED array (and the multi-array assignment
#: penalty of a DEGRADED-density sub-array)
_PLACEMENT_PENALTY = 4.0


class CompileService:
    """Compile-and-serve runtime for one target/config over a fleet of arrays.

    ``cache`` is the persistent :class:`ArtifactCache` shared by the fleet
    (``None`` disables persistence).  ``fault_maps`` seeds the per-array
    *known* fault maps that key compiles; ``machine_faults`` optionally
    provides per-array ground-truth maps the simulated machines honor —
    faults present there but absent from the known map are what
    verify-after-write discovers and the in-loop remap rung repairs.

    ``chaos`` is a test hook called as ``chaos(stage, request)`` at the
    start of the compile and execute stages; raising
    :class:`~repro.errors.WorkerCrashError` from it simulates a worker
    killed mid-job (the retry policy re-runs the job).  ``clock`` and
    ``sleep`` are injectable for deterministic tests.

    Every machine run (verify-after-write is always on) feeds its write
    telemetry into the service's per-array
    :class:`~repro.serve.health.HealthRegistry` (``health_policy`` tunes
    its thresholds).  The registry's decisions close the loop:
    quarantined arrays stop receiving CIM traffic (probation probes
    excepted), a fleet mostly quarantined trips the breaker into CPU
    offload, a degrading array's cached artifacts are proactively
    recompiled in the background against its current fault map, and
    ``schedule="multi"`` compiles exclude fault-saturated sub-arrays via
    ``CompilerConfig.exclude_arrays`` (and penalize DEGRADED-density ones
    via ``CompilerConfig.array_penalties``).

    The active-integrity knobs: ``shed_policy`` picks the overload victim
    (``"reject"`` the newcomer, ``"oldest"`` the queue head,
    ``"deadline"`` the queued job with the least slack — evicted jobs
    complete with a ``shed`` error result); ``placement="health"`` routes
    each request to the cheapest healthy fleet member
    (``_PLACEMENT_PENALTY`` is the DEGRADED surcharge) instead of its
    sticky ``array_id``; ``scrub`` configures the
    :class:`~repro.serve.scrub.PatrolScrubber` — :meth:`scrub` runs a
    budgeted march-test sweep on demand, and a nonzero
    ``ScrubPolicy.every_requests`` makes the worker pool run one
    automatically that often.
    """

    def __init__(self, target, config: CompilerConfig | None = None, *,
                 cache: ArtifactCache | None = None,
                 workers: int = 2,
                 queue_limit: int = 16,
                 deadline_s: float | None = None,
                 breaker: CircuitBreaker | None = None,
                 fault_maps: dict[int, FaultMap] | None = None,
                 machine_faults: dict[int, FaultMap] | None = None,
                 spare_cells: bool = True,
                 health_policy: HealthPolicy | None = None,
                 shed_policy: str = "reject",
                 placement: str = "sticky",
                 scrub: ScrubPolicy | None = None,
                 chaos=None,
                 clock=time.monotonic,
                 sleep=time.sleep) -> None:
        if workers < 1:
            raise ServeError(f"worker count must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ServeError(f"queue limit must be >= 1, got {queue_limit}")
        if shed_policy not in VALID_SHED_POLICIES:
            raise ServeError(f"unknown shed policy {shed_policy!r}; "
                             f"choose from {VALID_SHED_POLICIES}")
        if placement not in VALID_PLACEMENTS:
            raise ServeError(f"unknown placement {placement!r}; "
                             f"choose from {VALID_PLACEMENTS}")
        self.target = target
        self.config = config or CompilerConfig()
        self.cache = cache
        self.deadline_s = deadline_s
        self.breaker = breaker or CircuitBreaker(clock=clock)
        self.shed_policy = shed_policy
        self.placement = placement
        self.stats_counters = ServiceStats()
        self.health = HealthRegistry(
            target.technology, health_policy, clock=clock,
            on_transition=self._on_health_transition)
        self.scrubber = PatrolScrubber(target, scrub)
        self._since_scrub = 0
        self._fault_maps = dict(fault_maps or {})
        self._machine_faults = dict(machine_faults or {})
        self._spare_cells = spare_cells
        self._chaos = chaos
        self._clock = clock
        self._sleep = sleep
        self._queue_limit = queue_limit
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._closed = False
        self._lock = threading.Lock()
        self._served_dags: OrderedDict = OrderedDict()
        self._recompile_threads: list[threading.Thread] = []
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"sherlock-serve-{i}", daemon=True)
            for i in range(workers)]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the queue and stop the worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join()
        with self._lock:
            pending = list(self._recompile_threads)
        for thread in pending:
            thread.join()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> _Job:
        """Enqueue one request; sheds with ``ServiceOverloadError`` on a
        full queue.  The returned job's :meth:`_Job.wait` blocks for the
        result.
        """
        with self._lock:
            if self._closed:
                raise ServeError("service is closed")
        validate_engine(request.engine)
        if request.input_sets is not None and not request.input_sets:
            raise ServeError(
                f"batch request {request.request_id!r} has no input sets")
        if request.redundancy < 1:
            raise ServeError(
                f"redundancy must be >= 1, got {request.redundancy}")
        if request.deadline_s is None and self.deadline_s is not None:
            request.deadline_s = self.deadline_s
        job = _Job(request, self._clock())
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            if not self._shed_and_admit(job):
                self.stats_counters.add("shed")
                depth = self._queue.qsize()
                raise ServiceOverloadError(
                    f"service queue is full ({depth}/{self._queue_limit}); "
                    f"request {request.request_id!r} shed "
                    f"(policy {self.shed_policy})",
                    queue_depth=depth, queue_limit=self._queue_limit,
                    retry_after_s=self._retry_after_hint(),
                    shed_policy=self.shed_policy) from None
        self.stats_counters.add("requests")
        self.stats_counters.high_water("queue_high_water",
                                       self._queue.qsize())
        return job

    def process(self, requests: list[ServeRequest],
                timeout_s: float | None = 60.0) -> list[ServeResult]:
        """Serve a batch, applying backpressure instead of failing.

        Requests shed by admission control are re-submitted after the
        overload error's retry-after hint (the worker pool is draining the
        queue, so a bounded number of waits always gets them in).  Results
        come back in request order.
        """
        jobs: list[_Job] = []
        for request in requests:
            while True:
                try:
                    jobs.append(self.submit(request))
                    break
                except ServiceOverloadError as error:
                    self._sleep(error.retry_after_s or 0.01)
        return [job.wait(timeout_s) for job in jobs]

    def _retry_after_hint(self) -> float:
        """When a shed client should try again (best-effort, never 0)."""
        typical = self.stats_counters.typical_latency_s()
        depth = self._queue.qsize()
        return max(0.005, typical * max(1, depth) / max(1, len(self._workers)))

    # ------------------------------------------------------------------
    # load shedding
    # ------------------------------------------------------------------
    def _shed_and_admit(self, job: _Job) -> bool:
        """Evict one queued victim per ``shed_policy`` and admit ``job``.

        Returns ``False`` (caller rejects the newcomer) under the
        ``"reject"`` policy, when no eligible victim is queued, or when a
        racing submitter refilled the freed slot.  An evicted victim's
        job completes immediately with a ``shed`` error result — its
        submitter already holds the job handle, so an exception can no
        longer reach it.
        """
        if self.shed_policy == "reject":
            return False
        with self._lock:
            evicted = self._pop_victims(job)
        for victim in evicted:
            victim.result = ServeResult(
                request_id=victim.request.request_id, outputs=None,
                engine="cpu", shed=True,
                error=(f"shed by admission control "
                       f"(policy {self.shed_policy}, queue "
                       f"{self._queue.qsize()}/{self._queue_limit})"),
                array_id=victim.request.array_id)
            self.stats_counters.add("shed")
            self.stats_counters.record(victim.result)
            victim.event.set()
        if not evicted:
            return False
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            return False
        return True

    def _pop_victims(self, newcomer: _Job) -> list[_Job]:
        """Pick and remove the queued job(s) the policy sacrifices.

        ``"oldest"`` pops the queue head.  ``"deadline"`` drains the
        queue, evicts the job with the least deadline slack (falling back
        to rejecting the newcomer when nothing queued carries a
        deadline), and requeues the survivors in order.  Runs under the
        service lock, but the plain ``submit`` fast path does not take
        it — a racing submitter can steal a freed slot mid-requeue, in
        which case the displaced survivor is shed too rather than lost.
        """
        if self.shed_policy == "oldest":
            try:
                victim = self._queue.get_nowait()
            except queue.Empty:
                return []
            self._queue.task_done()
            return [victim]
        # deadline: least slack loses
        drained: list[_Job] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                break
        now = self._clock()
        best: tuple[float, _Job] | None = None
        for queued in drained:
            if queued.request.deadline_s is None:
                continue
            slack = queued.request.deadline_s - (now - queued.enqueued_at)
            if best is None or slack < best[0]:
                best = (slack, queued)
        chosen = best[1] if best is not None else None
        evicted = [] if chosen is None else [chosen]
        for queued in drained:
            self._queue.task_done()
            if queued is chosen:
                continue
            try:
                self._queue.put_nowait(queued)
            except queue.Full:
                evicted.append(queued)
        return evicted

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                job.result = self._process(job)
            except Exception as error:  # never kill a worker thread
                job.result = ServeResult(
                    request_id=job.request.request_id, outputs=None,
                    engine="cpu", error=f"{type(error).__name__}: {error}",
                    array_id=job.request.array_id)
            finally:
                self.stats_counters.record(job.result)
                job.event.set()
                self._queue.task_done()
            self._maybe_autoscrub()

    def _check_deadline(self, job: _Job) -> None:
        deadline = job.request.deadline_s
        if deadline is None:
            return
        elapsed = self._clock() - job.enqueued_at
        if elapsed > deadline:
            raise DeadlineExceededError(
                f"request {job.request.request_id!r} exceeded its "
                f"{deadline:.3f} s deadline ({elapsed:.3f} s elapsed)")

    def _chaos_hook(self, stage: str, request: ServeRequest) -> None:
        if self._chaos is not None:
            self._chaos(stage, request)

    # ------------------------------------------------------------------
    # patrol scrubbing
    # ------------------------------------------------------------------
    def scrub(self, budget: int | None = None) -> ScrubReport:
        """Run one patrol pass: march-test, merge, report, recompile.

        March-tests the next ``budget`` idle cells (default: the scrub
        policy's) of every fleet member with a ground-truth map,
        round-robin.  Discovered latent faults merge into the array's
        *known* map (``FaultMap.merge`` — first diagnosis wins), shifting
        its compile cache key so the next request recompiles around them;
        every probed array feeds a weighted
        :meth:`~repro.serve.health.HealthRegistry.record_scrub` sample
        (clean slices actively recover DEGRADED arrays); discoveries also
        trigger the proactive background recompile of recently served
        dags.  Returns the pass's :class:`~repro.serve.scrub.ScrubReport`.
        """
        with self._lock:
            grounds = dict(self._machine_faults)
            knowns = {a: m.copy() for a, m in self._fault_maps.items()}
        report = self.scrubber.scrub(grounds, knowns, budget)
        for fleet_id in sorted(grounds):
            probed = report.probed_per_array.get(fleet_id, 0)
            found = report.discoveries.get(fleet_id)
            if probed == 0 and not found:
                continue
            added = 0
            if found:
                with self._lock:
                    known = self._fault_maps.setdefault(fleet_id, FaultMap())
                    added = known.merge(found)
            self.health.record_scrub(
                fleet_id, cells_probed=probed,
                latent_faults=len(found) if found else 0,
                weight=self.scrubber.policy.weight)
            if added:
                self._spawn_recompile(fleet_id)
        return report

    def _maybe_autoscrub(self) -> None:
        """Run the cadence scrub after every ``every_requests`` jobs."""
        every = self.scrubber.policy.every_requests
        if every <= 0:
            return
        with self._lock:
            self._since_scrub += 1
            due = self._since_scrub >= every
            if due:
                self._since_scrub = 0
        if due:
            try:
                self.scrub()
            except ServeError:
                pass  # patrol is best-effort; the request path has its own

    def _process(self, job: _Job) -> ServeResult:
        request = job.request
        started = self._clock()
        placed = self._place(request)
        self.stats_counters.add("placements", key=placed)
        if placed != request.array_id:
            self.stats_counters.add("placement_shifts")
        offload_reason = self._offload_reason(request, placed)
        result = ServeResult(request_id=request.request_id, outputs=None,
                             array_id=request.array_id, placed_array=placed)
        if offload_reason is None:
            try:
                (program, cached, outputs, remapped, vote,
                 result.compile_s, result.execute_s) = self._serve_cim(
                     job, placed)
            except SherlockError as error:
                self.stats_counters.add("cim_failures")
                if isinstance(error, DeadlineExceededError):
                    self.stats_counters.add("deadline_misses")
                self.breaker.record_failure()
                offload_reason = f"{type(error).__name__}: {error}"
            else:
                self.breaker.record_success()
                result.engine = "cim"
                result.cached = cached
                result.remapped = remapped
                result.degradation = program.degradation
                result.cim_latency_us = program.metrics.latency_us
                if vote is not None:
                    result.voted = True
                    result.voters, result.disagreeing = vote
        if offload_reason is not None:
            result.placed_array = None
            t0 = self._clock()
            result.engine = "cpu"
            result.offload_reason = offload_reason
            outputs = _cpu_outputs(request)
            result.execute_s = self._clock() - t0
        if request.input_sets is not None:
            result.batch_outputs = outputs
        else:
            result.outputs = outputs
        result.cpu_latency_us = run_model(
            dag_events(request.dag, request.lanes), CpuSpec()).latency_us
        result.total_s = self._clock() - started
        return result

    def _offload_reason(self, request: ServeRequest,
                        array_id: int) -> str | None:
        """Why this request must go to the CPU baseline (None = CIM ok).

        ``array_id`` is the placement decision (== the request's array
        under sticky placement).  Checked in escalation order: the
        array's static healthy capacity, its dynamic quarantine state
        (probation probes pass through — they are how a quarantined array
        earns its way back), the fleet-wide census (mostly-quarantined
        fleet => trip the breaker, serve from CPU), and finally the
        breaker itself.
        """
        healthy = 1.0 - self._fault_density(array_id)
        if healthy < _MIN_HEALTHY_FRACTION:
            self.breaker.force_open()
            return (f"degraded-capacity: array {array_id} has only "
                    f"{healthy:.1%} healthy cells")
        if not self.health.allow(array_id):
            return (f"quarantined: array {array_id} is quarantined "
                    f"(probation pending)")
        quarantined, tracked = self.health.census()
        if (tracked and (tracked - quarantined) / tracked
                < _MIN_HEALTHY_FRACTION
                and self.health.state_of(array_id)
                is not ArrayHealth.QUARANTINED):
            self.breaker.force_open()
            return (f"degraded-fleet: only {tracked - quarantined}/{tracked} "
                    f"tracked arrays healthy")
        if not self.breaker.allow():
            return "breaker-open"
        return None

    # ------------------------------------------------------------------
    # health-aware placement
    # ------------------------------------------------------------------
    def _fleet_arrays(self) -> list[int]:
        """Every fleet member the service knows about, sorted."""
        with self._lock:
            known = set(self._fault_maps) | set(self._machine_faults)
        return sorted(known | set(self.health.tracked()))

    def _placement_cost(self, array_id: int) -> float:
        """The placement score of one candidate (lower is better).

        Known-fault density is the base cost, a DEGRADED verdict adds
        ``_PLACEMENT_PENALTY``, and QUARANTINED is infinitely expensive
        (probation re-admission goes through the offload gate, not
        through placement).
        """
        state = self.health.state_of(array_id)
        if state is ArrayHealth.QUARANTINED:
            return math.inf
        cost = self._fault_density(array_id)
        if state is ArrayHealth.DEGRADED:
            cost += _PLACEMENT_PENALTY
        return cost

    def _fault_density(self, array_id: int) -> float:
        """The share of the target's cells in the array's known fault map."""
        with self._lock:
            faults = len(self._fault_maps.get(array_id) or ())
        return faults / (self.target.num_arrays * self.target.rows
                         * self.target.cols)

    def _place(self, request: ServeRequest) -> int:
        """Choose the fleet member this request compiles/executes on.

        Sticky placement honors the request's ``array_id``.  Health-aware
        placement picks the cheapest candidate, preferring the requested
        array on ties — and always returns the requested array when it is
        QUARANTINED, so probation probes keep hitting the array that must
        earn its way back.
        """
        requested = request.array_id
        if self.placement != "health":
            return requested
        if self.health.state_of(requested) is ArrayHealth.QUARANTINED:
            return requested
        candidates = sorted(set(self._fleet_arrays()) | {requested})
        best = min(candidates,
                   key=lambda a: (self._placement_cost(a),
                                  a != requested, a))
        if math.isinf(self._placement_cost(best)):
            return requested
        return best

    # ------------------------------------------------------------------
    # the CIM path
    # ------------------------------------------------------------------
    def _serve_cim(self, job: _Job, array_id: int):
        request = job.request

        def attempt():
            self._check_deadline(job)
            self._chaos_hook("compile", request)
            t0 = self._clock()
            self._note_served(request, array_id)
            program, cached = self._compile_and_publish(request.dag,
                                                        array_id)
            compile_s = self._clock() - t0
            self._check_deadline(job)
            self._chaos_hook("execute", request)
            t1 = self._clock()
            outputs, program_used, vote = self._execute(program, request,
                                                        array_id)
            execute_s = self._clock() - t1
            return (program_used, cached, outputs,
                    program_used is not program, vote, compile_s, execute_s)

        return retry_call(
            attempt, policy=_DEFAULT_RETRY, sleep=self._sleep,
            on_retry=lambda *_: self.stats_counters.add("retries"),
            label=f"serve:{request.request_id or 'request'}")

    def _known_map(self, array_id: int) -> FaultMap | None:
        with self._lock:
            known = self._fault_maps.get(array_id)
            return known.copy() if known else None

    def _config_for(self, fault_map: FaultMap | None) -> CompilerConfig:
        """The compile config for one array's current fault map.

        Multi-array schedules additionally exclude fault-saturated
        sub-arrays (the quarantine decision expressed as a compile
        constraint) and penalize DEGRADED-density ones
        (``array_penalties`` — the soft steer); since the config
        participates in both cache keys, either set shifting recompiles
        naturally.
        """
        if self.config.schedule != "multi" or not fault_map:
            return self.config
        exclude = subarray_exclusions(fault_map, self.target)
        penalties = subarray_penalties(fault_map, self.target,
                                       penalty=_PLACEMENT_PENALTY)
        if (exclude == self.config.exclude_arrays
                and penalties == self.config.array_penalties):
            return self.config
        return self.config.with_(exclude_arrays=exclude,
                                 array_penalties=penalties)

    def _note_served(self, request: ServeRequest, array_id: int) -> None:
        """Remember the dag for proactive recompiles (bounded window)."""
        entry = (array_id, structural_hash(request.dag))
        with self._lock:
            self._served_dags[entry] = request.dag
            self._served_dags.move_to_end(entry)
            while len(self._served_dags) > _SERVED_DAG_WINDOW:
                self._served_dags.popitem(last=False)

    def _compile_and_publish(self, dag, array_id: int, *,
                             refresh: bool = False, remap=None):
        """Build ``dag``'s program for ``array_id`` and publish it.

        The one place the service makes an artifact: derives the array's
        known fault map, its compile config and the cache key.  A plain
        call answers from the artifact cache when the key is published
        there; ``refresh=True`` (the background recompile) only checks
        that the entry exists, without loading it.  Otherwise the program
        is compiled — or, with ``remap=(program, discovered)``, recompiled
        around the discovered faults, whose merged map then becomes the
        array's known map — and published under the key of the map it
        was built for, so every array with that map shares it.  Returns
        ``(program, cached)``; ``program`` is None for a refresh of an
        already published entry.
        """
        known = self._known_map(array_id)
        config = self._config_for(known)
        compiler = SherlockCompiler(self.target, config, fault_map=known)
        if remap is not None:
            program = compiler.remap(*remap)
            with self._lock:
                self._fault_maps[array_id] = program.fault_map.copy()
            if self.cache is not None:
                self.cache.put(ArtifactCache.key_for(
                    dag, self.target, config, program.fault_map), program)
            return program, False
        key = None
        if self.cache is not None:
            key = ArtifactCache.key_for(dag, self.target, config, known)
            if refresh:
                if self.cache.path_for(key).exists():
                    return None, True
            else:
                program = self.cache.get(key)
                if program is not None:
                    return program, True
        program = compiler.compile(dag)
        if key is not None:
            self.cache.put(key, program)
        return program, False

    def _run_on(self, program, request: ServeRequest, array_id: int, *,
                remap: bool = False):
        """Run ``program`` on ``array_id``'s machine and record the sample.

        The machine honors the array's ground-truth faults with
        verify-after-write on, and every run feeds its write telemetry to
        the health registry — a run that ends in
        :class:`~repro.errors.HardFaultError` as a rate-1.0 sample.  With
        ``remap`` such a hard fault triggers the remap rung inside the
        service loop (the program is rebuilt around the discovered faults
        and re-run once); without it the error propagates.  Returns
        ``(outputs, program_used)``.
        """
        machine = program.machine(
            request.lanes, fault_map=self._machine_faults.get(array_id),
            verify_writes=True,
            spare_pool=None if self._spare_cells else [])
        fault: HardFaultError | None = None
        try:
            outputs = run_program(machine, program, request.inputs)
        except HardFaultError as error:
            fault = error
        self.health.record_execution(
            array_id,
            writes_verified=machine.writes_verified,
            write_retries_used=machine.write_retries_used,
            write_failures_injected=machine.write_failures_injected,
            discovered_faults=len(machine.discovered_faults),
            remaps=len(machine.remaps),
            hard_fault=fault is not None)
        if fault is None:
            return outputs, program
        if not remap:
            raise fault
        remapped, _ = self._compile_and_publish(
            request.dag, array_id,
            remap=(program, machine.discovered_faults))
        self.stats_counters.add("remaps")
        self._spawn_recompile(array_id)
        return self._run_on(remapped, request, array_id)

    def _execute(self, program, request: ServeRequest, array_id: int):
        """Run the program; a hard fault triggers the in-loop remap rung.

        Returns ``(outputs, program_used, vote)`` — ``program_used`` is
        the remapped program when the rung ran, the original otherwise,
        and ``vote`` is ``(voters, disagreeing)`` for redundancy > 1
        requests (``None`` for plain ones).  Batch requests
        (``input_sets``) take the compile-once/execute-many fast path
        instead: the lowered op-table streams every set through in bulk
        (no per-write verification — the throughput trade-off is
        documented in ``docs/PERFORMANCE.md``).
        """
        if request.redundancy > 1:
            outputs, vote = self._execute_voted(program, request, array_id)
            return outputs, program, vote
        if request.input_sets is not None:
            return program.execute_many(
                request.input_sets, lanes=request.lanes,
                engine=request.engine), program, None
        outputs, program_used = self._run_on(program, request, array_id,
                                             remap=True)
        return outputs, program_used, None

    # ------------------------------------------------------------------
    # voted redundant execution
    # ------------------------------------------------------------------
    def _voter_arrays(self, placed: int, k: int) -> list[int]:
        """Up to ``k`` voting arrays: the placement first, then the
        cheapest non-quarantined fleet members."""
        voters = [placed]
        ranked = sorted((a for a in self._fleet_arrays() if a != placed),
                        key=lambda a: (self._placement_cost(a), a))
        for array_id in ranked:
            if len(voters) >= k:
                break
            if math.isinf(self._placement_cost(array_id)):
                continue
            voters.append(array_id)
        return voters

    def _voter_program(self, program, array_id: int):
        """A clone of ``program`` carrying the voter's ground-truth map.

        The batch path executes through the program's own ``fault_map``
        (both engines; the vectorized lowering bakes it in), so per-array
        voting needs a per-voter program.  Clones are cached on the
        program instance keyed by the ground map's content digest — a
        chaos event mutating the map in place gets a fresh clone (and a
        fresh lowering) on the next vote.
        """
        ground = self._machine_faults.get(array_id)
        if ground is None:
            return program
        digest = ground.digest()
        cache = program.__dict__.setdefault("_voter_programs", {})
        clone = cache.get((array_id, digest))
        if clone is None:
            if len(cache) >= 8:  # bound per-program clone growth
                cache.clear()
            clone = replace(program, fault_map=ground.copy())
            cache[(array_id, digest)] = clone
        return clone

    def _execute_voted(self, program, request: ServeRequest, placed: int):
        """Execute on ``redundancy`` arrays and majority-vote per lane.

        Ballots come from the placement plus the cheapest healthy fleet
        members; a voter that hard-faults drops out (recorded, like any
        hard-faulted run, as a rate-1.0 health sample with its machine's
        write counters).  The CPU reference evaluator joins the
        panel as referee whenever fewer than ``redundancy`` CIM ballots
        survive *or* the panel would be even, and breaks exact ties — so
        a strict per-lane majority always exists.  Every out-voted array
        is reported via
        :meth:`~repro.serve.health.HealthRegistry.record_vote_disagreement`.
        Returns ``(outputs, (voters, disagreeing))``.
        """
        batch = request.input_sets is not None
        ballots: list[tuple[int, object]] = []
        for array_id in self._voter_arrays(placed, request.redundancy):
            try:
                if batch:
                    clone = self._voter_program(program, array_id)
                    outputs = clone.execute_many(
                        request.input_sets, lanes=request.lanes,
                        engine=request.engine)
                else:
                    outputs, _ = self._run_on(program, request, array_id)
            except HardFaultError:
                continue
            ballots.append((array_id, outputs))
        referee = None
        if len(ballots) < request.redundancy or len(ballots) % 2 == 0:
            referee = _cpu_outputs(request)
            ballots.append((-1, referee))
        if batch:
            voted = [
                _majority_outputs(
                    [outputs[index] for _, outputs in ballots],
                    request.lanes,
                    None if referee is None else referee[index])
                for index in range(len(request.input_sets))]
        else:
            voted = _majority_outputs([outputs for _, outputs in ballots],
                                      request.lanes,
                                      referee)
        voters = tuple("cpu" if a < 0 else a for a, _ in ballots)
        disagreeing = tuple(a for a, outputs in ballots
                            if a >= 0 and outputs != voted)
        for array_id in disagreeing:
            self.health.record_vote_disagreement(array_id)
        self.stats_counters.add("votes")
        self.stats_counters.add("vote_disagreements", len(disagreeing))
        return voted, (voters, disagreeing)

    # ------------------------------------------------------------------
    # adaptive responses to health transitions
    # ------------------------------------------------------------------
    def _on_health_transition(self, array_id: int, old: ArrayHealth,
                              new: ArrayHealth, reason: str) -> None:
        """Registry callback: react to an array changing state."""
        if new in (ArrayHealth.DEGRADED, ArrayHealth.QUARANTINED):
            self._spawn_recompile(array_id)

    def _spawn_recompile(self, array_id: int) -> None:
        """Refresh the array's cached artifacts in the background.

        A degrading (or freshly remapped) array's fault map just moved,
        so its cached programs are keyed off a stale map; recompiling the
        dags it recently served against the *current* map makes the next
        request a warm hit instead of an inline compile.  Best-effort:
        compile failures are swallowed (the request path handles them
        with full diagnostics).
        """
        if self.cache is None:
            return
        with self._lock:
            if self._closed:
                return
            dags = [dag for (aid, _h), dag in self._served_dags.items()
                    if aid == array_id]
            if not dags:
                return
            thread = threading.Thread(
                target=self._recompile_dags, args=(array_id, dags),
                name=f"sherlock-health-recompile-{array_id}", daemon=True)
            self._recompile_threads = [
                t for t in self._recompile_threads if t.is_alive()]
            self._recompile_threads.append(thread)
        thread.start()

    def _recompile_dags(self, array_id: int, dags: list) -> None:
        for dag in dags:
            try:
                _, cached = self._compile_and_publish(dag, array_id,
                                                      refresh=True)
            except SherlockError:
                continue
            if not cached:
                self.stats_counters.add("proactive_recompiles")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def fault_map_of(self, array_id: int) -> FaultMap | None:
        """A copy of the fleet's current known map for one array."""
        return self._known_map(array_id)

    def stats(self) -> dict:
        """Counters, latency percentiles, cache/breaker/health snapshots."""
        out = self.stats_counters.snapshot()
        out["queue_depth"] = self._queue.qsize()
        out["queue_limit"] = self._queue_limit
        out["workers"] = len(self._workers)
        out["shed_policy"] = self.shed_policy
        out["placement"] = self.placement
        out["breaker"] = self.breaker.snapshot()
        out["cache"] = (self.cache.stats() if self.cache is not None
                        else None)
        out["health"] = self.health.snapshot()
        out["scrub"] = self.scrubber.stats()
        return out

    def stats_text(self) -> str:
        """The ``sherlock serve --stats`` rendering of :meth:`stats`."""
        stats = self.stats()
        breaker = stats.pop("breaker")
        cache = stats.pop("cache")
        health = stats.pop("health")
        scrub = stats.pop("scrub")
        lines = ["service:"]
        lines += [f"  {key}: {stats[key]}" for key in sorted(stats)]
        lines.append(f"breaker: state={breaker['state']} "
                     f"trips={breaker['trips']} "
                     f"consecutive_failures={breaker['consecutive_failures']}")
        if cache is None:
            lines.append("artifact cache: disabled")
        else:
            lines.append("artifact cache: "
                         + " ".join(f"{k}={cache[k]}" for k in sorted(cache)))
        lines.append(f"scrub: passes={scrub['passes']} "
                     f"cells_probed={scrub['cells_probed']} "
                     f"latent_faults_found={scrub['latent_faults_found']} "
                     f"sweeps={scrub['sweeps']}")
        lines.append(
            f"health: baseline={health['baseline']:.1e} "
            f"arrays={len(health['arrays'])} "
            f"degraded={health['degraded']} "
            f"quarantined={health['quarantined']} "
            f"recovered={health['recovered']} "
            f"breaker_trips={breaker['trips']} "
            f"vote_disagreements={stats['vote_disagreements']}")
        for array_id in sorted(health["arrays"]):
            entry = health["arrays"][array_id]
            lines.append(
                f"  array {array_id}: state={entry['state']} "
                f"rate={entry['failure_rate']:.2e} "
                f"samples={entry['samples']} probes={entry['probes']} "
                f"retries={entry['retries']} "
                f"hard_faults={entry['hard_faults']} "
                f"scrubbed={entry['scrub_probes']} "
                f"latent={entry['scrub_faults']} "
                f"outvoted={entry['vote_disagreements']}")
        for transition in health["transitions"]:
            lines.append(
                f"  transition: array {transition['array']} "
                f"{transition['from']} -> {transition['to']} "
                f"({transition['reason']})")
        return "\n".join(lines)
