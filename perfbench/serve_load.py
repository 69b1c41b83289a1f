"""The serve-hot workload: open-loop load over TCP against server children.

It sends a fixed small pool (the BETWEEN C kernel as text, named
``bfs``/``bitweaving`` requests, two synthetic DAGs, ``input_sets``
batches and ``redundancy: 3`` votes) whose artifacts were published
during set-up, so every timed request is an artifact-cache hit and the
time goes to parse, artifact key + fetch + decode, verified execution and
voting, never to a compile.

A run sets up ``SERVERS`` server children, each in its own process so the
load generator never shares its interpreter lock, and loads them in turn
with blocks of seeded Poisson arrivals at ``BASE_RATE`` over one
connection.  Latency is timed from each request's due time, so a stall
also counts against the requests queued behind it.  Traffic comes in
blocks with a fixed mix of request classes, so every run measures the
same mix.  The server children run on one CPU and the generator on the
other; whenever the connection is idle long enough the generator has the
server child run the calibration loop, and every request's time is
rescaled to the reference speed with the calibrations on either side of
it (:class:`perfbench.common.Clock`).
"""

from __future__ import annotations

import json
import random
import shutil
import socket
import subprocess
import time
from dataclasses import dataclass, field

from perfbench.common import (
    ROOT,
    STATE,
    BenchError,
    Outcome,
    at_reference_speed,
    calibration_s,
    cpus,
    geomean,
    idle_pollers,
    median,
    percentile,
    pin,
    program_quality,
    python_command,
)

#: simulated lanes of every request
LANES = 16
#: arrival rate (requests/s): low enough that requests seldom wait for
#: each other
BASE_RATE = 8.0
#: server children per run, each set up and measured on its own
SERVERS = 3
#: the backlog counts as growing when the last quarter of a phase's
#: requests was sent this late (median)
BACKLOG_MS = 250.0
#: a request still unanswered after this long counts as timed out
TIMEOUT_S = 10.0
#: how long the server child may take to stop and report
STOP_TIMEOUT_S = 60.0
#: the server child calibrates after an answer when the next request is
#: due at least this much later (a calibration takes about 15 ms)
CAL_GAP_S = 0.05

#: synthetic DAGs of the pool: (ops, seed)
SMALL_SYNTHETIC = (24, 1)
LARGE_SYNTHETIC = (128, 6)
#: one block of traffic, by request class; the seed shuffles it and draws
#: the inputs.  10% batches, 12% votes, a 2% bitweaving share.  Every
#: class sends one kernel, so a class's latencies form one cluster and
#: its median is steady.  (Two bitweaving requests a block gave
#: ``max_rate_rps`` more samples of its costliest class but queued more
#: requests behind them: both spreads grew)
HOT_BLOCK = {"kernel": 24, "synthetic-small": 4, "synthetic-large": 4,
             "batch": 5, "voted-kernel": 4, "bfs": 6, "voted-bfs": 2,
             "bitweaving": 1}
#: requests per traffic block
BLOCK = sum(HOT_BLOCK.values())
#: input sets per batch request
BATCH_SETS = 8


# ----------------------------------------------------------------------
# the request pool and its independent reference
# ----------------------------------------------------------------------
class Pool:
    """Builds request objects and checks answers against a reference.

    Reference DAGs are built here, by the benchmark, never taken from the
    server: C kernels through ``repro.frontend.c_to_dfg``, synthetic DAGs
    through ``synthetic_dag``; named workloads are checked with their own
    ``Workload.check``.
    """

    #: request class -> ``(pool item, input sets, redundancy)``
    CLASSES = {
        "kernel": (("kernel", 8), 0, 1),
        "synthetic-small": (("synthetic", SMALL_SYNTHETIC), 0, 1),
        "synthetic-large": (("synthetic", LARGE_SYNTHETIC), 0, 1),
        "batch": (("kernel", 8), BATCH_SETS, 1),
        "voted-kernel": (("kernel", 8), 0, 3),
        "bfs": (("workload", "bfs"), 0, 1),
        "voted-bfs": (("workload", "bfs"), 0, 3),
        "bitweaving": (("workload", "bitweaving"), 0, 1),
    }

    def __init__(self) -> None:
        from repro.workloads.bitweaving import between_kernel_source

        self._dags: dict = {}
        self._source = between_kernel_source
        self.items = list(dict.fromkeys(
            item for item, _, _ in self.CLASSES.values()))

    def dag(self, item):
        """The reference DAG of one pool item (built once)."""
        if item not in self._dags:
            kind, arg = item
            if kind == "kernel":
                from repro.frontend import c_to_dfg

                dag = c_to_dfg(self._source(arg))
            elif kind == "workload":
                from repro.workloads import get_workload

                dag = get_workload(arg).build_dag()
            else:
                from repro.workloads.synthetic import synthetic_dag

                ops, seed = arg
                dag = synthetic_dag(num_ops=ops, num_inputs=8, seed=seed,
                                    name=f"synthetic{ops}")
            self._dags[item] = dag
        return self._dags[item]

    def _inputs(self, item, rng: random.Random) -> dict[str, int]:
        kind, arg = item
        if kind == "workload":
            from repro.workloads import get_workload

            return get_workload(arg).make_inputs(rng, LANES)
        return {operand.name: rng.getrandbits(LANES)
                for operand in self.dag(item).inputs()}

    def request(self, item, rng: random.Random, *, sets: int = 0,
                redundancy: int = 1) -> dict:
        """One request object for ``item`` with seeded inputs."""
        kind, arg = item
        obj = {"lanes": LANES}
        if kind == "kernel":
            obj["kernel"] = self._source(arg)
        elif kind == "workload":
            obj["workload"] = arg
        else:
            obj["synthetic"], obj["seed"] = arg
        if sets:
            obj["input_sets"] = [self._inputs(item, rng)
                                 for _ in range(sets)]
        else:
            obj["inputs"] = self._inputs(item, rng)
        if redundancy > 1:
            obj["redundancy"] = redundancy
        return obj

    def check(self, item, obj: dict, answer: dict) -> str | None:
        """``None`` when ``answer`` is right for ``obj``, else why not."""
        if answer.get("error") is not None:
            return f"error answer: {answer['error']}"
        if obj.get("redundancy", 1) > 1 and (
                not answer.get("voted") or len(answer.get("voters", ())) < 3):
            return f"not voted by three arrays: {answer.get('voters')}"
        if "input_sets" in obj:
            got = answer.get("batch_outputs") or []
            if len(got) != len(obj["input_sets"]):
                return f"{len(got)} batch answers for "\
                       f"{len(obj['input_sets'])} sets"
            pairs = list(zip(obj["input_sets"], got))
        else:
            pairs = [(obj["inputs"], answer.get("outputs"))]
        for inputs, outputs in pairs:
            problem = self._check_one(item, inputs, outputs or {})
            if problem:
                return problem
        return None

    def _check_one(self, item, inputs, outputs) -> str | None:
        kind, arg = item
        if kind == "workload":
            from repro.workloads import get_workload

            try:
                get_workload(arg).check(inputs, outputs, LANES)
            except Exception as error:  # any mismatch or missing output
                return f"{arg}: {error}"
            return None
        from repro.dfg.evaluate import evaluate

        expected = evaluate(self.dag(item), inputs, LANES)
        if expected != outputs:
            return f"{kind} {arg}: outputs differ from the reference"
        return None

    def traffic(self, rng: random.Random):
        """An endless stream of ``(class, item, request object)``."""
        while True:
            block = [kind for kind, count in HOT_BLOCK.items()
                     for _ in range(count)]
            rng.shuffle(block)
            for kind in block:
                item, sets, redundancy = self.CLASSES[kind]
                yield kind, item, self.request(item, rng, sets=sets,
                                               redundancy=redundancy)


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class Server:
    """A running server child and the pipes that control it."""

    def __init__(self, tag: str, cpu: int, trace: bool) -> None:
        self.cache_dir = STATE / "cache" / tag
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        command = python_command("perfbench/serve_child.py",
                                 "--cache", str(self.cache_dir),
                                 "--cpu", str(cpu))
        if trace:
            command += ["--trace-out",
                        str(STATE / "traces" / f"{tag}.jsonl")]
        self.proc = subprocess.Popen(command, cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise BenchError("server child exited before binding a port")
        self.port = json.loads(line)["port"]

    def command(self, text: str) -> dict:
        """Send one control command; its acknowledgement."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"server child died during {text!r}")
        return json.loads(line)

    def calibrate(self) -> float:
        """Run the calibration loop in the server child, on its CPU."""
        return self.command("calibrate")["calibration_s"]

    def stats(self) -> dict:
        """The service's ``{"cmd": "stats"}`` answer."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=TIMEOUT_S) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"cmd": "stats"}\n')
            stream.flush()
            return json.loads(stream.readline())

    def quit(self) -> dict:
        """Stop the child; its final report (peak RSS, trace aggregate)."""
        try:
            out, _ = self.proc.communicate("quit\n", timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("server child did not stop") from None
        finally:
            self.kill()
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        return json.loads(out or "{}")

    def kill(self) -> None:
        """Make sure the child is gone."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------
@dataclass
class Record:
    """One request: what was sent, when it was due, sent and answered,
    and the server's calibrations just before and just after it."""

    kind: str
    item: tuple
    obj: dict
    due: float
    sent: float = 0.0
    done: float = 0.0
    raw: bytes | None = None
    cal_before: float = 0.0
    cal_after: float = 0.0

    def _scaled_ms(self, seconds: float) -> float:
        return at_reference_speed(seconds, self.cal_before,
                                  self.cal_after) * 1e3

    @property
    def latency_ms(self) -> float:
        """From due time to answer, at the reference speed."""
        return self._scaled_ms(self.done - self.due)

    @property
    def service_ms(self) -> float:
        """From send to answer, at the reference speed."""
        return self._scaled_ms(self.done - self.sent)

    @property
    def late_ms(self) -> float:
        """How late the generator sent it (wall time)."""
        return (self.sent - self.due) * 1e3

    def answer(self) -> dict | None:
        """The decoded answer (``None`` for a timeout or a bad line)."""
        try:
            return json.loads(self.raw) if self.raw else None
        except ValueError:
            return None


@dataclass
class Phase:
    """The records of one arrival schedule."""

    records: list[Record] = field(default_factory=list)

    def backlog_growing(self) -> bool:
        """Whether the generator fell behind its schedule for good: the
        last quarter of requests went out ``BACKLOG_MS`` late or later."""
        tail = self.records[-max(1, len(self.records) // 4):]
        return median(r.late_ms for r in tail) > BACKLOG_MS


def run_phase(server: Server, traffic, rng: random.Random,
              count: int) -> Phase:
    """Send ``count`` requests at seeded Poisson arrivals over one
    connection, calibrating the server whenever it is idle long enough."""
    phase = Phase()
    due = 0.0
    for _ in range(count):
        due += rng.expovariate(BASE_RATE)
        phase.records.append(Record(*next(traffic), due))
    lines = [(json.dumps(dict(r.obj, id=f"r{i}")) + "\n").encode()
             for i, r in enumerate(phase.records)]
    cal = server.calibrate()
    start = time.perf_counter() + 0.05
    for record in phase.records:
        record.due += start
    sock = stream = None
    uncalibrated: list[Record] = []
    try:
        for index, record in enumerate(phase.records):
            record.cal_before = cal
            delay = record.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if stream is None:
                sock = socket.create_connection(("127.0.0.1", server.port),
                                                timeout=TIMEOUT_S)
                stream = sock.makefile("rwb")
            record.sent = time.perf_counter()
            try:
                stream.write(lines[index])
                stream.flush()
                record.raw = stream.readline() or None
            except OSError:  # timeout or reset: a failed request
                record.raw = None
            record.done = time.perf_counter()
            if record.raw is None:
                sock.close()
                sock = stream = None
            uncalibrated.append(record)
            following = phase.records[index + 1:index + 2]
            if not following or (following[0].due - time.perf_counter()
                                 > CAL_GAP_S):
                cal = server.calibrate()
                for waiting in uncalibrated:
                    waiting.cal_after = cal
                uncalibrated.clear()
    finally:
        if sock is not None:
            sock.close()
    return phase


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _setup(pool: Pool, tag: str, cpu: int, trace: bool) -> Server:
    """Start a server child and publish the pool's artifacts."""
    server = Server(tag, cpu, trace)
    try:
        rng = random.Random(0)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=TIMEOUT_S) as sock:
            stream = sock.makefile("rwb")
            for item in pool.items:
                stream.write((json.dumps(pool.request(item, rng))
                              + "\n").encode())
                stream.flush()
                answer = json.loads(stream.readline())
                if answer.get("error") is not None:
                    raise BenchError(f"priming {item} failed: "
                                     f"{answer['error']}")
    except BaseException:
        server.kill()
        raise
    return server


def class_medians(records, key) -> dict[str, float]:
    """Per request class, the median of ``key(record)``."""
    values: dict[str, list[float]] = {}
    for record in records:
        values.setdefault(record.kind, []).append(key(record))
    return {kind: median(v) for kind, v in values.items()}


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """One run of serve-hot.

    The run sets up ``SERVERS`` server children one after another (their
    median set-up time is ``setup_s``) and then sends them the traffic,
    one block at a time in turn.  ``latency_ms`` is the geometric mean
    latency of a block's requests, each counted at its class's median;
    ``max_rate_rps`` the arrival rate at which the traffic mix would keep
    the server busy all the time (a block over the sum of its classes'
    median service times), above which the backlog grows.
    """
    pool = Pool()
    outcome = Outcome()
    with idle_pollers():
        setups, phases, stats, reports = _serve(
            pool, f"serve-hot-{seed}", seed, seconds, trace)
    quality, latency_us = _quality(pool)
    records = [r for phase in phases for r in phase.records]
    for record in records:
        answer = record.answer() or {"error": "no answer (timeout)"}
        problem = pool.check(record.item, record.obj, answer)
        if problem is None and answer.get("cim_latency_us") != \
                latency_us[record.item]:
            problem = (f"{record.item}: served program's latency "
                       f"{answer.get('cim_latency_us')} differs from "
                       f"the benchmark's compile")
        outcome.check(problem is None, problem or "")
    latency = class_medians(records, lambda r: r.latency_ms)
    service = class_medians(records, lambda r: r.service_ms)
    outcome.metrics.update(quality)
    outcome.metrics.update({
        "latency_ms": geomean(ms for kind, ms in latency.items()
                              for _ in range(HOT_BLOCK[kind])),
        "max_rate_rps": BLOCK * 1e3 / sum(
            HOT_BLOCK[kind] * ms for kind, ms in service.items()),
        "setup_s": median(setups),
        "peak_rss_mb": median(report["peak_rss_mb"] for report in reports),
    })
    outcome.repeat["quality"] = quality
    raw = [(r.done - r.due) * 1e3 for r in records]
    outcome.notes.append(
        f"serve-hot: {len(records)} requests at {BASE_RATE} rps; median "
        "latency by class (ms at reference speed): "
        + ", ".join(f"{kind} {ms:.1f}" for kind, ms in latency.items())
        + "; median service time by class: "
        + ", ".join(f"{kind} {ms:.1f}" for kind, ms in service.items())
        + f"; wall latency p50 {median(raw):.1f} ms, p99 "
        f"{percentile(raw, 99):.1f} ms")
    outcome.layers.update(_layers(phases[0], *stats, reports[0]))
    return outcome


def _serve(pool: Pool, tag: str, seed: int, seconds: float, trace: bool):
    """Set up the servers one after another, then load them in turn.

    Returns the set-up times, the phases (one per traffic block), the
    first server's stats around its first phase, and every server's
    report.
    """
    server_cpu, load_cpu = cpus()
    setups, servers = [], []
    try:
        pin(server_cpu)  # the set-up runs, and is calibrated, there
        for index in range(SERVERS):
            before = calibration_s()
            start = time.perf_counter()
            servers.append(_setup(pool, f"{tag}-{index}", server_cpu, trace))
            elapsed = time.perf_counter() - start
            setups.append(at_reference_speed(elapsed, before,
                                             calibration_s()))
        pin(load_cpu)
        if trace:
            for server in servers:
                server.command("reset")
        rng = random.Random(seed)
        traffic = pool.traffic(rng)
        blocks = max(1, round(seconds * BASE_RATE / BLOCK))
        phases, stats = [], []
        for index in range(blocks):
            server = servers[index % SERVERS]
            if index == 0:
                stats.append(server.stats())
            phases.append(run_phase(server, traffic, rng, BLOCK))
            if index == 0:
                stats.append(server.stats())
                if trace:
                    server.command("pause")
    finally:
        stopped = [_stop(server) for server in servers]
    for _, error in stopped:
        if error is not None:
            raise error
    return setups, phases, stats, [report for report, _ in stopped]


def _stop(server: Server):
    """Stop one server child: ``(report, None)`` or ``({}, error)``."""
    try:
        return server.quit(), None
    except BenchError as error:
        return {}, error


def _quality(pool: Pool):
    """Simulated quality of the pool's programs, compiled by the benchmark
    for the server's target (deterministic: the whole pool, every run),
    and each program's latency, which every served answer must quote."""
    from perfbench.serve_child import serve_target
    from repro.core.compiler import compile_dag

    target = serve_target()
    programs = {item: compile_dag(pool.dag(item), target, cache=False)
                for item in pool.items}
    return (program_quality(programs.values()),
            {item: p.metrics.latency_us for item, p in programs.items()})


def _layers(base: Phase, before: dict, after: dict, report: dict) -> dict:
    """Per-layer numbers of the first phase (service side and client
    side)."""
    layers = {}
    answers = [(r, r.answer()) for r in base.records]
    ok = [(r, a) for r, a in answers if a and a.get("error") is None]
    parse = report.get("parse_ms", {})
    waits = []
    for index, (record, answer) in enumerate(answers):
        if answer and answer.get("error") is None:
            rid = f"r{index}"
            waits.append((record.done - record.sent) * 1e3
                         - parse.get(rid, 0.0) - answer["total_s"] * 1e3)
    totals = [a["total_s"] * 1e3 for _, a in ok]
    layers["server.error_answers"] = sum(
        1 for _, a in answers if a is None or a.get("error") is not None)
    layers["service.wait_ms.p50"] = median(waits)
    layers["service.wait_ms.p99"] = percentile(waits, 99)
    layers["service.total_ms.p50"] = median(totals)
    layers["service.total_ms.p99"] = percentile(totals, 99)
    for key in ("shed", "retries", "cpu_served", "votes",
                "vote_disagreements"):
        layers[f"service.{key}"] = after[key] - before[key]
    layers["service.queue_high_water"] = after["queue_high_water"]
    cache = {key: after["cache"][key] - before["cache"][key]
             for key in ("hits", "misses", "evictions", "quarantined")}
    for key, value in cache.items():
        layers[f"cache.{key}"] = value
    layers["cache.hit_ratio"] = cache["hits"] / max(
        1, cache["hits"] + cache["misses"])
    layers["health.transitions"] = (len(after["health"]["transitions"])
                                    - len(before["health"]["transitions"]))
    layers["breaker.trips"] = (after["breaker"]["trips"]
                               - before["breaker"]["trips"])
    layers["generator.late_ms.p99"] = percentile(
        [r.late_ms for r in base.records], 99)
    layers["generator.backlog"] = int(base.backlog_growing())
    layers["trace"] = report.get("trace")
    return layers
