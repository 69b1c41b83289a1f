"""Statistics, the result line, and the repeat ledger shared by workloads."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pathlib
import resource
import signal
import subprocess
import sys
import time

#: the checkout the benchmark runs in (this file lives in ``perfbench/``)
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: everything the benchmark writes goes under here (git-ignored)
STATE = ROOT / ".perfbench"

#: end-to-end metrics every workload reports with ``--trace 0``, with units
END_TO_END = {
    "latency_ms": "ms",
    "max_rate_rps": "1/s",
    "cim_latency_us": "sim_us",
    "cim_energy_uj": "sim_uJ",
    "cim_p_app": "probability",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def median(values) -> float:
    """The median of a non-empty sample (0.0 for an empty one)."""
    return percentile(values, 50)


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0.0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values or min(values) <= 0:
        raise BenchError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_quality(programs) -> dict[str, float]:
    """Geomean simulated latency, energy and P_app over compiled programs."""
    metrics = [program.metrics for program in programs]
    return {"cim_latency_us": geomean(m.latency_us for m in metrics),
            "cim_energy_uj": geomean(m.energy_uj for m in metrics),
            "cim_p_app": geomean(m.p_app for m in metrics)}


def timed_setups(command: list[str], repeats: int = 3) -> float:
    """Median time, in reference seconds, of ``repeats`` fresh processes
    running ``command``.

    Set-up is what a cold process pays before its first timed operation:
    imports plus the workload's fixtures.  It runs in a child so every
    repeat is cold, and the median keeps one slow start from moving it.
    The child inherits this process's CPU, where :class:`Clock`
    calibrates around it while this process waits.
    """
    clock = Clock()
    times = []
    for _ in range(repeats):
        _, elapsed = clock.time(subprocess.run, command, cwd=ROOT,
                                check=True, timeout=60,
                                stdout=subprocess.DEVNULL)
        times.append(elapsed)
    return median(times)


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
#: the calibration loop's time at the reference speed, in seconds.  Every
#: time metric is reported as if the CPU had run at this speed: an
#: operation's wall time is scaled by this over the loop's time measured
#: on the same CPU just before and just after the operation
CAL_REF_S = 0.005
#: loop runs per calibration (their median is the calibration)
CAL_REPEATS = 3
#: a calibration younger than this still serves as the "before" of the
#: next operation
CAL_FRESH_S = 0.5
#: how often a sampling clock calibrates during an operation
CAL_EVERY_S = 0.5


def _calibration_loop(n: int = 12000) -> int:
    """A fixed piece of interpreter work: integer arithmetic, dict reads
    and writes, small allocations, like the program's own inner loops.

    (A variant that also read scattered over a few MB, to feel contention
    for the shared cache, over-corrected: on the compile and campaign
    workloads the ten-run spreads grew from about 5% to 8-14%.)
    """
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 40503) & 1023
        acc ^= table.get(key, i)
        table[key] = (acc + i) & 0xFFFFFFFF
        if i % 7 == 0:
            acc += len([key, i, acc])
    return acc


def calibration_s() -> float:
    """The calibration loop's median time, measured now on this CPU."""
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return median(times)


def at_reference_speed(elapsed: float, *calibrations: float) -> float:
    """``elapsed`` wall seconds rescaled to the reference speed, given the
    calibrations taken before, during and after them (their harmonic
    mean: each stands for an equal share of the time)."""
    return elapsed * CAL_REF_S * sum(1.0 / c for c in calibrations) / len(
        calibrations)


class Clock:
    """Times operations in reference seconds.

    The speed of the shared 2-vCPU host the benchmark was built on swings
    by a third within seconds and drifts by more over minutes, as other
    tenants come and go; a fixed loop shows the same swings.  So the
    clock runs the calibration loop on the same CPU right before and
    right after every operation and rescales the operation's wall time by
    the reference speed over the measured one (consecutive operations
    share the calibration between them).  ``calibrate`` is where the loop
    runs: in this thread by default, in the server child for serve
    requests.

    With ``sample=True`` a timer signal also calibrates every
    ``CAL_EVERY_S`` while an operation runs (in this thread, between two
    bytecodes), so an operation of several seconds is rescaled by the
    speed all along it, not only at its ends; the time the handler takes
    is taken out of the operation's.
    """

    def __init__(self, calibrate=calibration_s, sample: bool = False) -> None:
        self.calibrate = calibrate
        self.sample = sample
        self._last: tuple[float, float] | None = None

    def before(self) -> float:
        """A calibration to start an operation with (a fresh one is
        reused)."""
        if self._last is None or (time.perf_counter() - self._last[0]
                                  > CAL_FRESH_S):
            self.after()
        return self._last[1]

    def after(self) -> float:
        """Calibrate now, ending an operation."""
        cal = self.calibrate()
        self._last = (time.perf_counter(), cal)
        return cal

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), its time in reference seconds)``."""
        calibrations = [self.before()]
        paused = [0.0]

        def on_timer(signum, frame):
            start = time.perf_counter()
            calibrations.append(self.calibrate())
            paused[0] += time.perf_counter() - start

        if self.sample:
            previous = signal.signal(signal.SIGALRM, on_timer)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        calibrations.append(self.after())
        return result, at_reference_speed(elapsed - paused[0],
                                          *calibrations)


def cpus() -> tuple[int, int]:
    """``(work CPU, load CPU)``: where the measured process runs, and
    where a load generator runs beside it (the same CPU on a 1-CPU host).
    """
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[0]


def pin(cpu: int) -> None:
    """Keep the calling thread (and threads and children it starts
    later) on ``cpu``, so calibrations and measured work share a CPU."""
    os.sched_setaffinity(0, {cpu})


#: a process that keeps one CPU out of its idle state: pinned to the CPU,
#: scheduled SCHED_IDLE (it runs only when nothing else wants that CPU),
#: gone if the kernel refuses either, and gone once its parent is
_POLLER = """
import os, sys
try:
    os.sched_setaffinity(0, {%d})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""
#: never start more idle pollers than this
MAX_POLLERS = 8


@contextlib.contextmanager
def idle_pollers():
    """Keep every CPU of this process busy at idle priority meanwhile.

    On a virtual machine a halted CPU can take milliseconds to wake when
    a request arrives, and how long depends on the host's load minute by
    minute.  Serve latencies at a low request rate are mostly idle time,
    so without this they doubled in some minutes on the 2-vCPU VM the
    benchmark was built on; with a ``SCHED_IDLE`` busy loop per CPU (the
    software form of ``idle=poll``) the CPUs never halt, and the loop
    yields at once to any real work.
    """
    cpus = sorted(os.sched_getaffinity(0))[:MAX_POLLERS]
    pollers = [subprocess.Popen(python_command("-c", _POLLER % cpu))
               for cpu in cpus]
    try:
        yield
    finally:
        for poller in pollers:
            poller.kill()
            poller.wait()


def python_command(*args: str) -> list[str]:
    """``python3 perfbench/<script> args...`` with this interpreter."""
    return [sys.executable, *args]


def code_digest() -> str:
    """Content hash of the program and the benchmark sources."""
    hasher = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            hasher.update(str(path.relative_to(ROOT)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


class Ledger:
    """Numbers a run records for later runs of the same code to compare.

    Deterministic results (simulated program quality, mapping counts,
    campaign counters at a fixed seed) must repeat exactly between runs
    of the same code; :meth:`repeat` reports any that did not.  The
    untraced end-to-end numbers are kept too, so a traced run can report
    its overhead against them.
    """

    def __init__(self, workload: str) -> None:
        self.path = STATE / "ledger" / f"{workload}.json"
        self.digest = code_digest()
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            data = {}
        if data.get("digest") != self.digest:
            data = {"digest": self.digest}
        self.data = data

    def repeat(self, key: str, values: dict) -> list[str]:
        """Store ``values`` under ``key``, or list how they differ from
        what an earlier run of this code stored there."""
        values = json.loads(json.dumps(values))
        recorded = self.data.setdefault("repeat", {}).setdefault(key, values)
        return [f"{key}: {name} was {recorded.get(name)!r}, now {value!r}"
                for name, value in values.items()
                if recorded.get(name) != value]

    def untraced(self, seed: int) -> dict | None:
        """The end-to-end metrics of an untraced run at ``seed``, if any."""
        runs = self.data.get("untraced", {})
        return runs.get(str(seed)) or (runs[max(runs)] if runs else None)

    def note_untraced(self, seed: int, metrics: dict) -> None:
        """Remember this untraced run's end-to-end metrics."""
        self.data.setdefault("untraced", {})[str(seed)] = metrics

    def save(self) -> None:
        """Write the ledger atomically."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Outcome:
    """What one workload run produced: counts, metrics, and problems."""

    def __init__(self, tracer=None) -> None:
        #: the in-process tracer of a traced run (``None`` otherwise)
        self.tracer = tracer
        #: deterministic numbers that must repeat exactly, by ledger key
        self.repeat: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; ``ok`` False marks it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong.append(what)

    @contextlib.contextmanager
    def untraced(self):
        """Pause the tracer around work that is not part of the workload
        (the untimed correctness checks)."""
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    @property
    def ok_ratio(self) -> float:
        """Share of attempted operations answered correctly."""
        return (self.attempted - self.failed) / max(1, self.attempted)
