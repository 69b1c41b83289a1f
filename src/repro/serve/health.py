"""Per-array health tracking: failure-rate estimation and quarantine.

The serve loop already *survives* faults one request at a time
(verify-after-write retries, spare remapping, the remap rung); this module
makes degradation *observed and anticipated*.  A :class:`HealthRegistry`
folds the telemetry every CIM execution produces —
``writes_verified``/``write_retries_used``/``write_failures_injected``
counters, stuck-at discoveries, in-loop remaps, hard faults — into a
per-array failure-rate estimate and runs each fleet member through the
state machine::

    HEALTHY --(rate > degrade_factor x baseline)--> DEGRADED
    DEGRADED --(rate > quarantine_factor x baseline)--> QUARANTINED
    DEGRADED --(rate < recover_factor x baseline)--> HEALTHY
    QUARANTINED --(probation: N clean probes after a cool-down)--> HEALTHY

The baseline is the technology's intrinsic ``write_failure_probability``
(floored so zero-probability technologies still have a scale), so the same
policy adapts across ReRAM/PCM/STT-MRAM fleets.  Two estimators run side by
side: an EWMA (the transition signal — smooth, hysteresis via the separate
degrade/recover factors, and at most *one* ladder step per sample so a
single catastrophic request still walks HEALTHY -> DEGRADED -> QUARANTINED
visibly) and a bounded rolling window (reported in snapshots for
operators).  A quarantined array answers :meth:`HealthRegistry.allow`
``False`` until ``probation_period_s`` elapses, then probes are admitted;
``probation_successes`` consecutive clean probes restore the array with
fresh estimators, while one dirty probe restarts the cool-down.

The registry is deliberately passive — it never executes anything.
:class:`repro.serve.service.CompileService` feeds it after every machine
run and consults it in the offload decision; :func:`subarray_exclusions`
is the bridge to the multi-array co-scheduler (known-fault density per
*sub-array* of one target, turned into ``CompilerConfig.exclude_arrays``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum

from repro.errors import ServeError

__all__ = [
    "ArrayHealth",
    "HealthPolicy",
    "HealthRegistry",
    "assess_fault_map",
    "subarray_exclusions",
    "subarray_penalties",
]

#: state transitions kept for the stats surface (a bounded ring so a
#: long-lived server does not grow without bound)
_TRANSITION_WINDOW = 64


class ArrayHealth(Enum):
    """The three health states of one served array."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds and windows of the health state machine.

    The degrade/recover factor pair is the hysteresis band: an array
    degrades when its estimated failure rate exceeds ``degrade_factor x
    baseline`` but only recovers below ``recover_factor x baseline``, so a
    rate oscillating around one threshold cannot flap the state.
    ``quarantine_factor`` is the second rung of the ladder.  Transitions
    need at least ``min_samples`` recorded executions, and each sample
    moves the state at most one rung.
    """

    #: rolling-window samples kept per array (reported, not the signal)
    window: int = 64
    #: executions recorded before any transition may fire
    min_samples: int = 4
    #: EWMA smoothing factor (1 = last sample only)
    ewma_alpha: float = 0.25
    #: floor under the technology baseline so zero-failure-probability
    #: technologies still get a finite threshold scale
    baseline_floor: float = 1e-6
    #: HEALTHY -> DEGRADED when ewma > degrade_factor * baseline
    degrade_factor: float = 8.0
    #: DEGRADED -> HEALTHY when ewma < recover_factor * baseline
    recover_factor: float = 2.0
    #: DEGRADED -> QUARANTINED when ewma > quarantine_factor * baseline
    quarantine_factor: float = 64.0
    #: cool-down before a quarantined array may serve probe requests
    probation_period_s: float = 30.0
    #: consecutive clean probes that end the quarantine
    probation_successes: int = 3

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ServeError(f"window must be >= 1, got {self.window}")
        if self.min_samples < 1:
            raise ServeError(
                f"min_samples must be >= 1, got {self.min_samples}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ServeError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.baseline_floor <= 0.0:
            raise ServeError(
                f"baseline_floor must be positive, got {self.baseline_floor}")
        if not (0.0 < self.recover_factor < self.degrade_factor
                < self.quarantine_factor):
            raise ServeError(
                "factors must satisfy 0 < recover < degrade < quarantine, "
                f"got {self.recover_factor}/{self.degrade_factor}/"
                f"{self.quarantine_factor}")
        if self.probation_period_s < 0.0:
            raise ServeError(
                f"probation_period_s must be >= 0, "
                f"got {self.probation_period_s}")
        if self.probation_successes < 1:
            raise ServeError(
                f"probation_successes must be >= 1, "
                f"got {self.probation_successes}")


class _ArrayRecord:
    """Mutable health state of one fleet member."""

    __slots__ = ("state", "ewma", "window", "samples", "probes",
                 "clean_probes", "quarantined_at", "hard_faults",
                 "faults_discovered", "retries", "transitions",
                 "scrub_probes", "scrub_faults", "vote_disagreements")

    def __init__(self) -> None:
        self.state = ArrayHealth.HEALTHY
        self.ewma: float | None = None
        self.window: list[float] = []
        self.samples = 0
        self.probes = 0
        self.clean_probes = 0
        self.quarantined_at = 0.0
        self.hard_faults = 0
        self.faults_discovered = 0
        self.retries = 0
        self.transitions = 0
        self.scrub_probes = 0
        self.scrub_faults = 0
        self.vote_disagreements = 0


class HealthRegistry:
    """Thread-safe per-array failure-rate estimators and state machine.

    ``technology`` provides the ``write_failure_probability`` baseline the
    thresholds scale from; ``clock`` is injectable so probation timing is
    deterministic in tests; ``on_transition`` (called as
    ``on_transition(array_id, old, new, reason)`` *outside* the registry
    lock) lets the service react — e.g. proactively recompiling cached
    artifacts for a degrading array.
    """

    def __init__(self, technology, policy: HealthPolicy | None = None, *,
                 clock=time.monotonic, on_transition=None) -> None:
        self.policy = policy or HealthPolicy()
        self.baseline = max(float(technology.write_failure_probability),
                            self.policy.baseline_floor)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._records: dict[int, _ArrayRecord] = {}
        self._transitions: list[dict] = []
        self.degraded_total = 0
        self.quarantined_total = 0
        self.recovered_total = 0

    # ------------------------------------------------------------------
    # telemetry in
    # ------------------------------------------------------------------
    def record_execution(self, array_id: int, *,
                         writes_verified: int = 0,
                         write_retries_used: int = 0,
                         write_failures_injected: int = 0,
                         discovered_faults: int = 0,
                         remaps: int = 0,
                         hard_fault: bool = False) -> ArrayHealth:
        """Fold one machine run's counters into the array's estimate.

        The per-run failure rate is ``events / attempts`` where events are
        retried writes (injected soft failures already surface as the
        retries they cost, so the two counters are max-ed, not summed)
        plus stuck-at discoveries and remaps, and attempts are all write
        commits including the retries.  ``hard_fault=True`` (the run ended
        in :class:`~repro.errors.HardFaultError`) counts as a rate-1.0
        sample.  Returns the array's state after the sample.
        """
        events = (max(write_retries_used, write_failures_injected)
                  + discovered_faults + remaps)
        attempts = max(1, writes_verified + write_retries_used)
        rate = 1.0 if hard_fault else min(1.0, events / attempts)
        fired: tuple | None = None
        with self._lock:
            rec = self._records.setdefault(array_id, _ArrayRecord())
            rec.retries += write_retries_used
            rec.faults_discovered += discovered_faults
            if hard_fault:
                rec.hard_faults += 1
            fired = self._fold(array_id, rec, rate)
            state = rec.state
        self._fire(fired)
        return state

    def record_scrub(self, array_id: int, *, cells_probed: int,
                     latent_faults: int = 0,
                     weight: float = 16.0) -> ArrayHealth:
        """Fold one patrol-scrub slice into the array's estimate.

        A scrub probes idle cells, so its discoveries are *weighted*
        (``weight`` x, default 16): one latent stuck-at found among
        hundreds of clean cells still says more about the array's decay
        than the same ratio of soft write retries would — latent faults
        corrupt results silently until found.  The sample rate is
        ``min(1, weight * latent_faults / cells_probed)``; a clean slice
        is a rate-0 sample (scrubbing actively *recovers* a DEGRADED
        array whose faults have been placed around).  Scrub samples on a
        QUARANTINED array update counters only — probation probes must be
        real serve-path successes, not background sweeps.
        """
        if cells_probed < 0 or latent_faults < 0 or weight < 0.0:
            raise ServeError("scrub sample counts must be non-negative")
        rate = min(1.0, weight * latent_faults / max(1, cells_probed))
        fired: tuple | None = None
        with self._lock:
            rec = self._records.setdefault(array_id, _ArrayRecord())
            rec.scrub_probes += cells_probed
            rec.scrub_faults += latent_faults
            rec.faults_discovered += latent_faults
            if rec.state is not ArrayHealth.QUARANTINED:
                fired = self._fold(array_id, rec, rate)
            state = rec.state
        self._fire(fired)
        return state

    def record_vote_disagreement(self, array_id: int) -> ArrayHealth:
        """Fold one voted-execution disagreement as a rate-1.0 sample.

        An array outvoted by the rest of the fleet returned a wrong
        answer that every per-cell mitigation missed — the highest-weight
        failure evidence the serve loop can produce, so it counts like a
        hard fault (and, on a quarantined array, as a dirty probation
        probe).
        """
        fired: tuple | None = None
        with self._lock:
            rec = self._records.setdefault(array_id, _ArrayRecord())
            rec.vote_disagreements += 1
            fired = self._fold(array_id, rec, 1.0)
            state = rec.state
        self._fire(fired)
        return state

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    def _fold(self, array_id: int, rec: _ArrayRecord,
              rate: float) -> tuple | None:
        """Fold one rate sample under the lock: estimators + one step.

        Quarantined arrays route the sample to the probation logic
        instead of the estimators (their pre-quarantine estimate is
        frozen until probation resets it).
        """
        rec.samples += 1
        if rec.state is ArrayHealth.QUARANTINED:
            return self._probe(array_id, rec, rate)
        rec.ewma = (rate if rec.ewma is None else
                    (1.0 - self.policy.ewma_alpha) * rec.ewma
                    + self.policy.ewma_alpha * rate)
        rec.window.append(rate)
        if len(rec.window) > self.policy.window:
            del rec.window[:len(rec.window) - self.policy.window]
        return self._step(array_id, rec)

    def _step(self, array_id: int, rec: _ArrayRecord) -> tuple | None:
        """One ladder step (at most) for a non-quarantined array."""
        if rec.samples < self.policy.min_samples or rec.ewma is None:
            return None
        if rec.state is ArrayHealth.HEALTHY:
            if rec.ewma > self.policy.degrade_factor * self.baseline:
                return self._transition(
                    array_id, rec, ArrayHealth.DEGRADED,
                    f"ewma {rec.ewma:.2e} > {self.policy.degrade_factor:g}x "
                    f"baseline {self.baseline:.2e}")
            return None
        # DEGRADED: escalate or recover
        if rec.ewma > self.policy.quarantine_factor * self.baseline:
            rec.quarantined_at = self._clock()
            rec.clean_probes = 0
            return self._transition(
                array_id, rec, ArrayHealth.QUARANTINED,
                f"ewma {rec.ewma:.2e} > {self.policy.quarantine_factor:g}x "
                f"baseline {self.baseline:.2e}")
        if rec.ewma < self.policy.recover_factor * self.baseline:
            return self._transition(
                array_id, rec, ArrayHealth.HEALTHY,
                f"ewma {rec.ewma:.2e} < {self.policy.recover_factor:g}x "
                f"baseline {self.baseline:.2e}")
        return None

    def _probe(self, array_id: int, rec: _ArrayRecord,
               rate: float) -> tuple | None:
        """One probation probe of a quarantined array."""
        rec.probes += 1
        if rate <= self.policy.recover_factor * self.baseline:
            rec.clean_probes += 1
            if rec.clean_probes >= self.policy.probation_successes:
                # fresh start: the poisoned pre-quarantine estimate must
                # not drag a repaired array straight back down the ladder
                rec.ewma = None
                rec.window = []
                return self._transition(
                    array_id, rec, ArrayHealth.HEALTHY,
                    f"probation passed ({rec.clean_probes} clean probes)")
            return None
        rec.clean_probes = 0
        rec.quarantined_at = self._clock()  # dirty probe: restart cool-down
        return None

    def _transition(self, array_id: int, rec: _ArrayRecord,
                    new: ArrayHealth, reason: str) -> tuple:
        old, rec.state = rec.state, new
        rec.transitions += 1
        if new is ArrayHealth.DEGRADED:
            self.degraded_total += 1
        elif new is ArrayHealth.QUARANTINED:
            self.quarantined_total += 1
        elif old is not ArrayHealth.HEALTHY:
            self.recovered_total += 1
        self._transitions.append({
            "array": array_id, "from": old.value, "to": new.value,
            "at": self._clock(), "reason": reason})
        if len(self._transitions) > _TRANSITION_WINDOW:
            del self._transitions[:len(self._transitions)
                                  - _TRANSITION_WINDOW]
        return (array_id, old, new, reason)

    def _fire(self, transition: tuple | None) -> None:
        if transition is not None and self._on_transition is not None:
            self._on_transition(*transition)

    # ------------------------------------------------------------------
    # decisions out
    # ------------------------------------------------------------------
    def state_of(self, array_id: int) -> ArrayHealth:
        """The array's current state (unknown arrays are HEALTHY)."""
        with self._lock:
            rec = self._records.get(array_id)
            return rec.state if rec is not None else ArrayHealth.HEALTHY

    def failure_rate(self, array_id: int) -> float:
        """The array's EWMA failure-rate estimate (0.0 before any sample)."""
        with self._lock:
            rec = self._records.get(array_id)
            return (rec.ewma if rec is not None
                    and rec.ewma is not None else 0.0)

    def allow(self, array_id: int) -> bool:
        """Whether the array may serve a CIM request right now.

        Healthy and degraded arrays always may (degraded is a warning
        level, not an outage).  A quarantined array answers ``False``
        until ``probation_period_s`` has elapsed since (re-)quarantine,
        after which probe requests are admitted — their recorded samples
        drive the probation logic of :meth:`record_execution`.
        """
        with self._lock:
            rec = self._records.get(array_id)
            if rec is None or rec.state is not ArrayHealth.QUARANTINED:
                return True
            return (self._clock() - rec.quarantined_at
                    >= self.policy.probation_period_s)

    def tracked(self) -> tuple[int, ...]:
        """Sorted ids of every array the registry has seen a sample for."""
        with self._lock:
            return tuple(sorted(self._records))

    def census(self) -> tuple[int, int]:
        """``(quarantined, tracked)`` fleet counts (sampled arrays only)."""
        with self._lock:
            tracked = len(self._records)
            quarantined = sum(
                1 for rec in self._records.values()
                if rec.state is ArrayHealth.QUARANTINED)
            return quarantined, tracked

    def force_state(self, array_id: int, state: ArrayHealth,
                    reason: str = "forced") -> None:
        """Set an array's state directly (benchmarks and operator tools)."""
        if not isinstance(state, ArrayHealth):
            raise ServeError(f"not an ArrayHealth state: {state!r}")
        fired: tuple | None = None
        with self._lock:
            rec = self._records.setdefault(array_id, _ArrayRecord())
            if state is ArrayHealth.QUARANTINED:
                rec.quarantined_at = self._clock()
                rec.clean_probes = 0
            if rec.state is not state:
                fired = self._transition(array_id, rec, state, reason)
        self._fire(fired)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The JSON-compatible health section of the service stats."""
        with self._lock:
            arrays = {}
            for array_id in sorted(self._records):
                rec = self._records[array_id]
                window_rate = (sum(rec.window) / len(rec.window)
                               if rec.window else 0.0)
                arrays[array_id] = {
                    "state": rec.state.value,
                    "failure_rate": rec.ewma if rec.ewma is not None else 0.0,
                    "window_rate": window_rate,
                    "samples": rec.samples,
                    "probes": rec.probes,
                    "retries": rec.retries,
                    "faults_discovered": rec.faults_discovered,
                    "hard_faults": rec.hard_faults,
                    "transitions": rec.transitions,
                    "scrub_probes": rec.scrub_probes,
                    "scrub_faults": rec.scrub_faults,
                    "vote_disagreements": rec.vote_disagreements,
                }
            return {
                "baseline": self.baseline,
                "degraded": self.degraded_total,
                "quarantined": self.quarantined_total,
                "recovered": self.recovered_total,
                "arrays": arrays,
                "transitions": list(self._transitions),
            }


# ----------------------------------------------------------------------
# static fault-map assessment (the multi-array / CLI bridge)
# ----------------------------------------------------------------------
def _fault_counts(fault_map, target) -> dict[int, int]:
    """Known faults per sub-array, restricted to the usable cell window."""
    counts: dict[int, int] = {}
    if fault_map is None:
        return counts
    for (array, row, col), _fault in fault_map.cells():
        if (0 <= array < target.num_arrays and row < target.usable_rows
                and col < target.cols):
            counts[array] = counts.get(array, 0) + 1
    return counts


def subarray_exclusions(fault_map, target, *,
                        max_fault_fraction: float = 0.25) -> tuple[int, ...]:
    """Sub-arrays of ``target`` too fault-ridden to schedule onto.

    Returns the sorted array indices whose known-fault density (within
    the usable rows x cols window) exceeds ``max_fault_fraction`` — the
    set the multi-array co-scheduler should exclude via
    ``CompilerConfig.exclude_arrays``.  Never excludes *every* array: the
    least-faulty candidate stays in service so a compile remains possible
    (it will simply place very little there).
    """
    if not 0.0 < max_fault_fraction <= 1.0:
        raise ServeError(f"max_fault_fraction must be in (0, 1], "
                         f"got {max_fault_fraction}")
    counts = _fault_counts(fault_map, target)
    cells = max(1, target.usable_rows * target.cols)
    over = sorted(a for a, n in counts.items()
                  if n / cells > max_fault_fraction)
    if len(over) >= target.num_arrays:
        keep = min(over, key=lambda a: (counts[a], a))
        over = [a for a in over if a != keep]
    return tuple(over)


def subarray_penalties(fault_map, target, *,
                       degrade_fraction: float = 0.05,
                       quarantine_fraction: float = 0.25,
                       penalty: float = 4.0) -> tuple[tuple[int, float], ...]:
    """DEGRADED sub-arrays of ``target`` as assignment-cost penalties.

    The soft companion of :func:`subarray_exclusions`: sub-arrays whose
    known-fault density sits in the DEGRADED band (between
    ``degrade_fraction`` and ``quarantine_fraction``) each get ``penalty``
    subtracted from their multi-array assignment score — steering new
    placements toward healthier arrays without forbidding anything.
    Returns sorted ``(array, penalty)`` pairs ready for
    ``CompilerConfig.array_penalties``.
    """
    if penalty < 0.0:
        raise ServeError(f"penalty must be >= 0, got {penalty}")
    assessment = assess_fault_map(fault_map, target,
                                  degrade_fraction=degrade_fraction,
                                  quarantine_fraction=quarantine_fraction)
    return tuple((array, penalty) for array in sorted(assessment)
                 if assessment[array]["state"] is ArrayHealth.DEGRADED)


def assess_fault_map(fault_map, target, *,
                     degrade_fraction: float = 0.05,
                     quarantine_fraction: float = 0.25) -> dict[int, dict]:
    """Static per-sub-array health assessment of a known fault map.

    The dynamic registry rates arrays by *observed* failure traffic; this
    is the complementary cold-start view ``sherlock health`` prints: every
    sub-array's known-fault count, density, and the state its density
    alone implies.
    """
    if not 0.0 < degrade_fraction < quarantine_fraction <= 1.0:
        raise ServeError(
            "fractions must satisfy 0 < degrade < quarantine <= 1, got "
            f"{degrade_fraction}/{quarantine_fraction}")
    counts = _fault_counts(fault_map, target)
    cells = max(1, target.usable_rows * target.cols)
    out: dict[int, dict] = {}
    for array in range(target.num_arrays):
        density = counts.get(array, 0) / cells
        if density > quarantine_fraction:
            state = ArrayHealth.QUARANTINED
        elif density > degrade_fraction:
            state = ArrayHealth.DEGRADED
        else:
            state = ArrayHealth.HEALTHY
        out[array] = {"faults": counts.get(array, 0), "density": density,
                      "state": state}
    return out
