"""Tests for the per-array health registry and its scheduler bridges."""

import random

import pytest

from repro.arch import TargetSpec
from repro.arch.isa import instruction_arrays
from repro.core import CompilerConfig, SherlockCompiler
from repro.devices import RERAM, CellFault, FaultMap
from repro.dfg.evaluate import evaluate
from repro.errors import ServeError
from repro.serve import (
    ArrayHealth,
    CompileService,
    HealthPolicy,
    HealthRegistry,
    assess_fault_map,
    subarray_exclusions,
    subarray_penalties,
)
from repro.workloads.synthetic import synthetic_dag

from tests.test_serve import FakeClock, request_for, small_dag, small_target

#: one-step-per-sample ladder policy for deterministic unit tests
FAST = HealthPolicy(min_samples=1, probation_period_s=10.0,
                    probation_successes=2)


def registry(policy=FAST, clock=None, on_transition=None):
    return HealthRegistry(RERAM, policy, clock=clock or FakeClock(),
                          on_transition=on_transition)


def dirty(reg, array_id=0, **kwargs):
    """One rate-1.0 sample (all writes retried)."""
    return reg.record_execution(array_id, writes_verified=0,
                                write_retries_used=8, **kwargs)


def clean(reg, array_id=0):
    """One rate-0.0 sample (all writes verified first try)."""
    return reg.record_execution(array_id, writes_verified=8)


class TestHealthPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"window": 0},
        {"min_samples": 0},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"baseline_floor": 0.0},
        {"degrade_factor": 1.0, "recover_factor": 2.0},  # recover >= degrade
        {"quarantine_factor": 4.0},  # quarantine <= degrade
        {"probation_period_s": -1.0},
        {"probation_successes": 0},
    ])
    def test_rejects_invalid_policies(self, kwargs):
        with pytest.raises(ServeError):
            HealthPolicy(**kwargs)

    def test_baseline_floor_applies(self):
        class Perfect:
            write_failure_probability = 0.0

        reg = HealthRegistry(Perfect(), FAST)
        assert reg.baseline == FAST.baseline_floor


class TestHealthRegistry:
    def test_untracked_arrays_are_healthy_and_allowed(self):
        reg = registry()
        assert reg.state_of(7) is ArrayHealth.HEALTHY
        assert reg.allow(7)
        assert reg.failure_rate(7) == 0.0
        assert reg.census() == (0, 0)

    def test_one_ladder_step_per_sample(self):
        reg = registry()
        assert dirty(reg) is ArrayHealth.DEGRADED
        assert dirty(reg) is ArrayHealth.QUARANTINED
        snap = reg.snapshot()
        assert snap["degraded"] == 1
        assert snap["quarantined"] == 1
        assert [t["to"] for t in snap["transitions"]] == [
            "degraded", "quarantined"]

    def test_min_samples_gates_transitions(self):
        reg = registry(HealthPolicy(min_samples=4))
        assert reg.record_execution(0, hard_fault=True) is ArrayHealth.HEALTHY
        assert clean(reg) is ArrayHealth.HEALTHY
        assert clean(reg) is ArrayHealth.HEALTHY
        # fourth sample meets min_samples; ewma has decayed below the
        # degrade threshold? 1.0 * 0.75^3 is still >> 8x baseline
        assert clean(reg) is ArrayHealth.DEGRADED

    def test_hard_fault_is_a_weighted_sample_not_instant_quarantine(self):
        reg = registry(HealthPolicy())  # default min_samples=4
        state = reg.record_execution(0, hard_fault=True)
        assert state is ArrayHealth.HEALTHY
        assert reg.snapshot()["arrays"][0]["hard_faults"] == 1

    def test_injected_failures_do_not_double_count_their_retries(self):
        reg = registry()
        # 4 injected soft failures surfaced as the 4 retries they cost:
        # rate = max(4, 4) / (16 + 4), not (4 + 4) / 20
        reg.record_execution(0, writes_verified=16, write_retries_used=4,
                             write_failures_injected=4)
        assert reg.failure_rate(0) == pytest.approx(4 / 20)

    def test_degraded_recovers_below_the_hysteresis_band(self):
        reg = registry()
        dirty(reg)
        assert reg.state_of(0) is ArrayHealth.DEGRADED
        for _ in range(40):  # ewma decays by 0.75x per clean sample
            state = clean(reg)
            if state is ArrayHealth.HEALTHY:
                break
        assert reg.state_of(0) is ArrayHealth.HEALTHY
        assert reg.snapshot()["recovered"] == 1

    def test_quarantine_probation_and_recovery(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        dirty(reg)
        dirty(reg)
        assert reg.state_of(0) is ArrayHealth.QUARANTINED
        assert not reg.allow(0)  # cool-down in force
        clock.advance(10.1)
        assert reg.allow(0)  # probes admitted
        assert clean(reg) is ArrayHealth.QUARANTINED  # 1 of 2 clean probes
        assert clean(reg) is ArrayHealth.HEALTHY
        snap = reg.snapshot()
        assert snap["recovered"] == 1
        assert snap["arrays"][0]["probes"] == 2
        # estimators reset: the poisoned pre-quarantine ewma is gone
        assert reg.failure_rate(0) == 0.0

    def test_dirty_probe_restarts_the_cooldown(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        dirty(reg)
        dirty(reg)
        clock.advance(10.1)
        assert reg.allow(0)
        clean(reg)
        dirty(reg)  # dirty probe: clean streak broken, cool-down restarts
        assert reg.state_of(0) is ArrayHealth.QUARANTINED
        assert not reg.allow(0)
        clock.advance(10.1)
        assert reg.allow(0)
        assert clean(reg) is ArrayHealth.QUARANTINED
        assert clean(reg) is ArrayHealth.HEALTHY

    def test_on_transition_callback_sees_every_move(self):
        seen = []
        reg = registry(on_transition=lambda *args: seen.append(args))
        dirty(reg, array_id=3)
        dirty(reg, array_id=3)
        assert [(a, old.value, new.value) for a, old, new, _ in seen] == [
            (3, "healthy", "degraded"), (3, "degraded", "quarantined")]
        assert all(isinstance(reason, str) and reason for *_ignored,
                   reason in seen)

    def test_force_state_and_census(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        clean(reg, array_id=0)
        clean(reg, array_id=1)
        reg.force_state(1, ArrayHealth.QUARANTINED, reason="operator")
        assert reg.census() == (1, 2)
        assert not reg.allow(1)
        with pytest.raises(ServeError):
            reg.force_state(0, "quarantined")  # not an ArrayHealth

    def test_snapshot_shape(self):
        reg = registry()
        reg.record_execution(0, writes_verified=8, write_retries_used=2,
                             discovered_faults=1)
        snap = reg.snapshot()
        assert snap["baseline"] == pytest.approx(
            RERAM.write_failure_probability)
        entry = snap["arrays"][0]
        assert entry["samples"] == 1
        assert entry["retries"] == 2
        assert entry["faults_discovered"] == 1
        assert 0.0 < entry["failure_rate"] <= 1.0
        assert entry["window_rate"] == pytest.approx(entry["failure_rate"])


# ----------------------------------------------------------------------
# static fault-map assessment and the multi-array bridge
# ----------------------------------------------------------------------
def saturate(fault_map, target, array, fraction):
    """Mark the first ``fraction`` of the array's usable window dead."""
    budget = int(target.usable_rows * target.cols * fraction) + 1
    for row in range(target.usable_rows):
        for col in range(target.cols):
            if budget == 0:
                return
            fault_map.mark_dead(array, row, col)
            budget -= 1


class TestFaultMapAssessment:
    def test_subarray_exclusions_flags_saturated_arrays(self):
        target = TargetSpec.square(16, RERAM, num_arrays=3)
        fm = FaultMap()
        saturate(fm, target, 1, 0.30)
        assert subarray_exclusions(fm, target) == (1,)
        assert subarray_exclusions(None, target) == ()
        with pytest.raises(ServeError):
            subarray_exclusions(fm, target, max_fault_fraction=0.0)

    def test_never_excludes_every_array(self):
        target = TargetSpec.square(16, RERAM, num_arrays=2)
        fm = FaultMap()
        saturate(fm, target, 0, 0.40)
        saturate(fm, target, 1, 0.30)
        # both are over threshold; the least-faulty one stays in service
        assert subarray_exclusions(fm, target) == (0,)

    def test_assess_fault_map_states(self):
        target = TargetSpec.square(16, RERAM, num_arrays=3)
        fm = FaultMap()
        saturate(fm, target, 1, 0.10)
        saturate(fm, target, 2, 0.30)
        assessment = assess_fault_map(fm, target)
        assert assessment[0]["state"] is ArrayHealth.HEALTHY
        assert assessment[1]["state"] is ArrayHealth.DEGRADED
        assert assessment[2]["state"] is ArrayHealth.QUARANTINED
        assert assessment[2]["density"] > 0.25
        with pytest.raises(ServeError):
            assess_fault_map(fm, target, degrade_fraction=0.5,
                             quarantine_fraction=0.25)

    def test_exclude_arrays_config_is_normalized_and_honored(self):
        config = CompilerConfig(schedule="multi", exclude_arrays=[2, 1, 2])
        assert config.exclude_arrays == (1, 2)
        dag = synthetic_dag(num_ops=48, num_inputs=12, seed=5,
                            name="excl-test")
        target = TargetSpec.square(16, RERAM, num_arrays=4)
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        used = set()
        for inst in program.instructions:
            used |= set(instruction_arrays(inst))
        assert used and not used & {1, 2}
        rng = random.Random(0)
        inputs = {o.name: rng.getrandbits(8) for o in dag.inputs()}
        assert program.execute(inputs, 8) == evaluate(dag, inputs, 8)


# ----------------------------------------------------------------------
# the service's health-driven offload ladder
# ----------------------------------------------------------------------
class TestServiceHealthIntegration:
    def test_quarantined_array_is_offloaded_then_probed(self):
        clock = FakeClock()
        policy = HealthPolicy(min_samples=1, probation_period_s=5.0,
                              probation_successes=1)
        dag = small_dag()
        with CompileService(small_target(num_arrays=4), CompilerConfig(),
                            workers=1, clock=clock,
                            health_policy=policy) as service:
            service.health.force_state(0, ArrayHealth.QUARANTINED)
            result = service.process([request_for(dag, array_id=0)])[0]
            assert result.error is None
            assert result.engine == "cpu"
            assert "quarantined" in result.offload_reason
            clock.advance(5.1)  # probation: the probe reaches CIM again
            probe = service.process([request_for(dag, array_id=0)])[0]
            assert probe.error is None
            assert probe.engine == "cim"
            assert service.health.state_of(0) is ArrayHealth.HEALTHY

    def test_degraded_fleet_offloads_but_admits_probes(self):
        clock = FakeClock()
        policy = HealthPolicy(min_samples=1, probation_period_s=5.0,
                              probation_successes=1)
        dag = small_dag()
        with CompileService(small_target(num_arrays=4), CompilerConfig(),
                            workers=1, clock=clock,
                            health_policy=policy) as service:
            # track three arrays, then quarantine two: 1/3 healthy is
            # below the 0.5 _MIN_HEALTHY_FRACTION, so the fleet degrades
            for array_id in (0, 1, 2):
                service.process([request_for(dag, array_id=array_id)])
            service.health.force_state(1, ArrayHealth.QUARANTINED)
            service.health.force_state(2, ArrayHealth.QUARANTINED)
            result = service.process([request_for(dag, array_id=0)])[0]
            assert result.engine == "cpu"
            assert "degraded-fleet" in result.offload_reason
            assert service.health.snapshot()["quarantined"] == 2

    def test_stats_surface_carries_health(self):
        dag = small_dag()
        with CompileService(small_target(), CompilerConfig(),
                            workers=1) as service:
            service.process([request_for(dag)])
            stats = service.stats()
            assert stats["health"]["arrays"][0]["samples"] >= 1
            text = service.stats_text()
            assert "health: baseline=" in text
            assert "array 0: state=healthy" in text


# ----------------------------------------------------------------------
# scrub samples, vote disagreements, concurrency
# ----------------------------------------------------------------------
class TestActiveIntegritySamples:
    def test_scrub_discovery_is_a_weighted_sample(self):
        reg = registry()
        # 1 latent fault in 160 cells at weight 16 => rate 0.1, far above
        # any threshold: one sample walks HEALTHY -> DEGRADED
        state = reg.record_scrub(0, cells_probed=160, latent_faults=1)
        assert state is ArrayHealth.DEGRADED
        snap = reg.snapshot()["arrays"][0]
        assert snap["scrub_probes"] == 160
        assert snap["scrub_faults"] == 1
        assert snap["faults_discovered"] == 1

    def test_clean_scrub_slice_recovers_a_degraded_array(self):
        reg = registry()
        # 1 latent in 8000 cells at weight 16 => rate 2e-3: inside the
        # degraded band (8e-4 .. 6.4e-3 for the ReRAM baseline)
        reg.record_scrub(0, cells_probed=8000, latent_faults=1)
        assert reg.state_of(0) is ArrayHealth.DEGRADED
        for _ in range(32):  # rate-0 samples decay the EWMA
            reg.record_scrub(0, cells_probed=64)
        assert reg.state_of(0) is ArrayHealth.HEALTHY

    def test_scrub_on_quarantined_array_updates_counters_only(self):
        clock = FakeClock()
        reg = registry(clock=clock)
        reg.force_state(0, ArrayHealth.QUARANTINED)
        clock.advance(60.0)  # probation window is open
        reg.record_scrub(0, cells_probed=64)
        reg.record_scrub(0, cells_probed=64)
        snap = reg.snapshot()["arrays"][0]
        assert snap["scrub_probes"] == 128
        # background sweeps are not probation probes
        assert snap["probes"] == 0
        assert reg.state_of(0) is ArrayHealth.QUARANTINED

    def test_scrub_rejects_negative_counts(self):
        with pytest.raises(ServeError):
            registry().record_scrub(0, cells_probed=-1)

    def test_vote_disagreement_counts_like_a_hard_fault(self):
        reg = registry()
        assert reg.record_vote_disagreement(0) is ArrayHealth.DEGRADED
        assert reg.record_vote_disagreement(0) is ArrayHealth.QUARANTINED
        snap = reg.snapshot()
        assert snap["arrays"][0]["vote_disagreements"] == 2

    def test_concurrent_hammer_loses_no_samples_or_transitions(self):
        import threading

        reg = registry(policy=HealthPolicy(min_samples=1))
        moves = []
        reg._on_transition = lambda *t: moves.append(t)
        threads_per_array, samples = 4, 50

        def hammer(array_id, seed):
            rng = random.Random(seed)
            for _ in range(samples):
                if rng.random() < 0.5:
                    dirty(reg, array_id)
                else:
                    clean(reg, array_id)

        threads = [
            threading.Thread(target=hammer, args=(array_id, seed))
            for array_id in (0, 1) for seed in range(threads_per_array)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        for array_id in (0, 1):
            rec = snap["arrays"][array_id]
            assert rec["samples"] == threads_per_array * samples
            assert rec["state"] in ("healthy", "degraded", "quarantined")
            assert 0.0 <= rec["failure_rate"] <= 1.0
        # every callback-visible move is also in the per-array tallies
        assert len(moves) == sum(
            snap["arrays"][a]["transitions"] for a in (0, 1))
        assert (snap["degraded"] + snap["quarantined"] + snap["recovered"]
                >= len([m for m in moves]) // 3 or moves == [])


class TestSubarrayPenalties:
    def test_degraded_band_arrays_are_penalized(self):
        target = TargetSpec.square(16, RERAM, num_arrays=4)
        fault_map = FaultMap()
        cells = target.usable_rows * target.cols
        # array 1: ~10% density (degraded band); array 2: >25% (quarantine)
        for index in range(max(2, cells // 10)):
            fault_map.set_fault(1, index // target.cols,
                                index % target.cols, CellFault.STUCK0)
        for index in range(cells // 3):
            fault_map.set_fault(2, index // target.cols,
                                index % target.cols, CellFault.STUCK1)
        penalties = dict(subarray_penalties(fault_map, target, penalty=3.0))
        assert penalties == {1: 3.0}  # quarantined array is excluded, not
        # penalized; healthy arrays carry no penalty
        assert subarray_exclusions(fault_map, target) == (2,)

    def test_penalties_round_trip_through_config(self):
        config = CompilerConfig(
            schedule="multi",
            array_penalties=subarray_penalties(FaultMap(),
                                               small_target()) or
            ((1, 2.5),))
        assert config.array_penalties == ((1, 2.5),)
        with pytest.raises(Exception):
            CompilerConfig(array_penalties=((-1, 2.0),))

    def test_rejects_negative_penalty(self):
        with pytest.raises(ServeError):
            subarray_penalties(FaultMap(), small_target(), penalty=-1.0)
