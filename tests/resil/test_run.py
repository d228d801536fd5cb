"""Fault-injected run tests: the empty-schedule equivalence gate, boot
faults, mid-run kill recovery (differentially verified), cascading
failures, link degradation, and the harness/obs integration."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs
from repro.exec import JobSpec
from repro.harness import run_edge_benchmark
from repro.harness.simulate import _simulate_edge, cached_program
from repro.resil import (
    CompositionLost,
    FaultSchedule,
    ResilientRun,
    run_resilient,
)
from repro.resil.faults import FaultEvent
from repro.tflex import TFlexSystem, tflex_config


def edge(bench, ncores, **kwargs):
    return JobSpec.edge(bench, ncores=ncores, **kwargs)


class TestEmptyScheduleEquivalence:
    """The checkpoint/recompose machinery must be invisible when no
    fault fires: result-identical to the uninterrupted simulator."""

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(["dither", "conv"]), st.sampled_from([2, 4]))
    def test_result_identical(self, bench, ncores):
        spec = edge(bench, ncores)
        plain = _simulate_edge(spec)
        resil = run_resilient(spec, FaultSchedule())
        assert resil.to_dict() == plain.to_dict()

    def test_no_resil_payload_without_faults(self):
        result = run_resilient(edge("dither", 2), FaultSchedule())
        assert result.resil is None
        assert "resil" not in result.to_dict()


class TestSpecRouting:
    def test_harness_routes_fault_specs(self):
        schedule = FaultSchedule((FaultEvent("core_dead", core=0),))
        result = _simulate_edge(edge("dither", 2,
                                     faults=schedule.spec_items()))
        assert result.resil is not None
        assert result.resil["boot_faulty"] == [0]

    def test_run_edge_benchmark_faults_kwarg(self):
        schedule = FaultSchedule((FaultEvent("core_dead", core=0),))
        result = run_edge_benchmark("dither", ncores=2,
                                    faults=schedule.spec_items())
        assert result.resil is not None
        assert result.num_cores == 1    # survivor of a 2-core target

    def test_rejects_risc_trips_sampling(self):
        faults = FaultSchedule.single_kill(0, 100)
        with pytest.raises(ValueError, match="edge"):
            ResilientRun(JobSpec.risc("dither"), faults)
        trips_spec = JobSpec.edge("dither", trips=True)
        with pytest.raises(ValueError, match="TRIPS"):
            ResilientRun(trips_spec, faults)
        sampled = JobSpec.edge("dither", ncores=2,
                               sampling={"ff": 1000, "window": 40})
        with pytest.raises(ValueError, match="sampled"):
            ResilientRun(sampled, faults)

    def test_schedule_validated_against_chip(self):
        with pytest.raises(ValueError, match="cores 0..1"):
            ResilientRun(edge("dither", 2), FaultSchedule.single_kill(7, 100))


class TestBootFaults:
    def test_dead_core_shrinks_composition(self):
        schedule = FaultSchedule((FaultEvent("core_dead", core=0),))
        result = run_resilient(edge("conv", 8), schedule)
        # Core 0 breaks the 8-core rectangle; a 2x2 survivor remains.
        assert result.num_cores == 4
        assert result.resil["boot_faulty"] == [0]
        assert result.resil["recoveries"] == []
        baseline = _simulate_edge(edge("conv", 8))
        assert result.cycles != baseline.cycles

    def test_verified_against_interpreter(self):
        # spec.verify=True means run_resilient differentially checked
        # the final memory image against the golden interpreter.
        schedule = FaultSchedule((FaultEvent("core_dead", core=1),))
        result = run_resilient(edge("dither", 4, verify=True), schedule)
        assert result.resil["requested_cores"] == 4

    def test_all_boot_dead_is_rejected_up_front(self):
        schedule = FaultSchedule(tuple(FaultEvent("core_dead", core=c)
                                       for c in (0, 1)))
        with pytest.raises(ValueError, match="no survivor"):
            ResilientRun(edge("dither", 2), schedule)


class TestKillRecovery:
    def _half_cycle(self, bench, ncores):
        return _simulate_edge(edge(bench, ncores)).cycles // 2

    def test_recovers_and_verifies(self):
        ncores = 8
        kill_at = self._half_cycle("conv", ncores)
        schedule = FaultSchedule.single_kill(0, kill_at)
        # verify=True: the post-recovery memory image must match the
        # golden interpreter exactly (the differential acceptance gate).
        result = run_resilient(edge("conv", ncores, verify=True), schedule)

        payload = result.resil
        assert [e["kind"] for e in payload["injected"]] == ["core_kill"]
        assert len(payload["recoveries"]) == 1
        report = payload["recoveries"][0]
        assert report["cycle"] == kill_at
        assert report["core"] == 0
        assert len(report["old_cores"]) == 8
        assert len(report["new_cores"]) == 4
        assert 0 not in report["new_cores"]
        assert report["recovery_cycles"] > 0
        assert report["resumed_at"] == kill_at + report["recovery_cycles"]
        assert report["blocks_lost"] >= 0
        assert report["ipc_before"] > 0
        assert report["ipc_after"] > 0
        assert len(payload["segments"]) == 2
        assert result.num_cores == 4

    def test_failure_costs_cycles(self):
        ncores = 4
        baseline = _simulate_edge(edge("dither", ncores))
        schedule = FaultSchedule.single_kill(1, baseline.cycles // 2)
        result = run_resilient(edge("dither", ncores), schedule)
        assert result.cycles > baseline.cycles
        # Architectural work is conserved: same committed instructions.
        assert result.insts_committed >= baseline.insts_committed

    def test_double_kill_cascades(self):
        ncores = 8
        kill_at = self._half_cycle("conv", ncores)
        # Core 0 breaks the 8-core rectangle; the thread recomposes on
        # [1, 2, 5, 6].  Core 2 then fragments every remaining 2x2, so
        # the second recovery must shrink to a 2-core composition.
        schedule = FaultSchedule((
            FaultEvent("core_kill", core=0, cycle=kill_at),
            FaultEvent("core_kill", core=2, cycle=kill_at + 2000),
        ))
        result = run_resilient(edge("conv", ncores, verify=True), schedule)
        recoveries = result.resil["recoveries"]
        sizes = [(len(r["old_cores"]), len(r["new_cores"]))
                 for r in recoveries]
        assert sizes == [(8, 4), (4, 2)]
        assert len(result.resil["segments"]) == 3
        assert result.num_cores == 2

    def test_composition_lost_when_no_survivor(self):
        kill_at = self._half_cycle("dither", 2)
        schedule = FaultSchedule((
            FaultEvent("core_kill", core=0, cycle=kill_at),
            FaultEvent("core_kill", core=1, cycle=kill_at + 200),
        ))
        with pytest.raises(CompositionLost, match="no fault-free region"):
            run_resilient(edge("dither", 2), schedule)


class TestLinkDegradation:
    def test_slow_link_costs_cycles(self):
        baseline = _simulate_edge(edge("conv", 4))
        schedule = FaultSchedule((
            FaultEvent("link_slow", link=(0, 1), extra=3),
            FaultEvent("link_slow", link=(1, 0), extra=3),
        ))
        result = run_resilient(edge("conv", 4, verify=True), schedule)
        assert result.cycles > baseline.cycles
        assert result.num_cores == 4    # no core lost, only wires
        assert result.resil["recoveries"] == []
        kinds = [e["kind"] for e in result.resil["injected"]]
        assert kinds == ["link_slow", "link_slow"]

    @pytest.mark.parametrize("profiled", [False, True])
    def test_degrade_takes_effect_on_a_warm_route(self, profiled):
        """A link degraded after its routes were resolved (and after
        ``delay`` was bound, through the profiler or not) still slows
        every later message over it, on the path processors call."""
        obs = repro.obs.Observability()
        obs.profiler.enabled = profiled
        system = TFlexSystem(tflex_config(4), obs=obs)
        proc = system.compose_rect(4, cached_program("edge", "conv", 1)[0])
        assert proc.operand_delay(0, 1, 10) == 11          # route cached
        assert proc.operand_delay(0, 3, 10) == 12          # 0 -> 1 -> 3
        system.opn.degrade_link((0, 1), 3)
        assert proc.operand_delay(0, 1, 100) == 104
        assert proc.operand_delay(0, 3, 200) == 205
        assert proc.operand_delay(1, 0, 300) == 301        # other direction
        assert proc.control_delay(0, 1, 400) == 401        # other network
        assert obs.profiler.calls("noc") == (6 if profiled else 0)


class TestObservability:
    def test_recovery_metrics_and_events(self):
        obs = repro.obs.configure(metrics=True)
        events = []
        obs.bus.attach(repro.obs.CallbackSink(events.append))
        kill_at = _simulate_edge(edge("dither", 4)).cycles // 2
        run_resilient(edge("dither", 4),
                      FaultSchedule.single_kill(0, kill_at))

        kinds = [e["kind"] for e in events]
        assert "fault.inject" in kinds
        assert "recompose.start" in kinds
        assert "recompose.done" in kinds
        metrics = obs.metrics
        assert metrics.counter("resil.recoveries") == 1
        assert metrics.counter("resil.faults_injected",
                               kind="core_kill") == 1
        assert metrics.counter("resil.recovery_cycles") > 0

    def test_recovery_profiler_phase(self):
        obs = repro.obs.configure(metrics=True)
        obs.profiler.enabled = True
        kill_at = _simulate_edge(edge("dither", 4)).cycles // 2
        run_resilient(edge("dither", 4),
                      FaultSchedule.single_kill(0, kill_at))
        assert "recovery" in obs.profiler.snapshot()
