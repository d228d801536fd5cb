"""Fault-injected runs through the one edge driver, ``simulate_spec``:
no payload without faults, boot faults, mid-run kill recovery
(differentially verified), cascading failures, link degradation, and
the harness/obs integration.  That an empty schedule changes nothing is
the golden fixtures' job: every fault-free edge spec runs this path."""

import pytest

import repro.obs
from repro.exec import JobSpec
from repro.harness import run_edge_benchmark
from repro.harness.simulate import cached_program, simulate_spec
from repro.resil import CompositionLost, FaultSchedule
from repro.resil.faults import FaultEvent
from repro.tflex import TFlexSystem, tflex_config


def _kill(core, cycle):
    """The schedule that kills ``core`` at ``cycle``."""
    return FaultSchedule((FaultEvent("core_kill", core=core, cycle=cycle),))


def edge(bench, ncores, schedule=None, **kwargs):
    faults = schedule.spec_items() if schedule is not None else None
    return JobSpec.edge(bench, ncores=ncores, faults=faults, **kwargs)


class TestEmptyScheduleEquivalence:
    def test_no_resil_payload_without_faults(self):
        result = simulate_spec(edge("dither", 2, FaultSchedule()))
        assert result.resil is None
        assert "resil" not in result.to_dict()


class TestSpecRouting:
    def test_harness_routes_fault_specs(self):
        schedule = FaultSchedule((FaultEvent("core_dead", core=0),))
        result = simulate_spec(edge("dither", 2, schedule))
        assert result.resil is not None
        assert result.resil["boot_faulty"] == [0]

    def test_run_edge_benchmark_faults_kwarg(self):
        schedule = FaultSchedule((FaultEvent("core_dead", core=0),))
        result = run_edge_benchmark("dither", ncores=2,
                                    faults=schedule.spec_items())
        assert result.resil is not None
        assert result.num_cores == 1    # survivor of a 2-core target

    def test_rejects_risc_trips_sampling(self):
        faults = _kill(0, 100).spec_items()
        with pytest.raises(ValueError, match="edge"):
            JobSpec(kind="risc", bench="dither", ncores=1, faults=faults)
        with pytest.raises(ValueError, match="TRIPS"):
            JobSpec.edge("dither", trips=True, faults=faults)
        with pytest.raises(ValueError, match="sampled"):
            JobSpec.edge("dither", ncores=2, faults=faults,
                         sampling={"ff_blocks": 1000, "window_blocks": 40})

    def test_schedule_validated_against_chip(self):
        with pytest.raises(ValueError, match="cores 0..1"):
            simulate_spec(edge("dither", 2, _kill(7, 100)))


class TestBootFaults:
    def test_dead_core_shrinks_composition(self):
        schedule = FaultSchedule((FaultEvent("core_dead", core=0),))
        result = simulate_spec(edge("conv", 8, schedule))
        # Core 0 breaks the 8-core rectangle; a 2x2 survivor remains.
        assert result.num_cores == 4
        assert result.resil["boot_faulty"] == [0]
        assert result.resil["recoveries"] == []
        baseline = simulate_spec(edge("conv", 8))
        assert result.cycles != baseline.cycles

    def test_verified_against_interpreter(self):
        # spec.verify=True means the run differentially checked the
        # final memory image against the golden interpreter.
        schedule = FaultSchedule((FaultEvent("core_dead", core=1),))
        result = simulate_spec(edge("dither", 4, schedule, verify=True))
        assert result.resil["requested_cores"] == 4

    def test_all_boot_dead_is_rejected_up_front(self):
        schedule = FaultSchedule(tuple(FaultEvent("core_dead", core=c)
                                       for c in (0, 1)))
        with pytest.raises(ValueError, match="no survivor"):
            simulate_spec(edge("dither", 2, schedule))


class TestKillRecovery:
    def _half_cycle(self, bench, ncores):
        return simulate_spec(edge(bench, ncores)).cycles // 2

    def test_recovers_and_verifies(self):
        ncores = 8
        kill_at = self._half_cycle("conv", ncores)
        schedule = _kill(0, kill_at)
        # verify=True: the post-recovery memory image must match the
        # golden interpreter exactly (the differential acceptance gate).
        result = simulate_spec(edge("conv", ncores, schedule, verify=True))

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
        # Whole-run totals: the survivor is composed at the failure, so
        # its span carries the recovery gap and the run ends one such
        # span after the kill.
        segments = payload["segments"]
        assert result.cycles == kill_at + segments[-1]["cycles"]
        assert result.insts_committed == sum(s["insts_committed"]
                                             for s in segments)

    def test_failure_costs_cycles(self):
        ncores = 4
        baseline = simulate_spec(edge("dither", ncores))
        schedule = _kill(1, baseline.cycles // 2)
        result = simulate_spec(edge("dither", ncores, schedule))
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
        result = simulate_spec(edge("conv", ncores, schedule, verify=True))
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
            simulate_spec(edge("dither", 2, schedule))


class TestLinkDegradation:
    def test_slow_link_costs_cycles(self):
        baseline = simulate_spec(edge("conv", 4))
        schedule = FaultSchedule((
            FaultEvent("link_slow", link=(0, 1), extra=3),
            FaultEvent("link_slow", link=(1, 0), extra=3),
        ))
        result = simulate_spec(edge("conv", 4, schedule, verify=True))
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
        kill_at = simulate_spec(edge("dither", 4)).cycles // 2
        simulate_spec(edge("dither", 4,
                           _kill(0, kill_at)))

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
        kill_at = simulate_spec(edge("dither", 4)).cycles // 2
        simulate_spec(edge("dither", 4,
                           _kill(0, kill_at)))
        assert "recovery" in obs.profiler.snapshot()
