"""Fault-injected benchmark runs: the ``repro.resil`` entry point.

:class:`ResilientRun` wraps one edge-benchmark job with a
:class:`~repro.resil.faults.FaultSchedule` and produces the same
:class:`~repro.harness.runner.RunResult` shape as the full-detail
simulator — with an **empty** schedule the result is field-for-field
identical to :func:`repro.harness.simulate._simulate_edge`, which is what
keeps the golden fixtures honest.

With faults, the run may span several processor *segments* (one per
recomposition).  Segment stats are merged into one :class:`ProcStats`
whose ``cycles`` is the whole-run wall clock, so IPC reflects the real
cost of the failures (lost in-flight work + recovery latency), and the
result carries a ``resil`` payload: the schedule, injected events,
per-recovery reports, and per-segment records.
"""

from __future__ import annotations

from typing import Optional

from repro.exec import JobSpec
from repro.harness.runner import RunResult
from repro.harness.simulate import build_edge_config, cached_program
from repro.power import EnergyModel
from repro.resil.faults import FaultSchedule
from repro.resil.injector import FaultInjector
from repro.resil.recompose import CompositionLost, RecompositionEngine, \
    choose_composition
from repro.tflex import MAX_CYCLES, TFlexSystem
from repro.tflex.stats import ProcStats
from repro.workloads import verify_edge_run


class ResilientRun:
    """One edge-benchmark run under a fault schedule."""

    def __init__(self, spec: JobSpec,
                 schedule: Optional[FaultSchedule] = None) -> None:
        if spec.kind != "edge":
            raise ValueError(
                f"fault injection only supports edge jobs, not {spec.kind!r}")
        if spec.trips:
            raise ValueError("fault injection targets the composable "
                             "TFlex array, not the monolithic TRIPS "
                             "baseline")
        if spec.sampling:
            raise ValueError("fault injection and sampled simulation "
                             "cannot combine: a recomposition inside a "
                             "fast-forward region is undefined")
        self.spec = spec
        self.schedule = (schedule if schedule is not None
                         else FaultSchedule.from_spec_items(spec.faults))
        self.cfg, self.ncores = build_edge_config(spec)
        self.schedule.validate(self.cfg, max_cycles=MAX_CYCLES)

    def run(self) -> RunResult:
        spec = self.spec
        program, expected, kernel = cached_program("edge", spec.bench,
                                                   spec.scale)

        system = TFlexSystem(self.cfg)
        engine = RecompositionEngine(system)
        injector = FaultInjector(system, self.schedule, engine=engine)
        injector.apply_boot_faults()

        # Initial composition: with no boot faults this is exactly the
        # ``rectangle(cfg, ncores)`` the fault-free path composes; with
        # dead cores it is the largest placeable survivor rectangle.
        faulty = {c.id for c in system.cores if c.faulty}
        cores = choose_composition(self.cfg, self.ncores, faulty)
        if cores is None:
            raise CompositionLost(
                f"boot faults leave no region for even a 1-core "
                f"composition (dead cores: {sorted(faulty)})")
        proc = system.compose(cores, program, name=spec.bench)
        engine.register(proc)
        injector.arm()

        system.run(max_cycles=MAX_CYCLES)
        engine.finalize()

        final = engine.current(proc.ctx)
        if spec.verify:
            # The differential check: the post-recovery memory image
            # must match the golden interpreter exactly.
            verify_edge_run(kernel, final.memory, expected)

        segments = engine.segments + [final]
        if len(segments) == 1:
            stats = final.stats
            cycles = stats.cycles
        else:
            stats = ProcStats.merged(s.stats for s in segments)
            # Whole-run wall clock, not the sum of segment spans — the
            # recovery gaps are dead time the merged IPC must pay for.
            stats.cycles = system.queue.now
            cycles = stats.cycles

        # Report the composition the run *ended* on — after a mid-run
        # kill that is the recomposed survivor set, which is what the
        # degradation curves plot.  Fault-free, it equals the request.
        granted = len(final.core_ids)
        dram_requests = system.dram.stats.requests
        power = EnergyModel().breakdown(
            stats.energy_events, cycles, granted,
            dram_requests=dram_requests)

        result = RunResult(
            bench=spec.bench, label=spec.label(), num_cores=granted,
            cycles=cycles, insts_committed=stats.insts_committed,
            stats=stats, power=power, dram_requests=dram_requests)
        if self.schedule:
            result.resil = self._payload(injector, engine, segments)
        return result

    def _payload(self, injector: FaultInjector,
                 engine: RecompositionEngine, segments: list) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "requested_cores": self.ncores,
            "boot_faulty": self.schedule.boot_dead_cores(),
            "injected": [e.to_dict() for e in injector.injected],
            "recoveries": [r.to_dict() for r in engine.reports],
            "segments": [
                {"cores": list(s.core_ids),
                 "cycles": s.stats.cycles,
                 "insts_committed": s.stats.insts_committed,
                 "blocks_committed": s.stats.blocks_committed,
                 "ipc": s.stats.ipc}
                for s in segments
            ],
        }


def run_resilient(spec: JobSpec,
                  schedule: Optional[FaultSchedule] = None) -> RunResult:
    """Run one fault-injected job (the ``spec.faults`` routing target
    in :mod:`repro.harness.runner`)."""
    return ResilientRun(spec, schedule).run()
