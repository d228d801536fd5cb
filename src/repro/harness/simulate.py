"""The worker side: one job spec in, one simulated result out.

This is the one module that imports the simulator — the TFlex model,
the RISC core, both compilers behind :mod:`repro.workloads.suite`, the
sampling engine, fault injection.  It loads on the first cold spec
(:func:`repro.exec.worker.load_worker_side`: the in-process slot's
first job, or a pool's parent just before its first fork), never to
print ``--help`` or replay a warm store; everything else in
:mod:`repro.harness` stays importable without it (docs/EXECUTION.md,
"Import layering").

Sampled edge specs go to :func:`repro.sample.engine.run_sampled`.
Every other edge spec runs one body, :func:`_simulate_edge`, under the
spec's :class:`~repro.resil.FaultSchedule`.  A fault-free spec is the
empty schedule, which marks, degrades and schedules nothing, so the
golden fixtures check that fault injection costs a fault-free run
nothing.
"""

from __future__ import annotations

from dataclasses import replace

from repro.exec.spec import JobSpec
from repro.harness.runner import RiscResult, RunResult
from repro.power import EnergyModel, EnergyParams
from repro.resil import (FaultInjector, FaultSchedule, RecompositionEngine,
                         choose_composition)
from repro.risc import OoOCore
from repro.sample.engine import run_sampled
from repro.tflex.config import MAX_CYCLES, tflex_config, trips_config
from repro.tflex.stats import ProcStats
from repro.tflex.system import TFlexSystem
from repro.workloads.suite import BENCHMARKS, verify_edge_run

_SIM_COUNT = 0                          # simulations run in this process

#: (kind, bench, scale) -> built (program, expected, kernel).  Programs
#: are read-only during simulation (the simulator copies the data image
#: into its own memory and decodes blocks into per-composition caches),
#: so one build serves every configuration of a benchmark — this is the
#: cache that keeps warm pool workers fast across jobs.
_PROGRAMS: dict[tuple, tuple] = {}
_PROGRAM_CAP = 32                       # builds are cheap; bound the rss


def cached_program(kind: str, bench: str, scale: int) -> tuple:
    """The built ``(program, expected, kernel)`` for one benchmark,
    memoized per process — in a warm pool worker this is what keeps
    decoded workload programs hot across jobs."""
    key = (kind, bench, scale)
    entry = _PROGRAMS.get(key)
    if entry is None:
        benchmark = BENCHMARKS[bench]
        entry = (benchmark.edge_program(scale) if kind == "edge"
                 else benchmark.risc_program(scale))
        while len(_PROGRAMS) >= _PROGRAM_CAP:
            _PROGRAMS.pop(next(iter(_PROGRAMS)))
        _PROGRAMS[key] = entry
    return entry


def simulation_count() -> int:
    """Simulations actually executed in this process (cache misses)."""
    return _SIM_COUNT


# ----------------------------------------------------------------------
# Simulation (the cache-miss path; also the repro.exec worker body)
# ----------------------------------------------------------------------

def simulate_spec(spec: JobSpec):
    """Run one job spec on the simulator, bypassing every cache."""
    global _SIM_COUNT
    _SIM_COUNT += 1
    if spec.kind == "risc":
        return _simulate_risc(spec)
    if spec.kind == "edge":
        return _simulate_edge(spec)
    raise ValueError(f"unknown job kind: {spec.kind!r}")


def build_edge_config(spec: JobSpec):
    """Resolve a spec into ``(SystemConfig, ncores)`` — shared by the
    full-detail path below and the sampled engine (:mod:`repro.sample`)."""
    if spec.trips:
        cfg = trips_config()
        ncores = cfg.num_cores
    else:
        cfg = tflex_config(spec.ncores)
        ncores = spec.ncores
    if spec.ideal_handshake:
        cfg = replace(cfg, ideal_handshake=True)
    if spec.core_overrides:
        cfg = replace(cfg, core=replace(cfg.core,
                                        **spec.core_overrides_dict()))
    if spec.overrides:
        cfg = replace(cfg, **spec.overrides_dict())
    return cfg, ncores


def _simulate_edge(spec: JobSpec) -> RunResult:
    if spec.sampling:
        return run_sampled(spec)

    cfg, ncores = build_edge_config(spec)
    schedule = FaultSchedule.from_spec_items(spec.faults)
    schedule.validate(cfg, max_cycles=MAX_CYCLES)
    program, expected, kernel = cached_program("edge", spec.bench,
                                               spec.scale)

    system = TFlexSystem(cfg)
    engine = RecompositionEngine(system)
    injector = FaultInjector(system, schedule, engine)
    injector.apply_boot_faults()
    # The largest rectangle that avoids the boot-dead cores: with none,
    # ``rectangle(cfg, ncores)``; ``validate`` leaves one survivor.
    dead = {core.id for core in system.cores if core.faulty}
    proc = system.compose(choose_composition(cfg, ncores, dead), program,
                          name=spec.bench)
    engine.register(proc)
    injector.arm()
    system.run()
    engine.finalize()

    final = engine.current(proc.ctx)
    if spec.verify:
        verify_edge_run(kernel, final.memory, expected)
    segments = engine.segments + [final]
    stats = final.stats
    if engine.segments:
        stats = ProcStats.merged(s.stats for s in segments)
        # Whole-run wall clock: recovery gaps are dead time the merged
        # IPC must pay for.
        stats.cycles = system.queue.now
    # The composition the run ended on: after a mid-run kill, the
    # recomposed survivors, which is what the degradation curves plot.
    granted = len(final.core_ids)
    dram_requests = system.dram.stats.requests
    params = EnergyParams.trips() if spec.trips else None
    power = EnergyModel(params).breakdown(
        stats.energy_events, stats.cycles, granted,
        dram_requests=dram_requests)

    result = RunResult(
        bench=spec.bench, label=spec.label(), num_cores=granted,
        cycles=stats.cycles, insts_committed=stats.insts_committed,
        stats=stats, power=power, dram_requests=dram_requests)
    if schedule:
        result.resil = {
            "schedule": schedule.to_dict(),
            "requested_cores": ncores,
            "boot_faulty": schedule.boot_dead_cores(),
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
    # The result holds only stats; with the last processor decomposed
    # the chip holds no cycle and is freed on return.
    system.decompose(final)
    return result


def _simulate_risc(spec: JobSpec) -> RiscResult:
    program, expected, kernel = cached_program("risc", spec.bench,
                                               spec.scale)
    stats, interp = OoOCore().run(program)
    if spec.verify:
        verify_edge_run(kernel, interp.mem, expected)
    return RiscResult(bench=spec.bench, cycles=stats.cycles,
                      insts=stats.insts,
                      mispredictions=stats.mispredictions)
