"""A chip's lifecycle: a completed run leaves no pending event, a halted
processor keeps its cores until ``decompose``, ``decompose`` drops it,
and a simulated system is freed by reference counting once its owner
drops it — the cyclic collector never decides when a chip's memory
comes back."""

import gc

import pytest

import repro.obs
from repro.exec import JobSpec
from repro.harness import clear_cache, configure_cache
from repro.harness.simulate import cached_program, simulate_spec
from repro.resil import FaultSchedule
from repro.resil.faults import FaultEvent
from repro.sample.trace import configure_ff_trace, reset_ff_trace
from repro.tflex import TFLEX, TFlexSystem, rectangle
from repro.workloads import BENCHMARKS

from tests.sample_programs import ALL_SAMPLES, ArchState

SAMPLING = {"ff_blocks": 200, "window_blocks": 12, "warmup_blocks": 4}

#: Every production path that builds a system: full detail on the
#: smallest and largest TFlex compositions and on TRIPS, a boot-dead
#: core, a mid-run kill, and a sampled program's record then its
#: replay on another composition (windows are discarded systems).
PATHS = {
    "tflex-1": [JobSpec.edge("conv", ncores=1)],
    "tflex-32": [JobSpec.edge("conv", ncores=32)],
    "trips": [JobSpec.edge("conv", trips=True)],
    "core-dead": [JobSpec.edge(
        "conv", ncores=4, faults=FaultSchedule.boot_dead(1, 4, 0).spec_items())],
    "core-kill": [JobSpec.edge(
        "conv", ncores=4, faults=FaultSchedule((
            FaultEvent("core_kill", core=1, cycle=200),)).spec_items())],
    "sampled-record-replay": [
        JobSpec.edge("gzip", ncores=4, scale=8, sampling=SAMPLING),
        JobSpec.edge("gzip", ncores=8, scale=8, sampling=SAMPLING)],
}


@pytest.fixture
def _no_collector(tmp_path):
    """Programs built, traces on a fresh root, the collector off and
    saving what it finds; everything restored afterwards."""
    clear_cache()
    configure_cache(enabled=False)
    reset_ff_trace()
    configure_ff_trace(enabled=True, cache_dir=tmp_path / "traces")
    repro.obs.reset()
    for bench, scale in (("conv", 1), ("gzip", 8)):
        cached_program("edge", bench, scale)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()
        reset_ff_trace()
        clear_cache()


@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_simulated_system_leaves_no_cycle(path, _no_collector):
    """``gc.collect()`` finds nothing after each spec: its chips (every
    window's, on the sampled path) were freed by reference counting."""
    for spec in PATHS[path]:
        result = simulate_spec(spec)
        if spec.faults and "kill" in path:
            assert result.resil["recoveries"], "the kill never fired"
        if spec.sampling:
            assert result.sampling["windows"] > 1
        del result
        found = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})[:12]
        assert found == 0, f"{spec.label()}: {found} cyclic objects {kinds}"


class TestBackToBackRuns:
    def test_second_run_runs_no_event_of_the_first(self):
        """Whatever the first run's processor left queued when it
        halted (a commit limit stops it with blocks in flight, as a
        sampled window does) is dropped: the second run executes only
        events scheduled after it began (before, a stale event could
        still reserve mesh links in the next run)."""
        system = TFlexSystem(TFLEX)
        queue = system.queue
        runs = []
        schedule = queue.at
        current = [1]

        def tagged(cycle, fn):
            tag = current[0]
            schedule(cycle, lambda: (runs.append(tag), fn()))

        queue.at = tagged
        prog_a, __, __kernel = BENCHMARKS["conv"].edge_program()
        proc_a = system.compose(rectangle(TFLEX, 8, (0, 0)), prog_a)
        proc_a.commit_limit = 20
        system.run()
        assert proc_a.halted and proc_a.stats.blocks_committed == 20
        assert not any(queue._buckets.values())
        system.decompose(proc_a)

        current[0] = 2
        del runs[:]
        prog_b, check_b = ALL_SAMPLES["predicated_classify"]()
        proc_b = system.compose(rectangle(TFLEX, 8, (0, 0)), prog_b)
        system.run()
        check_b(ArchState(regs=proc_b.regs, mem=proc_b.memory))
        assert runs and set(runs) == {2}
        assert not any(queue._buckets.values())

    def test_ctx_tags_stay_distinct_across_decompose(self):
        system = TFlexSystem(TFLEX)
        seen = []
        for __ in range(3):
            prog, __check = ALL_SAMPLES["counted_loop"]()
            proc = system.compose(rectangle(TFLEX, 4, (0, 0)), prog)
            system.run()
            seen.append((proc.ctx, proc.name))
            system.decompose(proc)
        assert len({ctx for ctx, __ in seen}) == 3
        assert len({name for __, name in seen}) == 3

    def test_halted_processor_keeps_its_cores_until_decompose(self):
        system = TFlexSystem(TFLEX)
        prog, __ = ALL_SAMPLES["counted_loop"]()
        proc = system.compose(rectangle(TFLEX, 4, (0, 0)), prog)
        system.run()
        assert proc.halted and system.procs == [proc]
        assert all(system.cores[c].procs == [proc] for c in proc.core_ids)
        system.decompose(proc)
        assert system.procs == []
        assert all(not system.cores[c].procs for c in proc.core_ids)
