"""System-level tests: chip wiring, shared resources, stats plumbing."""

import pytest

from repro.tflex import (
    TFLEX,
    SimulationDeadlock,
    TFlexSystem,
    rectangle,
    run_program,
    tflex_config,
)
from repro.workloads import BENCHMARKS

from tests.sample_programs import ALL_SAMPLES, ArchState


class TestWiring:
    def test_chip_inventory(self):
        system = TFlexSystem(TFLEX)
        assert len(system.cores) == 32
        assert len(system.l2.banks) == 32
        assert system.topology.num_nodes == 32
        assert system.opn.channels == 2
        assert system.control.channels == 2

    def test_l1_lookup_reaches_core_dcache(self):
        system = TFlexSystem(TFLEX)
        assert system.l2.l1_banks(5) is system.cores[5].dcache

    def test_cores_start_free(self):
        system = TFlexSystem(TFLEX)
        assert all(not c.procs for c in system.cores)


class TestSharedResources:
    def test_network_stats_accumulate(self):
        program, __, __k = BENCHMARKS["conv"].edge_program()
        system = TFlexSystem(tflex_config(8))
        system.compose(rectangle(tflex_config(8), 8), program)
        system.run()
        assert system.opn.stats.messages > 0
        assert system.opn.stats.hops >= system.opn.stats.messages
        assert system.opn.stats.total_latency >= system.opn.stats.messages
        assert system.control.stats.messages > 0

    def test_dram_shared_between_processors(self):
        system = TFlexSystem(TFLEX)
        pa, __, __k = BENCHMARKS["conv"].edge_program()
        pb, __b, __k2 = BENCHMARKS["mgrid"].edge_program()
        system.compose(rectangle(TFLEX, 8, (0, 0)), pa)
        system.compose(rectangle(TFLEX, 8, (0, 2)), pb)
        system.run()
        assert system.dram.stats.requests > 0

    def test_energy_events_populated(self):
        program, __, __k = BENCHMARKS["dither"].edge_program()
        proc = run_program(program, num_cores=4)
        events = proc.stats.energy_events
        for key in ("alu_op", "icache_access", "dcache_read", "lsq_search",
                    "regfile_read", "regfile_write", "predictor_access",
                    "opn_hop", "window_write"):
            assert events[key] > 0, key

    def test_avg_inflight_bounded(self):
        program, __, __k = BENCHMARKS["conv"].edge_program()
        for ncores in (1, 8):
            proc = run_program(program, num_cores=ncores)
            assert 0 < proc.stats.avg_inflight_blocks <= proc.max_inflight


class TestErrorsAndEdges:
    def test_empty_composition_rejected(self):
        system = TFlexSystem(TFLEX)
        program, __ = ALL_SAMPLES["counted_loop"]()
        with pytest.raises(ValueError):
            system.compose([], program)

    def test_duplicate_cores_rejected(self):
        system = TFlexSystem(TFLEX)
        program, __ = ALL_SAMPLES["counted_loop"]()
        with pytest.raises(ValueError):
            system.compose([0, 0, 1], program)

    def test_run_program_validates_core_count(self):
        program, __ = ALL_SAMPLES["counted_loop"]()
        with pytest.raises(ValueError):
            run_program(program, num_cores=3)

    def test_noncontiguous_composition_allowed(self):
        """Any core set composes; rectangles are a placement policy,
        not an architectural requirement."""
        system = TFlexSystem(TFLEX)
        program, check = ALL_SAMPLES["vector_sum"]()
        proc = system.compose([0, 3, 12, 31], program)
        system.run()
        check(ArchState(regs=proc.regs, mem=proc.memory))

    def test_queue_drain_without_halt_is_deadlock(self):
        """A processor that never even starts (no events) is reported."""
        system = TFlexSystem(TFLEX)
        program, __ = ALL_SAMPLES["counted_loop"]()
        proc = system.compose(rectangle(TFLEX, 2, (0, 0)), program)
        proc.halted = False
        proc.next_gseq = 1   # pretend it started; no events scheduled
        proc.started = True
        with pytest.raises(SimulationDeadlock):
            system.run()
