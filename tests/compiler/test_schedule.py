"""Tests for the instruction placement scheduler."""

import pytest

from repro.compiler.schedule import cross_core_edges, place_block, place_program
from repro.isa import BlockBuilder, Interpreter, Program
from repro.tflex import run_program
from repro.workloads import BENCHMARKS, verify_edge_run

from tests.sample_programs import ALL_SAMPLES, ArchState


class TestPlaceBlock:
    def _chain_block(self, length=12):
        b = BlockBuilder("t")
        value = b.movi(0)
        for __ in range(length):
            value = b.op("ADDI", value, imm=1)
        b.write(10, value)
        b.branch("HALT", exit_id=0)
        return b.build()

    def test_identity_for_one_core(self):
        block = self._chain_block()
        assert place_block(block, 1) is block

    def test_chain_packs_onto_few_cores(self):
        """A serial chain should stay local: far fewer cross-core edges
        than the default sequential numbering."""
        block = self._chain_block(12)
        before = cross_core_edges(block, 4)
        placed = place_block(block, 4)
        after = cross_core_edges(placed, 4)
        # Sequential numbering hops on (nearly) every edge; placement
        # hops only where the chain spills to the next core's slots.
        assert after <= before // 2
        assert after <= 7

    def test_placement_preserves_structure(self):
        block = self._chain_block(12)
        placed = place_block(block, 4)
        placed.validate()
        assert placed.size == block.size
        assert [w.reg for w in placed.writes] == [w.reg for w in block.writes]
        assert sorted(i.op.name for i in placed.insts) == \
            sorted(i.op.name for i in block.insts)
        # LSQ ids and exits are untouched.
        assert placed.store_ids == block.store_ids
        exits = [(b.exit_id, b.branch_target) for b in block.branches]
        assert [(b.exit_id, b.branch_target)
                for b in placed.branches] == exits

    def test_slots_balanced(self):
        """No core may receive more than ceil(size/N) instructions."""
        program, __, __k = BENCHMARKS["conv"].edge_program()
        for label in program.order:
            block = program.blocks[label]
            placed = place_block(block, 8)
            per_core = [0] * 8
            for inst in placed.insts:
                per_core[inst.iid % 8] += 1
            assert max(per_core) <= -(-block.size // 8)


class TestSemanticsPreserved:
    @pytest.mark.parametrize("name", sorted(ALL_SAMPLES))
    def test_samples_unchanged(self, name):
        program, check = ALL_SAMPLES[name]()
        placed = place_program(program, 8)
        interp = Interpreter(placed)
        interp.run()
        check(ArchState(regs=interp.regs, mem=interp.mem))

    @pytest.mark.parametrize("name", ["conv", "mcf", "8b10b"])
    def test_workloads_unchanged_on_simulator(self, name):
        program, expected, kernel = BENCHMARKS[name].edge_program()
        placed = place_program(program, 8)
        proc = run_program(placed, num_cores=8, max_cycles=3_000_000)
        verify_edge_run(kernel, proc.memory, expected)


class TestPlacementHelps:
    def test_reduces_cross_core_traffic_on_suite(self):
        """Across the suite, placement must cut cross-core dataflow
        edges substantially versus sequential numbering."""
        total_before = total_after = 0
        for name in ("conv", "ct", "bezier", "mcf", "mgrid"):
            program, __, __k = BENCHMARKS[name].edge_program()
            for label in program.order:
                block = program.blocks[label]
                total_before += cross_core_edges(block, 8)
                total_after += cross_core_edges(place_block(block, 8), 8)
        assert total_after < total_before * 0.8, (total_before, total_after)

    def test_schedule_for_32_runs_well_on_fewer(self):
        """Paper section 5: programs are scheduled assuming a 32-core
        processor; running on fewer cores loses little performance."""
        for name in ("conv", "genalg"):
            program, __, __k = BENCHMARKS[name].edge_program()
            base = run_program(program, num_cores=8).stats.cycles
            program2, expected, kernel = BENCHMARKS[name].edge_program()
            placed32 = place_program(program2, 32)
            proc = run_program(placed32, num_cores=8, max_cycles=3_000_000)
            verify_edge_run(kernel, proc.memory, expected)
            assert proc.stats.cycles < base * 1.15, name

    def test_opn_traffic_drops(self):
        """Fewer cross-core edges must show up as fewer operand hops."""
        program, expected, kernel = BENCHMARKS["conv"].edge_program()
        base = run_program(program, num_cores=8)
        program2, __, __k = BENCHMARKS["conv"].edge_program()
        placed_prog = place_program(program2, 8)
        placed = run_program(placed_prog, num_cores=8)
        verify_edge_run(kernel, placed.memory, expected)
        assert placed.stats.energy_events["opn_hop"] < \
            base.stats.energy_events["opn_hop"]
