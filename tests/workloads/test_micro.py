"""Microbenchmark tests: correctness on both golden models and the
expected scaling behaviours on the simulator."""

import pytest

from repro.isa import Interpreter
from repro.risc import RiscInterpreter
from repro.compiler import compile_edge, compile_risc
from repro.tflex import run_program
from repro.workloads import verify_edge_run
from tests.compiler.microbenchmarks import MICROBENCHMARKS


@pytest.mark.parametrize("name", sorted(MICROBENCHMARKS))
def test_golden_models_agree(name):
    kernel, expected = MICROBENCHMARKS[name]()
    edge = compile_edge(kernel)
    interp = Interpreter(edge)
    result = interp.run(max_blocks=500_000)
    assert result.halted and not result.truncated
    verify_edge_run(kernel, interp.mem, expected)

    kernel2, expected2 = MICROBENCHMARKS[name]()
    risc = compile_risc(kernel2)
    risc_interp = RiscInterpreter(risc)
    risc_interp.run()
    verify_edge_run(kernel2, risc_interp.mem, expected2)


@pytest.mark.parametrize("name", sorted(MICROBENCHMARKS))
def test_simulator_correct(name):
    kernel, expected = MICROBENCHMARKS[name]()
    program = compile_edge(kernel)
    proc = run_program(program, num_cores=8, max_cycles=5_000_000)
    verify_edge_run(kernel, proc.memory, expected)


def _cycles(name, ncores):
    kernel, __ = MICROBENCHMARKS[name]()
    program = compile_edge(kernel)
    return run_program(program, num_cores=ncores,
                       max_cycles=5_000_000).stats.cycles


class TestScalingCharacter:
    def test_fanout_tree_scales(self):
        """Wide independent dataflow gains from composition."""
        assert _cycles("fanout_tree", 8) < _cycles("fanout_tree", 1) * 0.7

    def test_alu_chain_does_not_scale(self):
        """A serial chain cannot use added cores (the control case)."""
        one = _cycles("alu_chain", 1)
        eight = _cycles("alu_chain", 8)
        assert eight > one * 0.5   # no miracle speedup

    def test_pointer_chase_memory_bound(self):
        """Serial loads: composition cannot shorten the chain much."""
        one = _cycles("pointer_chase", 1)
        eight = _cycles("pointer_chase", 8)
        assert eight > one * 0.4

    def test_branch_random_hurts_prediction(self):
        kernel, __ = MICROBENCHMARKS["branch_random"]()
        program = compile_edge(kernel)
        proc = run_program(program, num_cores=8, max_cycles=5_000_000)
        # Predicated inner branches are if-converted, but the exit path
        # still commits every block; prediction stays decent while IPC
        # is modest.
        assert proc.stats.blocks_committed > 100
