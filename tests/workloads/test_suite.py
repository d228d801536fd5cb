"""Workload-suite tests: every benchmark's reference results must hold
on both golden models, and the registry must match the paper's suite
structure (Table 1)."""

import pytest

from repro.isa import Interpreter
from repro.isa.block import BLOCK_MAX_INSTS
from repro.risc import RiscInterpreter
from repro.tflex import run_program
from repro.workloads import BENCHMARKS, verify_edge_run
from repro.workloads.data import Lcg


class TestRegistry:
    def test_suite_composition_matches_paper(self):
        """Paper Table 1: 12 hand-optimized (3 kernels + 7 EEMBC +
        2 Versabench) and 14 SPEC (8 INT + 6 FP)."""
        assert len(BENCHMARKS) == 26
        categories = [b.category for b in BENCHMARKS.values()]
        assert categories.count("hand") == 12
        assert categories.count("spec_int") == 8
        assert categories.count("spec_fp") == 6

    def test_paper_benchmark_names_present(self):
        for name in ("conv", "ct", "genalg", "a2time", "autocor", "basefp",
                     "bezier", "dither", "rspeed", "tblook", "802.11b", "8b10b"):
            assert BENCHMARKS[name].category == "hand", name
        for name in ("bzip2", "gzip", "mcf", "parser", "twolf", "vpr",
                     "gcc", "perlbmk"):
            assert BENCHMARKS[name].category == "spec_int", name
        for name in ("mgrid", "applu", "swim", "art", "equake", "ammp"):
            assert BENCHMARKS[name].category == "spec_fp", name

    def test_ilp_classes_assigned(self):
        assert {b.ilp for b in BENCHMARKS.values()} == {"high", "low"}

    def test_deterministic_inputs(self):
        a, __ = BENCHMARKS["conv"].build()
        b, __ = BENCHMARKS["conv"].build()
        assert a.arrays[0].init == b.arrays[0].init


class TestLcg:
    def test_deterministic(self):
        assert Lcg(5).ints(10, 0, 100) == Lcg(5).ints(10, 0, 100)

    def test_bounds(self):
        values = Lcg(9).ints(500, -3, 7)
        assert all(-3 <= v <= 7 for v in values)
        floats = Lcg(9).floats(500, -1.0, 2.0)
        assert all(-1.0 <= v <= 2.0 for v in floats)

    def test_seeds_differ(self):
        assert Lcg(1).ints(10, 0, 1000) != Lcg(2).ints(10, 0, 1000)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
class TestGoldenModels:
    def test_edge_interpreter_matches_reference(self, name):
        program, expected, kernel = BENCHMARKS[name].edge_program()
        interp = Interpreter(program)
        result = interp.run(max_blocks=500_000)
        assert result.halted and not result.truncated
        verify_edge_run(kernel, interp.mem, expected)

    def test_risc_interpreter_matches_reference(self, name):
        program, expected, kernel = BENCHMARKS[name].risc_program()
        interp = RiscInterpreter(program)
        interp.run()
        verify_edge_run(kernel, interp.mem, expected)

    def test_block_limits(self, name):
        program, __, __k = BENCHMARKS[name].edge_program()
        for block in program.blocks.values():
            assert block.size <= BLOCK_MAX_INSTS


@pytest.mark.parametrize("name", ["conv", "dither", "mcf", "equake", "8b10b"])
@pytest.mark.parametrize("ncores", [1, 4, 16])
def test_tflex_simulator_matches_reference(name, ncores):
    """Spot-check the cycle simulator on a representative subset (the
    full 26x6 sweep lives in the benchmark harness)."""
    program, expected, kernel = BENCHMARKS[name].edge_program()
    proc = run_program(program, num_cores=ncores, max_cycles=3_000_000)
    verify_edge_run(kernel, proc.memory, expected)


def test_scale_parameter_grows_work():
    small, __, __k = BENCHMARKS["conv"].edge_program(scale=1)
    big, __, __k2 = BENCHMARKS["conv"].edge_program(scale=2)
    small_dyn = Interpreter(small).run().insts_fired
    big_dyn = Interpreter(big).run().insts_fired
    assert big_dyn > small_dyn * 1.5


def test_verify_unknown_array():
    program, __e, kernel = BENCHMARKS["conv"].edge_program()
    with pytest.raises(KeyError):
        verify_edge_run(kernel, Interpreter(program).mem, {"missing": [0]})
