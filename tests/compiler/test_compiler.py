"""Compiler tests: both backends must agree with Python reference
results (and with each other) on every test kernel."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import (
    Array, Assign, Bin, Cmp, CompileError, Const, For, Function, If,
    KernelProgram, Load, Return, Store, Var, compile_edge, compile_risc,
)
from repro.isa import Interpreter
from repro.isa.block import BLOCK_MAX_INSTS
from repro.risc import RiscInterpreter

from tests.compiler.kernels_for_tests import ALL_KERNELS, read_array


def run_edge(kernel):
    program = compile_edge(kernel)
    interp = Interpreter(program)
    interp.run()
    return program, interp


def run_risc(kernel):
    program = compile_risc(kernel)
    interp = RiscInterpreter(program)
    interp.run()
    return program, interp


def check_arrays(kernel, memory, expected):
    for array_name, values in expected.items():
        got = read_array(kernel, lambda a, s, fp: memory.load(a, s, fp=fp),
                         array_name)[:len(values)]
        for i, (g, e) in enumerate(zip(got, values)):
            if isinstance(e, float):
                assert g == pytest.approx(e, rel=1e-12), (array_name, i)
            else:
                assert g == e, (array_name, i, got, values)


class TestEdgeBackend:
    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_matches_reference(self, name):
        kernel, expected = ALL_KERNELS[name]()
        __, interp = run_edge(kernel)
        check_arrays(kernel, interp.mem, expected)

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_block_limits_respected(self, name):
        kernel, __ = ALL_KERNELS[name]()
        program = compile_edge(kernel)
        for block in program.blocks.values():
            assert block.size <= BLOCK_MAX_INSTS
            assert len(block.reads) <= 32
            assert len(block.writes) <= 32

    def test_splitting_produces_chain(self):
        kernel, expected = ALL_KERNELS["big_straightline"]()
        program, interp = run_edge(kernel)
        assert len(program.order) >= 2       # must have split
        check_arrays(kernel, interp.mem, expected)

    def test_high_fanout_value_respects_block_limit(self):
        # Regression: a CSE-shared value feeding ~100 one-instruction
        # statements used to pack the block up to the soft limit
        # *before* MOV-tree legalization, and the appended fan-out MOVs
        # then pushed it past BLOCK_MAX_INSTS (hypothesis found this).
        # Splitting must budget for the projected legalized size.
        uses = 120
        kernel = KernelProgram(
            name="fanout",
            arrays=[Array("inp", "int", 1, init=[7]),
                    Array("out", "int", 1)],
            functions=[Function("main", body=[
                Assign("x", Load("inp", Const(0))),
                Assign("acc", Const(0)),
                *[Assign("acc", Bin("+", Var("acc"), Var("x")))
                  for __ in range(uses)],
                Store("out", Const(0), Var("acc")),
                Return(Const(0)),
            ])])
        program, interp = run_edge(kernel)
        for block in program.blocks.values():
            assert block.size <= BLOCK_MAX_INSTS
        check_arrays(kernel, interp.mem, {"out": [uses * 7]})

    def test_unrolling_grows_blocks(self):
        k1, __ = ALL_KERNELS["saxpy"]()
        for fn in k1.functions:
            fn.body[0].unroll = 1
        small = max(b.size for b in compile_edge(k1).blocks.values())
        k4, __ = ALL_KERNELS["saxpy"]()
        big = max(b.size for b in compile_edge(k4).blocks.values())
        assert big > small

    def test_unroll_ignored_for_nondivisible_trip(self):
        kernel, expected = ALL_KERNELS["saxpy"](n=23, unroll=4)  # 23 % 4 != 0
        __, interp = run_edge(kernel)
        check_arrays(kernel, interp.mem, expected)

    def test_zero_trip_loop(self):
        kernel = KernelProgram(
            name="zerotrip",
            arrays=[Array("out", "int", 1)],
            functions=[Function("main", body=[
                Assign("acc", Const(7)),
                For("i", Const(5), Const(5), body=[
                    Assign("acc", Const(999)),
                ]),
                Store("out", Const(0), Var("acc")),
            ])])
        __, interp = run_edge(kernel)
        check_arrays(kernel, interp.mem, {"out": [7]})

    def test_dynamic_bound_loop(self):
        kernel = KernelProgram(
            name="dyn",
            arrays=[Array("out", "int", 1)],
            functions=[Function("main", body=[
                Assign("n", Const(6)),
                Assign("acc", Const(0)),
                For("i", Const(0), Var("n"), body=[
                    Assign("acc", Bin("+", Var("acc"), Var("i"))),
                ]),
                Store("out", Const(0), Var("acc")),
            ])])
        __, interp = run_edge(kernel)
        check_arrays(kernel, interp.mem, {"out": [15]})


class TestRiscBackend:
    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_matches_reference(self, name):
        kernel, expected = ALL_KERNELS[name]()
        __, interp = run_risc(kernel)
        check_arrays(kernel, interp.mem, expected)

    def test_disassembly_smoke(self):
        kernel, __ = ALL_KERNELS["call_chain"]()
        program = compile_risc(kernel)
        assert "main" in program.labels
        ops = {inst.op for inst in program.insts}
        assert {"JAL", "HALT"} <= ops


class TestBackendsAgree:
    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_all_arrays_identical(self, name):
        kernel, __ = ALL_KERNELS[name]()
        __, edge_interp = run_edge(kernel)
        kernel2, __ = ALL_KERNELS[name]()
        __, risc_interp = run_risc(kernel2)
        for arr in kernel.arrays:
            e = read_array(kernel, lambda a, s, fp: edge_interp.mem.load(a, s, fp=fp), arr.name)
            r = read_array(kernel2, lambda a, s, fp: risc_interp.mem.load(a, s, fp=fp), arr.name)
            assert e == r, arr.name


class TestErrors:
    def test_uninitialized_variable(self):
        kernel = KernelProgram(
            name="bad", arrays=[Array("out", "int", 1)],
            functions=[Function("main", body=[
                Store("out", Const(0), Var("nope")),
            ])])
        with pytest.raises(CompileError):
            compile_edge(kernel)

    def test_type_mismatch(self):
        kernel = KernelProgram(
            name="bad", arrays=[Array("out", "int", 1)],
            functions=[Function("main", body=[
                Assign("x", Bin("+", Const(1), Const(1.5))),
                Store("out", Const(0), Var("x")),
            ])])
        with pytest.raises(CompileError):
            compile_edge(kernel)

    def test_conditional_assign_before_init(self):
        kernel = KernelProgram(
            name="bad", arrays=[Array("out", "int", 1)],
            functions=[Function("main", body=[
                If(Cmp(">", Const(1), Const(0)), then=[
                    Assign("x", Const(5)),
                ]),
                Store("out", Const(0), Var("x")),
            ])])
        with pytest.raises(CompileError):
            compile_edge(kernel)

    def test_loop_inside_conditional_rejected(self):
        kernel = KernelProgram(
            name="bad", arrays=[Array("out", "int", 1)],
            functions=[Function("main", body=[
                Assign("x", Const(0)),
                If(Cmp(">", Const(1), Const(0)), then=[
                    For("i", Const(0), Const(4), body=[
                        Assign("x", Bin("+", Var("x"), Const(1)))]),
                ]),
                Store("out", Const(0), Var("x")),
            ])])
        with pytest.raises(CompileError):
            compile_edge(kernel)

    def test_no_main_rejected(self):
        kernel = KernelProgram(name="bad", functions=[Function("f")])
        with pytest.raises(CompileError):
            compile_edge(kernel)

    def test_unknown_call_rejected(self):
        kernel = KernelProgram(
            name="bad", arrays=[],
            functions=[Function("main", body=[
                __import__("repro.compiler", fromlist=["Call"]).Call("ghost", []),
            ])])
        with pytest.raises(CompileError):
            compile_edge(kernel)

    def test_store_type_mismatch(self):
        kernel = KernelProgram(
            name="bad", arrays=[Array("out", "float", 1)],
            functions=[Function("main", body=[
                Store("out", Const(0), Const(1)),
            ])])
        with pytest.raises(CompileError):
            compile_edge(kernel)


# ----------------------------------------------------------------------
# Property-based differential testing: random straight-line kernels with
# conditionals must produce identical results on both backends.
# ----------------------------------------------------------------------

@st.composite
def random_kernel(draw):
    n = 8
    data = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    num_vars = draw(st.integers(1, 4))
    var_names = [f"v{i}" for i in range(num_vars)]

    def expr(depth):
        choices = ["const", "var"]
        if depth > 0:
            choices += ["load", "bin", "bin", "cmp"]
        kind = draw(st.sampled_from(choices))
        if kind == "const":
            return Const(draw(st.integers(-20, 20)))
        if kind == "var":
            return Var(draw(st.sampled_from(var_names)))
        if kind == "load":
            return Load("inp", Bin("%", Un_abs(expr(depth - 1)), Const(n)))
        if kind == "bin":
            op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
            return Bin(op, expr(depth - 1), expr(depth - 1))
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        return Cmp(op, expr(depth - 1), expr(depth - 1))

    def Un_abs(e):
        from repro.compiler import Un
        return Un("abs", e)

    body = [Assign(v, Const(draw(st.integers(-5, 5)))) for v in var_names]
    num_stmts = draw(st.integers(1, 6))
    for __ in range(num_stmts):
        kind = draw(st.sampled_from(["assign", "assign", "if", "store"]))
        if kind == "assign":
            body.append(Assign(draw(st.sampled_from(var_names)), expr(2)))
        elif kind == "store":
            body.append(Store("out", Bin("%", Un_abs(expr(1)), Const(n)), expr(2)))
        else:
            then = [Assign(draw(st.sampled_from(var_names)), expr(1))]
            else_ = ([Assign(draw(st.sampled_from(var_names)), expr(1))]
                     if draw(st.booleans()) else [])
            body.append(If(Cmp(draw(st.sampled_from(["<", ">", "=="])),
                               expr(1), expr(1)), then, else_))
    for i, v in enumerate(var_names):
        body.append(Store("out", Const(i), Var(v)))
    return KernelProgram(
        name="random",
        arrays=[Array("inp", "int", n, data), Array("out", "int", n)],
        functions=[Function("main", body=body)])


@settings(max_examples=40, deadline=None)
@given(random_kernel())
def test_backends_agree_on_random_kernels(kernel):
    edge_program = compile_edge(kernel)
    edge_interp = Interpreter(edge_program)
    edge_result = edge_interp.run(max_blocks=10_000)
    assert edge_result.halted and not edge_result.truncated

    risc_program = compile_risc(kernel)
    risc_interp = RiscInterpreter(risc_program)
    risc_interp.run(max_insts=500_000)

    out_edge = read_array(kernel, lambda a, s, fp: edge_interp.mem.load(a, s, fp=fp), "out")
    out_risc = read_array(kernel, lambda a, s, fp: risc_interp.mem.load(a, s, fp=fp), "out")
    assert out_edge == out_risc
