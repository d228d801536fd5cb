"""Unit tests for opcode specs and evaluation semantics."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import (
    _ALU,
    ALU_GLOBALS,
    OPCODES,
    OpClass,
    alu_source,
    bind_evaluator,
    evaluate,
    memory_size,
    wrap64,
)
from repro.util import INT_MAX, INT_MIN


int64 = st.integers(min_value=INT_MIN, max_value=INT_MAX)


def _alu_specs():
    """Every opcode ``evaluate`` implements (probed, not listed, so a
    new ALU opcode is covered automatically)."""
    specs = []
    for spec in OPCODES.values():
        try:
            probe = tuple([1.5 if spec.is_fp else 3] * spec.operands)
            evaluate(spec, probe, imm=2 if spec.has_imm else None)
        except ValueError:
            continue
        specs.append(spec)
    return specs


ALU_SPECS = _alu_specs()


class TestWrap64:
    def test_identity_in_range(self):
        assert wrap64(42) == 42
        assert wrap64(INT_MIN) == INT_MIN
        assert wrap64(INT_MAX) == INT_MAX

    def test_overflow_wraps(self):
        assert wrap64(INT_MAX + 1) == INT_MIN
        assert wrap64(INT_MIN - 1) == INT_MAX

    @given(st.integers(min_value=-(1 << 70), max_value=1 << 70))
    def test_always_in_range(self, value):
        assert INT_MIN <= wrap64(value) <= INT_MAX

    @given(int64, int64)
    def test_add_matches_two_complement(self, a, b):
        assert wrap64(a + b) == wrap64(wrap64(a) + wrap64(b))


class TestOpcodeTable:
    def test_expected_opcodes_present(self):
        for name in ("ADD", "ADDI", "MUL", "DIV", "FADD", "FMUL", "LDD",
                     "STD", "LDF", "STF", "BRO", "CALLO", "RET", "HALT",
                     "NULL", "MOV", "MOVI", "TEQ", "TLTI"):
            assert name in OPCODES, name

    def test_operand_counts(self):
        assert OPCODES["ADD"].operands == 2
        assert OPCODES["ADDI"].operands == 1
        assert OPCODES["MOVI"].operands == 0
        assert OPCODES["LDD"].operands == 1
        assert OPCODES["STD"].operands == 2
        assert OPCODES["RET"].operands == 1
        assert OPCODES["BRO"].operands == 0

    def test_classes(self):
        assert OPCODES["ADD"].opclass is OpClass.INT
        assert OPCODES["MUL"].opclass is OpClass.IMUL
        assert OPCODES["FADD"].is_fp
        assert not OPCODES["ADD"].is_fp
        assert OPCODES["LDD"].is_memory
        assert OPCODES["STF"].is_memory
        assert not OPCODES["MOV"].is_memory

    def test_latencies_positive(self):
        for spec in OPCODES.values():
            assert spec.latency >= 1, spec.name

    def test_memory_sizes(self):
        assert memory_size(OPCODES["LDB"]) == 1
        assert memory_size(OPCODES["LDH"]) == 2
        assert memory_size(OPCODES["LDW"]) == 4
        assert memory_size(OPCODES["LDD"]) == 8
        assert memory_size(OPCODES["LDF"]) == 8
        assert memory_size(OPCODES["STD"]) == 8

    def test_memory_size_rejects_alu(self):
        with pytest.raises(ValueError):
            memory_size(OPCODES["ADD"])


class TestIntegerEvaluate:
    @pytest.mark.parametrize("name,a,b,expected", [
        ("ADD", 2, 3, 5),
        ("SUB", 2, 3, -1),
        ("MUL", -4, 6, -24),
        ("AND", 0b1100, 0b1010, 0b1000),
        ("OR", 0b1100, 0b1010, 0b1110),
        ("XOR", 0b1100, 0b1010, 0b0110),
        ("SHL", 1, 10, 1024),
        ("SRA", -8, 1, -4),
        ("DIV", 7, 2, 3),
        ("DIV", -7, 2, -3),       # truncation toward zero
        ("MOD", 7, 2, 1),
        ("MOD", -7, 2, -1),
        ("DIV", 5, 0, 0),          # defined: division by zero yields 0
        ("MOD", 5, 0, 0),
    ])
    def test_binary(self, name, a, b, expected):
        assert evaluate(OPCODES[name], (a, b)) == expected

    def test_shr_is_logical(self):
        assert evaluate(OPCODES["SHR"], (-1, 60)) == 15

    def test_shift_amount_masked(self):
        assert evaluate(OPCODES["SHL"], (1, 64)) == 1
        assert evaluate(OPCODES["SHL"], (1, 65)) == 2

    def test_immediate_forms(self):
        assert evaluate(OPCODES["ADDI"], (10,), imm=5) == 15
        assert evaluate(OPCODES["SHLI"], (3,), imm=2) == 12
        assert evaluate(OPCODES["TLTI"], (3,), imm=4) == 1

    def test_unary(self):
        assert evaluate(OPCODES["NOT"], (0,)) == -1
        assert evaluate(OPCODES["NEG"], (5,)) == -5
        assert evaluate(OPCODES["NEG"], (INT_MIN,)) == INT_MIN  # wraps

    def test_mov_movi(self):
        assert evaluate(OPCODES["MOV"], (123,)) == 123
        assert evaluate(OPCODES["MOVI"], (), imm=-9) == -9

    @given(int64, int64)
    def test_add_commutes(self, a, b):
        add = OPCODES["ADD"]
        assert evaluate(add, (a, b)) == evaluate(add, (b, a))

    @given(int64, int64)
    def test_sub_add_roundtrip(self, a, b):
        s = evaluate(OPCODES["SUB"], (a, b))
        assert evaluate(OPCODES["ADD"], (s, b)) == a

    @given(int64, st.integers(min_value=1, max_value=INT_MAX))
    def test_divmod_identity(self, a, b):
        q = evaluate(OPCODES["DIV"], (a, b))
        r = evaluate(OPCODES["MOD"], (a, b))
        assert wrap64(q * b + r) == a


class TestTestOps:
    @pytest.mark.parametrize("name,a,b,expected", [
        ("TEQ", 3, 3, 1), ("TEQ", 3, 4, 0),
        ("TNE", 3, 4, 1), ("TNE", 3, 3, 0),
        ("TLT", -1, 0, 1), ("TLT", 0, 0, 0),
        ("TLE", 0, 0, 1), ("TGT", 1, 0, 1), ("TGE", 0, 0, 1),
        ("FTLT", 1.5, 2.5, 1), ("FTEQ", 0.5, 0.5, 1), ("FTLE", 2.0, 1.0, 0),
    ])
    def test_results(self, name, a, b, expected):
        assert evaluate(OPCODES[name], (a, b)) == expected

    @given(int64, int64)
    def test_trichotomy(self, a, b):
        lt = evaluate(OPCODES["TLT"], (a, b))
        eq = evaluate(OPCODES["TEQ"], (a, b))
        gt = evaluate(OPCODES["TGT"], (a, b))
        assert lt + eq + gt == 1


class TestFloatEvaluate:
    def test_arith(self):
        assert evaluate(OPCODES["FADD"], (1.5, 2.25)) == 3.75
        assert evaluate(OPCODES["FSUB"], (1.5, 2.25)) == -0.75
        assert evaluate(OPCODES["FMUL"], (3.0, -2.0)) == -6.0
        assert evaluate(OPCODES["FDIV"], (1.0, 4.0)) == 0.25

    def test_fdiv_by_zero(self):
        assert math.isinf(evaluate(OPCODES["FDIV"], (1.0, 0.0)))

    def test_unary(self):
        assert evaluate(OPCODES["FSQRT"], (9.0,)) == 3.0
        assert math.isnan(evaluate(OPCODES["FSQRT"], (-1.0,)))
        assert evaluate(OPCODES["FABS"], (-2.5,)) == 2.5
        assert evaluate(OPCODES["FNEG"], (2.5,)) == -2.5

    def test_conversions(self):
        assert evaluate(OPCODES["ITOF"], (7,)) == 7.0
        assert evaluate(OPCODES["FTOI"], (7.9,)) == 7
        assert evaluate(OPCODES["FTOI"], (-7.9,)) == -7
        assert evaluate(OPCODES["FTOI"], (math.nan,)) == 0

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_ftoi_itof_identity_on_small_ints(self, x):
        n = evaluate(OPCODES["FTOI"], (x,))
        assert isinstance(n, int)


class TestBindEvaluator:
    """The interpreter's prepared blocks pre-bind one evaluator per
    static instruction; it must compute exactly what ``evaluate``
    would, for every ALU opcode and operand/immediate combination."""

    def test_covers_every_alu_opcode(self):
        assert ALU_SPECS, "probe found no ALU opcodes"
        for spec in ALU_SPECS:
            assert callable(bind_evaluator(spec, 2 if spec.has_imm else None))

    def test_rejects_non_alu_opcodes(self):
        for name in ("LDD", "STD", "BRO", "HALT", "NULL"):
            with pytest.raises(ValueError):
                bind_evaluator(OPCODES[name])

    @given(st.data())
    def test_matches_evaluate(self, data):
        spec = data.draw(st.sampled_from(ALU_SPECS))
        value = (st.floats(allow_nan=False, allow_infinity=False)
                 if spec.is_fp else int64)
        operands = tuple(data.draw(value) for __ in range(spec.operands))
        imm = data.draw(int64) if spec.has_imm else None

        expected = evaluate(spec, operands, imm)
        bound = bind_evaluator(spec, imm)
        a = operands[0] if spec.operands >= 1 else None
        b = operands[1] if spec.operands >= 2 else None
        got = bound(a, b)

        if isinstance(expected, float) and math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected
            assert type(got) is type(expected)


# ----------------------------------------------------------------------
# The table's wrap: in-range fast path == wrap64, row by row
# ----------------------------------------------------------------------

_H, _W = 1 << 63, 1 << 64
#: ``_w(expr)`` as the table writes it, and as it was written before the
#: in-range fast path (``wrap64`` inline) — the reference.
_FAST_WRAP = re.compile(rf"\(w if -{_H} <= \(w := (.*)\) < {_H} "
                        rf"else \(w \+ {_H}\) % {_W} - {_H}\)$")


def _always_wrap(expr):
    return _FAST_WRAP.sub(
        lambda m: f"(({m.group(1)}) + {_H}) % {_W} - {_H}", expr)


def _row_function(coerce, expr):
    x, y = (f"{coerce.__name__}({v})" if coerce else v for v in "ab")
    return eval("lambda a, b: " + expr.format(x=x, y=y), ALU_GLOBALS)


def _observe(f, a, b):
    """``(repr, type)`` of the value (so 1, 1.0 and True differ), or the
    error and ``None``."""
    try:
        value = f(a, b)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    return repr(value), type(value)


_edge_ints = st.builds(
    lambda sign, base, delta: sign * base + delta,
    st.sampled_from([1, -1]), st.sampled_from([0, 1 << 31, _H, _W]),
    st.integers(-3, 3))
_edge_operands = st.one_of(
    _edge_ints, st.integers(60, 130), st.booleans(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 2.0 ** 63,
                     -2.0 ** 63, 2.0 ** 64, 0.5, -1.5]))


class TestWrapFastPath:
    def test_the_reference_differs_exactly_on_wrapping_rows(self):
        wrapping = {name for name, (__, __, expr) in _ALU.items()
                    if _always_wrap(expr) != expr}
        assert wrapping == {name for name, row in _ALU.items()
                            if "w :=" in row[2]}
        assert {"ADD", "SHR", "DIV", "FTOI"} <= wrapping

    @pytest.mark.parametrize("name", sorted(_ALU))
    @settings(max_examples=150, deadline=None)
    @given(a=_edge_operands, b=_edge_operands)
    def test_row_equals_always_wrapping_reference(self, name, a, b):
        coerce, result, expr = _ALU[name]
        got = _observe(_row_function(coerce, expr), a, b)
        assert got == _observe(_row_function(coerce, _always_wrap(expr)), a, b)
        if result is not None:          # the result column is exact
            assert got[1] in (result, None)

    def test_alu_source_shares_the_immediate_forms_row(self):
        assert alu_source(OPCODES["ADDI"]) is _ALU["ADD"]
        assert alu_source(OPCODES["MOVI"]) is _ALU["MOVI"]
        with pytest.raises(ValueError):
            alu_source(OPCODES["LDD"])


# ----------------------------------------------------------------------
# FTOI of a non-finite value: one rule, on every machine
# ----------------------------------------------------------------------

NON_FINITE = (math.inf, -math.inf, math.nan)


def test_ftoi_of_non_finite_is_zero_on_every_machine():
    """``FTOI`` of +inf, -inf and NaN gives 0 on the EDGE interpreter, a
    4-core TFlex run and the RISC interpreter (which runs the same row)."""
    from repro.isa import BlockBuilder, Interpreter, Program
    from repro.risc import RiscInterpreter, RiscProgram
    from repro.risc.isa import RInst
    from repro.tflex import run_program

    program = Program(entry="b0", name="ftoi")
    b = BlockBuilder("b0")
    for reg, value in enumerate(NON_FINITE, start=1):
        b.write(reg, b.op("FTOI", b.movi(value)))
    b.branch("HALT", exit_id=0)
    program.add_block(b.build())
    interp = Interpreter(program)
    assert interp.run().halted
    proc = run_program(program, num_cores=4)

    risc = RiscProgram(name="ftoi")
    risc.label("main")
    for reg, value in enumerate(NON_FINITE, start=1):
        risc.emit(RInst("LI", rd=10 + reg, imm=value))
        risc.emit(RInst("FTOI", rd=reg, rs1=10 + reg))
    risc.emit(RInst("HALT"))
    risc_interp = RiscInterpreter(risc)
    assert risc_interp.run().halted

    for regs in (interp.regs, proc.regs, risc_interp.regs):
        assert [(type(v), v) for v in regs[1:4]] == [(int, 0)] * 3
