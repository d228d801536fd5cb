"""Opcode definitions and evaluation semantics for the EDGE ISA.

Opcode semantics live here, in one place, so that the golden-model
interpreter (:mod:`repro.isa.interp`), the cycle-level simulator
(:mod:`repro.tflex`) and the RISC baseline (:mod:`repro.risc`, through
``repro.risc.isa.ALU_NAMES``) are guaranteed to compute identical values.

Integer values are 64-bit two's complement; floating point values are
IEEE-754 doubles (Python floats).  :func:`bind_evaluator` is the
single entry point for executing an opcode on operand values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.util import wrap64

_WRAP = 1 << 64


class OpClass(Enum):
    """Functional-unit class of an opcode.

    The class determines which issue slot an instruction competes for
    (TFlex cores issue up to two INT-class and one FP-class instruction
    per cycle) and which latency table applies.
    """

    INT = "int"          # single-cycle integer ALU
    IMUL = "imul"        # integer multiply
    IDIV = "idiv"        # integer divide / modulo
    FP = "fp"            # floating-point add/convert class
    FMUL = "fmul"        # floating-point multiply
    FDIV = "fdiv"        # floating-point divide / sqrt
    LOAD = "load"        # memory read (address generation)
    STORE = "store"      # memory write (address/data merge)
    BRANCH = "branch"    # block exit
    NULL = "null"        # output nullification token
    MOVE = "move"        # operand fan-out
    TEST = "test"        # predicate-producing comparison


# Classes that issue on the floating-point pipe of a core.
FP_CLASSES = frozenset({OpClass.FP, OpClass.FMUL, OpClass.FDIV})

# Branch kinds, stored in Instruction.imm-adjacent metadata.
BRANCH_KINDS = ("BRO", "CALLO", "RET", "HALT")


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode.

    Attributes:
        name: Mnemonic, e.g. ``"ADDI"``.
        opclass: Functional-unit class.
        operands: Number of dataflow operands consumed (0, 1 or 2),
            excluding the optional predicate operand.
        has_imm: Whether the instruction carries an immediate field.
        latency: Execution latency in cycles (cache latency for memory
            operations is modelled separately by the memory system).
    """

    name: str
    opclass: OpClass
    operands: int
    has_imm: bool
    latency: int

    @property
    def is_fp(self) -> bool:
        return self.opclass in FP_CLASSES

    @property
    def is_memory(self) -> bool:
        return self.opclass in (OpClass.LOAD, OpClass.STORE)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"OpSpec({self.name})"


def _binops() -> dict[str, tuple[OpClass, int]]:
    """Two-operand integer opcodes: name -> (class, latency)."""
    table = {}
    for name in ("ADD", "SUB", "AND", "OR", "XOR", "SHL", "SHR", "SRA"):
        table[name] = (OpClass.INT, 1)
    table["MUL"] = (OpClass.IMUL, 3)
    table["DIV"] = (OpClass.IDIV, 12)
    table["MOD"] = (OpClass.IDIV, 12)
    return table


def _testops() -> tuple[str, ...]:
    return ("TEQ", "TNE", "TLT", "TLE", "TGT", "TGE")


def _build_opcodes() -> dict[str, OpSpec]:
    ops: dict[str, OpSpec] = {}

    def add(name: str, opclass: OpClass, operands: int, has_imm: bool, latency: int) -> None:
        ops[name] = OpSpec(name, opclass, operands, has_imm, latency)

    # Integer register-register and register-immediate arithmetic.
    for name, (opclass, lat) in _binops().items():
        add(name, opclass, 2, False, lat)
        add(name + "I", opclass, 1, True, lat)

    # One-operand integer ops.
    add("NOT", OpClass.INT, 1, False, 1)
    add("NEG", OpClass.INT, 1, False, 1)

    # Predicate-producing tests (result is 0/1, usable as data too).
    for name in _testops():
        add(name, OpClass.TEST, 2, False, 1)
        add(name + "I", OpClass.TEST, 1, True, 1)
    # Floating-point tests.
    for name in ("FTEQ", "FTLT", "FTLE"):
        add(name, OpClass.TEST, 2, False, 2)

    # Floating point.
    add("FADD", OpClass.FP, 2, False, 4)
    add("FSUB", OpClass.FP, 2, False, 4)
    add("FMUL", OpClass.FMUL, 2, False, 4)
    add("FDIV", OpClass.FDIV, 2, False, 16)
    add("FSQRT", OpClass.FDIV, 1, False, 16)
    add("FABS", OpClass.FP, 1, False, 2)
    add("FNEG", OpClass.FP, 1, False, 2)
    add("ITOF", OpClass.FP, 1, False, 2)
    add("FTOI", OpClass.FP, 1, False, 2)

    # Operand movement.
    add("MOV", OpClass.MOVE, 1, False, 1)
    add("MOVI", OpClass.MOVE, 0, True, 1)

    # Memory.  LD: operand 0 = base address, imm = offset.
    # ST: operand 0 = address, operand 1 = data, imm = offset.
    # Integer loads zero-extend (B/H/W) or are full signed 64-bit (D);
    # LDF/STF move IEEE-754 doubles.
    for suffix in ("B", "H", "W", "D", "F"):
        add("LD" + suffix, OpClass.LOAD, 1, True, 1)
        add("ST" + suffix, OpClass.STORE, 2, True, 1)

    # Branches.  BRO/CALLO carry a static target label; RET takes the
    # target address as operand 0; HALT ends the program.
    add("BRO", OpClass.BRANCH, 0, False, 1)
    add("CALLO", OpClass.BRANCH, 0, False, 1)
    add("RET", OpClass.BRANCH, 1, False, 1)
    add("HALT", OpClass.BRANCH, 0, False, 1)

    # Output nullification (paper section 4.6 completion contract):
    # produces a "null" token for a register-write slot or a store
    # LSQ slot on the predicate path where the real producer is squashed.
    add("NULL", OpClass.NULL, 0, False, 1)

    return ops


OPCODES: dict[str, OpSpec] = _build_opcodes()

#: Memory access size in bytes for LD*/ST* opcodes.
MEMORY_SIZES = {"B": 1, "H": 2, "W": 4, "D": 8, "F": 8}


def memory_size(op: OpSpec) -> int:
    """Access size in bytes of a load/store opcode."""
    if not op.is_memory:
        raise ValueError(f"{op.name} is not a memory opcode")
    return MEMORY_SIZES[op.name[-1]]


_HALF = 1 << 63


def _w(expr: str) -> str:
    """Source text wrapping the int ``expr`` to signed 64 bits
    (``wrap64`` inline; the two big-int operations only when out of
    range).  Binds the scratch name ``w``, so a row holds one wrap."""
    return (f"(w if -{_HALF} <= (w := {expr}) < {_HALF}"
            f" else (w + {_HALF}) % {_WRAP} - {_HALF})")


#: ALU semantics, the only copy (the RISC ISA's ALU ops run these rows
#: too): opcode -> (operand coercion, result type, expression source).
#: ``{x}`` is operand 0 and ``{y}`` operand 1 — or, for the ``*I`` form
#: of a two-operand opcode and for MOVI, the immediate.  The result type
#: is exact (``type(value) is result``) given operands of the coerced
#: type; ``None``: the type of what is moved.  FDIV by zero gives +inf,
#: FSQRT of a negative value NaN, and FTOI of a non-finite value 0.
_ALU = {
    "ADD": (int, int, _w("{x} + {y}")),
    "SUB": (int, int, _w("{x} - {y}")),
    "MUL": (int, int, _w("{x} * {y}")),
    "DIV": (int, int, "0 if {y} == 0 else " + _w("int({x} / {y})")),
    "MOD": (int, int,
            "0 if {y} == 0 else " + _w("{x} - int({x} / {y}) * {y}")),
    "AND": (int, int, _w("{x} & {y}")),
    "OR": (int, int, _w("{x} | {y}")),
    "XOR": (int, int, _w("{x} ^ {y}")),
    "SHL": (int, int, _w("{x} << ({y} & 63)")),
    "SHR": (int, int, _w(f"({{x}} % {_WRAP}) >> ({{y}} & 63)")),
    "SRA": (int, int, _w("{x} >> ({y} & 63)")),
    "NOT": (int, int, _w("~{x}")),
    "NEG": (int, int, _w("-{x}")),
    "TEQ": (int, int, "1 if {x} == {y} else 0"),
    "TNE": (int, int, "1 if {x} != {y} else 0"),
    "TLT": (int, int, "1 if {x} < {y} else 0"),
    "TLE": (int, int, "1 if {x} <= {y} else 0"),
    "TGT": (int, int, "1 if {x} > {y} else 0"),
    "TGE": (int, int, "1 if {x} >= {y} else 0"),
    "FTEQ": (float, int, "1 if {x} == {y} else 0"),
    "FTLT": (float, int, "1 if {x} < {y} else 0"),
    "FTLE": (float, int, "1 if {x} <= {y} else 0"),
    "FADD": (float, float, "{x} + {y}"),
    "FSUB": (float, float, "{x} - {y}"),
    "FMUL": (float, float, "{x} * {y}"),
    "FDIV": (float, float, "inf if {y} == 0.0 else {x} / {y}"),
    "FSQRT": (float, float, "sqrt({x}) if {x} >= 0.0 else nan"),
    "FABS": (float, float, "abs({x})"),
    "FNEG": (float, float, "-{x}"),
    "ITOF": (int, float, "float({x})"),
    "FTOI": (float, int, "0 if not isfinite({x}) else " + _w("int({x})")),
    "MOV": (None, None, "{x}"),
    "MOVI": (None, None, "{y}"),
}

#: The names an :data:`_ALU` expression may use — the globals of every
#: function built from the table (here and in ``isa.interp``'s compiled
#: block paths).
ALU_GLOBALS = {"__builtins__": {}, "int": int, "float": float, "abs": abs,
               "sqrt": math.sqrt, "isfinite": math.isfinite,
               "inf": math.inf, "nan": math.nan}

#: (table row, immediate form?) -> compiled function / factory.
_COMPILED: dict = {}


def alu_source(op: OpSpec) -> tuple:
    """The :data:`_ALU` row of a value-producing opcode, as source:
    ``(operand coercion, result type, expression)``; an ``*I`` opcode
    shares its two-operand form's row, with ``{y}`` the immediate."""
    name = op.name
    row = name if name in _ALU or not op.has_imm else name[:-1]
    if row not in _ALU:
        raise ValueError(f"no ALU row implements opcode {name}")
    return _ALU[row]


def bind_evaluator(op: OpSpec, imm=None):
    """Compile one opcode + resolved immediate to a function ``f(a, b)``.

    ``f`` takes the (up to two) operand values positionally — unused
    positions may be passed anything — and is a *single* Python call:
    the :data:`_ALU` row's expression with the coercions, the 64-bit
    wrap and the (pre-coerced) immediate written into its body.  Rows
    are compiled once per (opcode, form); binding an immediate is one
    closure creation.  The interpreter and the timing model bind one
    evaluator per static instruction.
    """
    row = coerce, __, expr = alu_source(op)
    compiled = _COMPILED.get((row, op.has_imm))
    if compiled is None:
        x, y = (f"{coerce.__name__}({v})" if coerce else v for v in "ab")
        source = "lambda a, b: " + expr.format(x=x, y="c" if op.has_imm else y)
        if op.has_imm:
            source = "lambda c: " + source
        compiled = _COMPILED[row, op.has_imm] = eval(source, ALU_GLOBALS)
    if not op.has_imm:
        return compiled
    return compiled(coerce(imm) if coerce else imm)
