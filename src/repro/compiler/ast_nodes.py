"""AST of the kernel DSL.

Types are ``"int"`` (64-bit two's complement) and ``"float"`` (IEEE
double).  Expressions are side-effect free; loads may read any address
(out-of-bounds reads return zero — flat memory semantics), which lets
the EDGE backend hoist them speculatively as the TRIPS compiler does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union


class CompileError(Exception):
    """The kernel violates a DSL or target constraint."""


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    """Literal; type inferred from the Python value."""

    value: Union[int, float]

    @property
    def type(self) -> str:
        return "float" if isinstance(self.value, float) else "int"


@dataclass(frozen=True)
class Var:
    """Scalar variable reference."""

    name: str


@dataclass(frozen=True)
class Load:
    """Array element read: ``array[index]``."""

    array: str
    index: "Expr"


#: Integer binary operators and their EDGE/RISC mnemonic stems.
INT_BINOPS = {"+": "ADD", "-": "SUB", "*": "MUL", "/": "DIV", "%": "MOD",
              "&": "AND", "|": "OR", "^": "XOR", "<<": "SHL", ">>": "SHR"}
FLOAT_BINOPS = {"+": "FADD", "-": "FSUB", "*": "FMUL", "/": "FDIV"}
CMP_OPS = {"==": "TEQ", "!=": "TNE", "<": "TLT", "<=": "TLE",
           ">": "TGT", ">=": "TGE"}


@dataclass(frozen=True)
class Bin:
    """Arithmetic/logical binary operation (operand types must match)."""

    op: str
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Cmp:
    """Comparison producing an int 0/1."""

    op: str
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Un:
    """Unary operation: ``-`` (neg), ``~`` (not), ``abs``, ``sqrt`` (float)."""

    op: str
    a: "Expr"


@dataclass(frozen=True)
class ItoF:
    a: "Expr"


@dataclass(frozen=True)
class FtoI:
    a: "Expr"


Expr = Union[Const, Var, Load, Bin, Cmp, Un, ItoF, FtoI]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------

@dataclass
class Assign:
    var: str
    expr: Expr


@dataclass
class Store:
    """Array element write: ``array[index] = value``."""

    array: str
    index: Expr
    value: Expr


@dataclass
class If:
    cond: Expr
    then: list
    else_: list = field(default_factory=list)


@dataclass
class For:
    """Counted loop: ``for var in range(start, end, step)``.

    ``unroll`` is a hint; the EDGE backend honours it when the trip
    count is a compile-time constant divisible by the factor (and the
    unrolled body fits the block limits), otherwise it falls back.
    """

    var: str
    start: Expr
    end: Expr
    body: list = field(default_factory=list)
    step: int = 1
    unroll: int = 1


@dataclass
class Call:
    """Call a kernel function; ``dest`` receives its return value."""

    func: str
    args: list
    dest: Optional[str] = None


@dataclass
class Return:
    expr: Optional[Expr] = None


Stmt = Union[Assign, Store, If, For, Call, Return]


# ----------------------------------------------------------------------
# Program containers
# ----------------------------------------------------------------------

@dataclass
class Array:
    """A named array bound to a data-segment region at link time."""

    name: str
    elem: str                    # "int" | "float"
    size: int
    init: Optional[Sequence] = None

    @property
    def elem_size(self) -> int:
        return 8


@dataclass
class Function:
    """One kernel function; ``main`` is the program entry."""

    name: str
    params: list[str] = field(default_factory=list)
    body: list = field(default_factory=list)
    returns: str = "int"         # return type (ignored for void use)


@dataclass
class KernelProgram:
    """A complete DSL program: arrays + functions, entry = ``main``."""

    name: str
    arrays: list[Array] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise CompileError(f"{self.name}: no function {name!r}")

    def array(self, name: str) -> Array:
        for arr in self.arrays:
            if arr.name == name:
                return arr
        raise CompileError(f"{self.name}: no array {name!r}")

    def validate(self) -> None:
        names = [f.name for f in self.functions]
        if "main" not in names:
            raise CompileError(f"{self.name}: no main function")
        if len(set(names)) != len(names):
            raise CompileError(f"{self.name}: duplicate function names")
        anames = [a.name for a in self.arrays]
        if len(set(anames)) != len(anames):
            raise CompileError(f"{self.name}: duplicate array names")
        for arr in self.arrays:
            if arr.elem not in ("int", "float"):
                raise CompileError(f"{self.name}: array {arr.name} elem {arr.elem}")
            if arr.init is not None and len(arr.init) > arr.size:
                raise CompileError(f"{self.name}: array {arr.name} init too long")
