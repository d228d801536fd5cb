"""Lower kernel DSL programs to linear RISC code (figure-5 baseline).

Conventional lowering: real conditional branches for ``If``, counted
loops with a preheader guard, JAL/JR calls through a link register.
Loop unrolling honours the same kernel hints as the EDGE backend so the
two targets run comparable code.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.compiler.ast_nodes import (
    Assign, Bin, Call, Cmp, CompileError, Const, For, FtoI,
    Function, If, INT_BINOPS, FLOAT_BINOPS, ItoF, KernelProgram, Load,
    Return, Store, Un, Var,
)
from repro.risc.isa import RInst, RiscProgram


#: Registers 1..TEMP_BASE-1 hold named variables; TEMP_BASE..63 are
#: expression temporaries.
TEMP_BASE = 40


@dataclass
class _FuncRegs:
    entry: str
    params: dict[str, int]
    link: int
    ret: int
    vars: dict[str, int] = field(default_factory=dict)


def compile_risc(kernel: KernelProgram, name: Optional[str] = None) -> RiscProgram:
    """Compile a kernel to a linked RISC program."""
    kernel.validate()
    program = RiscProgram(name=name or kernel.name)

    array_base: dict[str, int] = {}
    for arr in kernel.arrays:
        values = list(arr.init or []) + [0] * (arr.size - len(arr.init or []))
        if arr.elem == "float":
            raw = b"".join(struct.pack("<d", float(v)) for v in values)
        else:
            raw = b"".join(struct.pack("<q", int(v)) for v in values)
        array_base[arr.name] = program.add_blob(raw)

    from repro.compiler.edge_backend import _assigned_vars

    regs: dict[str, _FuncRegs] = {}
    next_reg = 1

    def take() -> int:
        nonlocal next_reg
        reg = next_reg
        next_reg += 1
        if reg >= TEMP_BASE:
            raise CompileError(f"{kernel.name}: too many scalars for the RISC target")
        return reg

    for fn in kernel.functions:
        params = {p: take() for p in fn.params}
        info = _FuncRegs(entry=f"{fn.name}", params=params,
                         link=take(), ret=take(), vars=dict(params))
        for var in _assigned_vars(fn.body):
            if var not in info.vars:
                info.vars[var] = take()
        regs[fn.name] = info

    ordered = [kernel.function("main")] + [
        fn for fn in kernel.functions if fn.name != "main"]
    for fn in ordered:
        _RiscFunc(kernel, program, regs, array_base, fn).compile()
    program.validate()
    return program


class _RiscFunc:
    def __init__(self, kernel, program, regs, array_base, fn: Function) -> None:
        self.kernel = kernel
        self.program = program
        self.regs = regs
        self.info = regs[fn.name]
        self.array_base = array_base
        self.fn = fn
        self.types: dict[str, str] = {p: "int" for p in fn.params}
        self._temp = TEMP_BASE
        self._label_counter = 0
        self.returned = False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{self.fn.name}__{hint}{self._label_counter}"

    def _tmp(self) -> int:
        reg = self._temp
        self._temp += 1
        if reg > 63:
            raise CompileError(f"{self.fn.name}: expression too deep for temporaries")
        return reg

    def _mark(self) -> int:
        """Temporary high-water mark for stack-discipline reuse."""
        return self._temp

    def _settle(self, mark: int) -> int:
        """Reuse the register window above ``mark`` for this node's
        result: the result lands in register ``mark`` and every child
        temporary above it is released.  Safe because the machine reads
        sources before writing the destination."""
        self._temp = mark
        return self._tmp()

    def _reset_tmps(self) -> None:
        self._temp = TEMP_BASE

    def _emit(self, op: str, **kw) -> None:
        self.program.emit(RInst(op, **kw))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr) -> tuple[int, str]:
        """Returns (register, type); may clobber temporaries."""
        if isinstance(expr, Const):
            reg = self._tmp()
            self._emit("LI", rd=reg, imm=expr.value)
            return reg, expr.type
        if isinstance(expr, Var):
            if expr.name not in self.types:
                raise CompileError(f"{self.fn.name}: uninitialized {expr.name!r}")
            return self.info.vars[expr.name], self.types[expr.name]
        if isinstance(expr, Load):
            mark = self._mark()
            base, elem = self._address(expr.array, expr.index)
            reg = self._settle(mark)
            self._emit("LDF" if elem == "float" else "LD",
                       rd=reg, rs1=base, imm=0)
            return reg, elem
        if isinstance(expr, Bin):
            mark = self._mark()
            ra, ta = self._eval(expr.a)
            table = FLOAT_BINOPS if ta == "float" else INT_BINOPS
            if expr.op not in table:
                raise CompileError(f"{expr.op!r} undefined for {ta}")
            opname = table[expr.op]
            if ta == "int" and isinstance(expr.b, Const) and expr.b.type == "int":
                reg = self._settle(mark)
                self._emit(opname, rd=reg, rs1=ra, imm=expr.b.value)
                return reg, ta
            rb, tb = self._eval(expr.b)
            if tb != ta:
                raise CompileError(f"type mismatch in {expr.op}")
            reg = self._settle(mark)
            self._emit(opname, rd=reg, rs1=ra, rs2=rb)
            return reg, ta
        if isinstance(expr, Cmp):
            return self._eval_cmp(expr)
        if isinstance(expr, Un):
            return self._eval_un(expr)
        if isinstance(expr, ItoF):
            mark = self._mark()
            ra, __ = self._eval(expr.a)
            reg = self._settle(mark)
            self._emit("ITOF", rd=reg, rs1=ra)
            return reg, "float"
        if isinstance(expr, FtoI):
            mark = self._mark()
            ra, __ = self._eval(expr.a)
            reg = self._settle(mark)
            self._emit("FTOI", rd=reg, rs1=ra)
            return reg, "int"
        raise CompileError(f"unknown expression {expr!r}")

    def _eval_cmp(self, expr: Cmp) -> tuple[int, str]:
        mark = self._mark()
        ra, ta = self._eval(expr.a)
        if ta == "float":
            rb, __ = self._eval(expr.b)
            table = {"==": ("FEQ", False), "!=": None, "<": ("FLT", False),
                     "<=": ("FLE", False), ">": ("FLT", True), ">=": ("FLE", True)}
            entry = table.get(expr.op)
            if entry is None:
                reg = self._settle(mark)
                self._emit("FEQ", rd=reg, rs1=ra, rs2=rb)
                self._emit("XOR", rd=reg, rs1=reg, imm=1)
                return reg, "int"
            opname, swap = entry
            x, y = (rb, ra) if swap else (ra, rb)
            reg = self._settle(mark)
            self._emit(opname, rd=reg, rs1=x, rs2=y)
            return reg, "int"
        # Integer: SLT/SLE/SEQ/SNE direct; > and >= by swapping.
        mapping = {"==": ("SEQ", False), "!=": ("SNE", False),
                   "<": ("SLT", False), "<=": ("SLE", False),
                   ">": ("SLT", True), ">=": ("SLE", True)}
        opname, swap = mapping[expr.op]
        if not swap and isinstance(expr.b, Const) and expr.b.type == "int":
            reg = self._settle(mark)
            self._emit(opname, rd=reg, rs1=ra, imm=expr.b.value)
            return reg, "int"
        rb, __ = self._eval(expr.b)
        x, y = (rb, ra) if swap else (ra, rb)
        reg = self._settle(mark)
        self._emit(opname, rd=reg, rs1=x, rs2=y)
        return reg, "int"

    def _eval_un(self, expr: Un) -> tuple[int, str]:
        mark = self._mark()
        ra, ta = self._eval(expr.a)
        if expr.op == "-":
            reg = self._settle(mark)
            self._emit("FNEG" if ta == "float" else "NEG", rd=reg, rs1=ra)
            return reg, ta
        if expr.op == "~":
            reg = self._settle(mark)
            self._emit("NOT", rd=reg, rs1=ra)
            return reg, "int"
        if expr.op == "abs":
            if ta == "float":
                reg = self._settle(mark)
                self._emit("FABS", rd=reg, rs1=ra)
                return reg, "float"
            # Branchless integer abs: mask = a >> 63; (a ^ mask) - mask.
            # The mask register sits one above the settled result.
            reg = self._settle(mark)
            mask = self._tmp()
            self._emit("SRA", rd=mask, rs1=ra, imm=63)
            self._emit("XOR", rd=reg, rs1=ra, rs2=mask)
            self._emit("SUB", rd=reg, rs1=reg, rs2=mask)
            self._temp = reg + 1
            return reg, "int"
        if expr.op == "sqrt":
            reg = self._settle(mark)
            self._emit("FSQRT", rd=reg, rs1=ra)
            return reg, "float"
        raise CompileError(f"unknown unary {expr.op!r}")

    def _address(self, array_name: str, index) -> tuple[int, str]:
        arr = self.kernel.array(array_name)
        base = self.array_base[array_name]
        mark = self._mark()
        if isinstance(index, Const):
            reg = self._settle(mark)
            self._emit("LI", rd=reg, imm=base + int(index.value) * arr.elem_size)
            return reg, arr.elem
        ri, ti = self._eval(index)
        if ti != "int":
            raise CompileError(f"array index for {array_name} must be int")
        reg = self._settle(mark)
        self._emit("SHL", rd=reg, rs1=ri, imm=3)
        self._emit("ADD", rd=reg, rs1=reg, imm=base)
        return reg, arr.elem

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def compile(self) -> None:
        self.program.label(self.info.entry)
        self._emit_stmts(self.fn.body)
        if not self.returned:
            self._emit_return(Return())

    def _emit_stmts(self, stmts) -> None:
        for stmt in stmts:
            if self.returned:
                raise CompileError(f"{self.fn.name}: statements after return")
            self._reset_tmps()
            self._emit_stmt(stmt)

    def _emit_stmt(self, stmt) -> None:
        if isinstance(stmt, Assign):
            reg, vtype = self._eval(stmt.expr)
            known = self.types.get(stmt.var)
            if known is not None and known != vtype:
                raise CompileError(f"{self.fn.name}: {stmt.var} changes type")
            self.types[stmt.var] = vtype
            dest = self.info.vars[stmt.var]
            if dest != reg:
                self._emit("MOV", rd=dest, rs1=reg)
        elif isinstance(stmt, Store):
            base, elem = self._address(stmt.array, stmt.index)
            reg, vtype = self._eval(stmt.value)
            if vtype != elem:
                raise CompileError(f"{self.fn.name}: storing {vtype} into {elem} array")
            self._emit("STF" if elem == "float" else "ST",
                       rs1=base, rs2=reg, imm=0)
        elif isinstance(stmt, If):
            self._emit_if(stmt)
        elif isinstance(stmt, For):
            self._emit_for(stmt)
        elif isinstance(stmt, Call):
            self._emit_call(stmt)
        elif isinstance(stmt, Return):
            self._emit_return(stmt)
        else:
            raise CompileError(f"unknown statement {stmt!r}")

    def _emit_if(self, stmt: If) -> None:
        cond, ctype = self._eval(stmt.cond)
        if ctype != "int":
            raise CompileError(f"{self.fn.name}: if condition must be int")
        else_label = self._label("else")
        end_label = self._label("endif")
        self._emit("BEQZ", rs1=cond, target=else_label if stmt.else_ else end_label)
        self._emit_stmts_nested(stmt.then)
        if stmt.else_:
            self._emit("B", target=end_label)
            self.program.label(else_label)
            self._emit_stmts_nested(stmt.else_)
        self.program.label(end_label)

    def _emit_stmts_nested(self, stmts) -> None:
        for stmt in stmts:
            self._reset_tmps()
            self._emit_stmt(stmt)

    def _emit_for(self, stmt: For) -> None:
        if stmt.step <= 0:
            raise CompileError(f"{self.fn.name}: loop step must be positive")
        var_reg = self.info.vars[stmt.var]
        start, stype = self._eval(stmt.start)
        if stype != "int":
            raise CompileError(f"{self.fn.name}: loop bounds must be int")
        self.types[stmt.var] = "int"
        if start != var_reg:
            self._emit("MOV", rd=var_reg, rs1=start)

        unroll = self._unroll_factor(stmt)
        head = self._label("loop")
        exit_label = self._label("endloop")

        # Preheader guard.
        end_reg, __ = self._eval(stmt.end)
        guard = self._tmp()
        self._emit("SLT", rd=guard, rs1=var_reg, rs2=end_reg)
        self._emit("BEQZ", rs1=guard, target=exit_label)

        self.program.label(head)
        for __copy in range(unroll):
            self._emit_stmts_nested(stmt.body)
            self._reset_tmps()
            self._emit("ADD", rd=var_reg, rs1=var_reg, imm=stmt.step)
        self._reset_tmps()
        end_reg, __t = self._eval(stmt.end)
        again = self._tmp()
        self._emit("SLT", rd=again, rs1=var_reg, rs2=end_reg)
        self._emit("BNEZ", rs1=again, target=head)
        self.program.label(exit_label)

    def _unroll_factor(self, stmt: For) -> int:
        unroll = max(1, stmt.unroll)
        if not (isinstance(stmt.start, Const) and isinstance(stmt.end, Const)):
            return 1
        trip = max(0, (int(stmt.end.value) - int(stmt.start.value)
                       + stmt.step - 1) // stmt.step)
        while unroll > 1 and trip % unroll != 0:
            unroll //= 2
        return max(1, unroll)

    def _emit_call(self, stmt: Call) -> None:
        if stmt.func not in self.regs:
            raise CompileError(f"{self.fn.name}: call to unknown {stmt.func!r}")
        callee = self.regs[stmt.func]
        callee_fn = self.kernel.function(stmt.func)
        if len(stmt.args) != len(callee_fn.params):
            raise CompileError(f"{self.fn.name}: bad arity calling {stmt.func}")
        for param, arg in zip(callee_fn.params, stmt.args):
            reg, __ = self._eval(arg)
            if callee.params[param] != reg:
                self._emit("MOV", rd=callee.params[param], rs1=reg)
        self._emit("JAL", rd=callee.link, target=callee.entry)
        if stmt.dest is not None:
            self.types[stmt.dest] = callee_fn.returns
            self._emit("MOV", rd=self.info.vars[stmt.dest], rs1=callee.ret)

    def _emit_return(self, stmt: Return) -> None:
        if stmt.expr is not None:
            reg, vtype = self._eval(stmt.expr)
            if vtype != self.fn.returns:
                raise CompileError(f"{self.fn.name}: returns {vtype}, "
                                   f"declared {self.fn.returns}")
            if reg != self.info.ret:
                self._emit("MOV", rd=self.info.ret, rs1=reg)
        if self.fn.name == "main":
            self._emit("HALT")
        else:
            self._emit("JR", rs1=self.info.link)
        self.returned = True
