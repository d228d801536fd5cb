"""Lower kernel DSL programs to EDGE hyperblocks.

The backend mirrors the structure of the TRIPS compiler's back end:

* **If-conversion with flat predicates.**  Conditions are evaluated
  speculatively as ordinary 0/1 dataflow values; nested path conditions
  are ANDed.  Conditional scalar assignments become predicate-merged MOV
  pairs (:meth:`BlockBuilder.phi`), conditional stores become a
  predicated store plus a NULL store on the complementary path — which
  keeps every declared block output resolvable on every dynamic path
  (the completion contract of section 4.6).
* **Loop unrolling** by the kernel's hint, when the trip count is a
  compile-time constant divisible by the factor and the unrolled body
  fits the block limits; the factor degrades gracefully otherwise.
* **Block splitting.**  Straight-line regions that exceed the soft
  capacity limits (128 instructions, 32 reads/writes/LSQ slots, with
  margin for MOV-tree legalization) are split into chained blocks; live
  scalars travel through registers.
* **Calls** use the CALLO/RET convention: the caller writes argument
  registers and a link register holding the sequential-next block
  address (what the RAS predicts), and the callee returns through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.compiler.ast_nodes import (
    Assign, Bin, Call, Cmp, CMP_OPS, CompileError, Const, For, FLOAT_BINOPS,
    FtoI, Function, If, INT_BINOPS, ItoF, KernelProgram, Load, Return, Store,
    Un, Var,
)
from repro.isa.block import NUM_REGS
from repro.isa.builder import BlockBuilder, Port
from repro.isa.program import Program


#: Soft capacity limits, leaving headroom for MOV-tree legalization and
#: the end-of-block write/branch sequence.
INST_SOFT_LIMIT = 100
LSQ_SOFT_LIMIT = 28
WRITE_SOFT_LIMIT = 26


@dataclass
class _FuncInfo:
    """Register assignment of one function."""

    name: str
    entry_label: str
    param_regs: dict[str, int]
    link_reg: int
    ret_reg: int
    var_regs: dict[str, int] = field(default_factory=dict)


def _assigned_vars(stmts) -> list[str]:
    """Variables assigned anywhere in a statement list, in first-assignment order."""
    seen: list[str] = []

    def note(name: str) -> None:
        if name not in seen:
            seen.append(name)

    def walk(statements) -> None:
        for stmt in statements:
            if isinstance(stmt, Assign):
                note(stmt.var)
            elif isinstance(stmt, For):
                note(stmt.var)
                walk(stmt.body)
            elif isinstance(stmt, If):
                walk(stmt.then)
                walk(stmt.else_)
            elif isinstance(stmt, Call) and stmt.dest is not None:
                note(stmt.dest)

    walk(stmts)
    return seen


def compile_edge(kernel: KernelProgram, name: Optional[str] = None) -> Program:
    """Compile a kernel to a linked EDGE program."""
    kernel.validate()
    program = Program(entry="", name=name or kernel.name)

    # Lay out arrays in the data segment.
    array_base: dict[str, int] = {}
    for arr in kernel.arrays:
        if arr.init is not None:
            values = list(arr.init) + [0] * (arr.size - len(arr.init))
            if arr.elem == "float":
                base = program.add_doubles([float(v) for v in values])
            else:
                base = program.add_words([int(v) for v in values])
        else:
            base = program.alloc_data(arr.size * arr.elem_size)
        array_base[arr.name] = base

    # Allocate registers: params, link, return, then locals, per function.
    infos: dict[str, _FuncInfo] = {}
    next_reg = 1
    for fn in kernel.functions:
        param_regs = {}
        for param in fn.params:
            param_regs[param] = next_reg
            next_reg += 1
        link_reg = next_reg
        ret_reg = next_reg + 1
        next_reg += 2
        info = _FuncInfo(name=fn.name, entry_label=f"{fn.name}_0",
                         param_regs=param_regs, link_reg=link_reg,
                         ret_reg=ret_reg, var_regs=dict(param_regs))
        for var in _assigned_vars(fn.body):
            if var not in info.var_regs:
                info.var_regs[var] = next_reg
                next_reg += 1
        infos[fn.name] = info
    if next_reg > NUM_REGS:
        raise CompileError(
            f"{kernel.name}: needs {next_reg} registers (> {NUM_REGS}); "
            "reduce scalar count")

    # main first (entry), then the other functions.
    ordered = [kernel.function("main")] + [
        fn for fn in kernel.functions if fn.name != "main"]
    for fn in ordered:
        _EdgeFunc(kernel, program, infos, array_base, fn).compile()
    program.entry = infos["main"].entry_label
    program.validate()
    return program


class _EdgeFunc:
    """Compiles one function into a chain of hyperblocks."""

    def __init__(self, kernel: KernelProgram, program: Program,
                 infos: dict[str, _FuncInfo], array_base: dict[str, int],
                 fn: Function) -> None:
        self.kernel = kernel
        self.program = program
        self.infos = infos
        self.info = infos[fn.name]
        self.array_base = array_base
        self.fn = fn
        self.types: dict[str, str] = {p: "int" for p in fn.params}
        self.builder: Optional[BlockBuilder] = None
        self.vals: dict[str, Port] = {}
        self.dirty: set[str] = set()
        self.cse: dict = {}
        self.label_counter = 1          # label 0 is the entry block
        self.path: Optional[Port] = None
        self.returned = False

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------

    def _label(self) -> str:
        label = f"{self.fn.name}_{self.label_counter}"
        self.label_counter += 1
        return label

    def _open(self, label: str) -> None:
        self.builder = BlockBuilder(label)
        self.vals = {}
        self.dirty = set()
        self.cse = {}

    def _flush_dirty(self) -> None:
        for var in sorted(self.dirty):
            self.builder.write(self.info.var_regs[var], self.vals[var])

    def _close_jump(self, target: str) -> None:
        self._flush_dirty()
        self.builder.branch("BRO", target=target, exit_id=0)
        self.program.add_block(self.builder.build())
        self.builder = None

    def _close_cond(self, pred: Port, if_true: str, if_false: str) -> None:
        self._flush_dirty()
        self.builder.branch("BRO", target=if_true, exit_id=0, pred=(pred, True))
        self.builder.branch("BRO", target=if_false, exit_id=1, pred=(pred, False))
        self.program.add_block(self.builder.build())
        self.builder = None

    def _split(self) -> None:
        """End the current block and continue in a fresh one."""
        assert self.path is None, "cannot split inside a predicated region"
        label = self._label()
        self._close_jump(label)
        self._open(label)

    def _ensure_capacity(self, insts: int, mem: int) -> None:
        """Split the block if the next statement may not fit."""
        if self.path is not None:
            return
        # legalized_size, not size: a CSE-shared value fanning out to
        # many consumers owes MOV-tree instructions that build() will
        # append, and they count against BLOCK_MAX_INSTS too.
        if (self.builder.legalized_size + insts > INST_SOFT_LIMIT
                or self.builder.lsq_slots_used + mem > LSQ_SOFT_LIMIT
                or len(self.dirty) >= WRITE_SOFT_LIMIT):
            if self.builder.size > 0:
                self._split()

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------

    def _get(self, var: str) -> Port:
        if var not in self.vals:
            if var not in self.info.var_regs:
                raise CompileError(f"{self.fn.name}: unknown variable {var!r}")
            self.vals[var] = self.builder.read(self.info.var_regs[var])
        return self.vals[var]

    def _set(self, var: str, port: Port, vtype: str) -> None:
        known = self.types.get(var)
        if known is not None and known != vtype:
            raise CompileError(f"{self.fn.name}: {var} changes type {known}->{vtype}")
        self.types[var] = vtype
        self.vals[var] = port
        self.dirty.add(var)

    # ------------------------------------------------------------------
    # Expression lowering (with per-block CSE on pure operations)
    # ------------------------------------------------------------------

    def _eval(self, expr) -> tuple[Port, str]:
        b = self.builder
        if isinstance(expr, Const):
            key = ("const", expr.value, expr.type)
            if key not in self.cse:
                self.cse[key] = b.movi(expr.value)
            return self.cse[key], expr.type
        if isinstance(expr, Var):
            if expr.name not in self.types:
                raise CompileError(f"{self.fn.name}: use of uninitialized {expr.name!r}")
            return self._get(expr.name), self.types[expr.name]
        if isinstance(expr, Load):
            return self._eval_load(expr)
        if isinstance(expr, Bin):
            return self._eval_bin(expr)
        if isinstance(expr, Cmp):
            return self._eval_cmp(expr)
        if isinstance(expr, Un):
            return self._eval_un(expr)
        if isinstance(expr, ItoF):
            port, vtype = self._eval(expr.a)
            if vtype != "int":
                raise CompileError("ItoF requires int")
            return self._memo(("itof", port), lambda: b.op("ITOF", port)), "float"
        if isinstance(expr, FtoI):
            port, vtype = self._eval(expr.a)
            if vtype != "float":
                raise CompileError("FtoI requires float")
            return self._memo(("ftoi", port), lambda: b.op("FTOI", port)), "int"
        raise CompileError(f"unknown expression {expr!r}")

    def _memo(self, key, make) -> Port:
        if key not in self.cse:
            self.cse[key] = make()
        return self.cse[key]

    def _eval_bin(self, expr: Bin) -> tuple[Port, str]:
        b = self.builder
        pa, ta = self._eval(expr.a)
        if ta == "float":
            if expr.op not in FLOAT_BINOPS:
                raise CompileError(f"{expr.op!r} undefined for float")
            pb, tb = self._eval(expr.b)
            if tb != "float":
                raise CompileError(f"type mismatch in {expr.op}")
            opname = FLOAT_BINOPS[expr.op]
            return self._memo((opname, pa, pb), lambda: b.op(opname, pa, pb)), "float"
        if expr.op not in INT_BINOPS:
            raise CompileError(f"{expr.op!r} undefined for int")
        opname = INT_BINOPS[expr.op]
        if isinstance(expr.b, Const) and expr.b.type == "int":
            imm = expr.b.value
            return self._memo((opname + "I", pa, imm),
                              lambda: b.op(opname + "I", pa, imm=imm)), "int"
        pb, tb = self._eval(expr.b)
        if tb != "int":
            raise CompileError(f"type mismatch in {expr.op}")
        return self._memo((opname, pa, pb), lambda: b.op(opname, pa, pb)), "int"

    def _eval_cmp(self, expr: Cmp) -> tuple[Port, str]:
        b = self.builder
        pa, ta = self._eval(expr.a)
        if ta == "float":
            pb, tb = self._eval(expr.b)
            if tb != "float":
                raise CompileError(f"type mismatch in {expr.op}")
            # Float tests: ==, <, <= native; others by operand swap.
            table = {"==": ("FTEQ", False), "<": ("FTLT", False),
                     "<=": ("FTLE", False), ">": ("FTLT", True),
                     ">=": ("FTLE", True), "!=": None}
            entry = table.get(expr.op)
            if entry is None:
                eq = self._memo(("FTEQ", pa, pb), lambda: b.op("FTEQ", pa, pb))
                return self._memo(("notf", eq), lambda: b.op("XORI", eq, imm=1)), "int"
            opname, swap = entry
            x, y = (pb, pa) if swap else (pa, pb)
            return self._memo((opname, x, y), lambda: b.op(opname, x, y)), "int"
        opname = CMP_OPS[expr.op]
        if isinstance(expr.b, Const) and expr.b.type == "int":
            imm = expr.b.value
            return self._memo((opname + "I", pa, imm),
                              lambda: b.op(opname + "I", pa, imm=imm)), "int"
        pb, tb = self._eval(expr.b)
        if tb != "int":
            raise CompileError(f"type mismatch in {expr.op}")
        return self._memo((opname, pa, pb), lambda: b.op(opname, pa, pb)), "int"

    def _eval_un(self, expr: Un) -> tuple[Port, str]:
        b = self.builder
        port, vtype = self._eval(expr.a)
        if expr.op == "-":
            opname = "FNEG" if vtype == "float" else "NEG"
            return self._memo((opname, port), lambda: b.op(opname, port)), vtype
        if expr.op == "~":
            return self._memo(("NOT", port), lambda: b.op("NOT", port)), "int"
        if expr.op == "abs":
            if vtype == "float":
                return self._memo(("FABS", port), lambda: b.op("FABS", port)), "float"
            # Integer abs: predicate-merged negate.
            def make():
                is_neg = b.op("TLTI", port, imm=0)
                return b.phi(is_neg, b.op("NEG", port, pred=(is_neg, True)),
                             b.mov(port, pred=(is_neg, False)))
            return self._memo(("iabs", port), make), "int"
        if expr.op == "sqrt":
            return self._memo(("FSQRT", port), lambda: b.op("FSQRT", port)), "float"
        raise CompileError(f"unknown unary {expr.op!r}")

    def _address(self, array_name: str, index) -> tuple[Port, str]:
        """Port holding the byte address of ``array[index]``."""
        arr = self.kernel.array(array_name)
        base = self.array_base[array_name]
        b = self.builder
        if isinstance(index, Const):
            addr = base + int(index.value) * arr.elem_size
            return self._memo(("const", addr, "int"), lambda: b.movi(addr)), arr.elem
        port, vtype = self._eval(index)
        if vtype != "int":
            raise CompileError(f"array index for {array_name} must be int")
        scaled = self._memo(("SHLI", port, 3), lambda: b.op("SHLI", port, imm=3))
        return self._memo(("ADDI", scaled, base),
                          lambda: b.op("ADDI", scaled, imm=base)), arr.elem

    def _eval_load(self, expr: Load) -> tuple[Port, str]:
        addr, elem = self._address(expr.array, expr.index)
        op = "LDF" if elem == "float" else "LDD"
        return self.builder.load(addr, op=op), elem

    # ------------------------------------------------------------------
    # Statement lowering
    # ------------------------------------------------------------------

    def compile(self) -> None:
        self._open(self.info.entry_label)
        self._emit_stmts(self.fn.body)
        if self.builder is not None and not self.returned:
            self._emit_return(Return())

    def _emit_stmts(self, stmts) -> None:
        for stmt in stmts:
            if self.returned:
                raise CompileError(f"{self.fn.name}: statements after return")
            self._emit(stmt)

    def _emit(self, stmt) -> None:
        if isinstance(stmt, Assign):
            self._ensure_capacity(self._est_expr(stmt.expr) + 4, self._est_mem(stmt.expr))
            self._emit_assign(stmt)
        elif isinstance(stmt, Store):
            cost = self._est_expr(stmt.index) + self._est_expr(stmt.value) + 6
            self._ensure_capacity(cost, self._est_mem(stmt.index)
                                  + self._est_mem(stmt.value) + 1)
            self._emit_store(stmt)
        elif isinstance(stmt, If):
            cost = self._est_if(stmt)
            mem = self._est_if_mem(stmt)
            if cost > INST_SOFT_LIMIT or mem > LSQ_SOFT_LIMIT:
                raise CompileError(
                    f"{self.fn.name}: if-converted region too large "
                    f"({cost} insts / {mem} memory ops); restructure the kernel")
            self._ensure_capacity(cost, mem)
            self._emit_if(stmt)
        elif isinstance(stmt, For):
            self._emit_for(stmt)
        elif isinstance(stmt, Call):
            self._emit_call(stmt)
        elif isinstance(stmt, Return):
            self._emit_return(stmt)
        else:
            raise CompileError(f"unknown statement {stmt!r}")

    def _emit_assign(self, stmt: Assign) -> None:
        port, vtype = self._eval(stmt.expr)
        if self.path is not None:
            if stmt.var not in self.types:
                raise CompileError(
                    f"{self.fn.name}: {stmt.var!r} conditionally assigned "
                    "before initialization")
            old = self._get(stmt.var)
            port = self.builder.phi(self.path, port, old)
        self._set(stmt.var, port, vtype)

    def _emit_store(self, stmt: Store) -> None:
        addr, elem = self._address(stmt.array, stmt.index)
        value, vtype = self._eval(stmt.value)
        if vtype != elem:
            raise CompileError(
                f"{self.fn.name}: storing {vtype} into {elem} array {stmt.array}")
        op = "STF" if elem == "float" else "STD"
        if self.path is None:
            self.builder.store(addr, value, op=op)
        else:
            handle = self.builder.store(addr, value, op=op, pred=(self.path, True))
            self.builder.null_store(handle, pred=(self.path, False))

    def _emit_if(self, stmt: If) -> None:
        cond, ctype = self._eval(stmt.cond)
        if ctype != "int":
            raise CompileError(f"{self.fn.name}: if condition must be int (0/1)")
        outer = self.path
        b = self.builder
        not_cond = self._memo(("notb", cond), lambda: b.op("XORI", cond, imm=1))
        if outer is None:
            then_path, else_path = cond, not_cond
        else:
            then_path = self._memo(("and", outer, cond),
                                   lambda: b.op("AND", outer, cond))
            else_path = self._memo(("and", outer, not_cond),
                                   lambda: b.op("AND", outer, not_cond))
        self.path = then_path
        self._emit_stmts(stmt.then)
        if stmt.else_:
            self.path = else_path
            self._emit_stmts(stmt.else_)
        self.path = outer

    def _emit_for(self, stmt: For) -> None:
        if self.path is not None:
            raise CompileError(f"{self.fn.name}: loops inside conditionals "
                               "are not supported; restructure the kernel")
        if stmt.step <= 0:
            raise CompileError(f"{self.fn.name}: loop step must be positive")

        # Loop variable initialization in the preheader.
        start_port, stype = self._eval(stmt.start)
        if stype != "int":
            raise CompileError(f"{self.fn.name}: loop bounds must be int")
        self._set(stmt.var, start_port, "int")

        unroll = self._unroll_factor(stmt)

        head = self._label()
        exit_label = self._label()
        # Preheader guard: skip the loop body when the trip count is zero.
        end_port, etype = self._eval(stmt.end)
        if etype != "int":
            raise CompileError(f"{self.fn.name}: loop bounds must be int")
        guard = self.builder.op("TLT", self._get(stmt.var), end_port)
        self._close_cond(guard, head, exit_label)

        # Loop body block(s).
        self._open(head)
        for copy in range(unroll):
            self._emit_stmts(stmt.body)
            bumped = self.builder.op("ADDI", self._get(stmt.var), imm=stmt.step)
            self._set(stmt.var, bumped, "int")
        # Latch: continue while var < end.
        end_port, __ = self._eval(stmt.end)
        again = self.builder.op("TLT", self._get(stmt.var), end_port)
        self._close_cond(again, head, exit_label)
        self._open(exit_label)

    def _unroll_factor(self, stmt: For) -> int:
        unroll = max(1, stmt.unroll)
        trip = None
        if isinstance(stmt.start, Const) and isinstance(stmt.end, Const):
            trip = max(0, (int(stmt.end.value) - int(stmt.start.value)
                           + stmt.step - 1) // stmt.step)
        while unroll > 1:
            if trip is None or trip % unroll != 0:
                unroll //= 2
                continue
            # The statement estimator overshoots real block sizes (CSE
            # and register reads make bodies cheaper than the walk
            # suggests), so the gate compensates; overshooting is safe —
            # per-statement capacity checks split oversized bodies.
            body_cost = (sum(self._est_stmt(s) for s in stmt.body) * 2) // 3 + 3
            body_mem = sum(self._est_stmt_mem(s) for s in stmt.body)
            if (body_cost * unroll + 8 > INST_SOFT_LIMIT
                    or body_mem * unroll > LSQ_SOFT_LIMIT):
                unroll //= 2
                continue
            break
        return max(1, unroll)

    def _emit_call(self, stmt: Call) -> None:
        if self.path is not None:
            raise CompileError(f"{self.fn.name}: calls inside conditionals "
                               "are not supported")
        if stmt.func not in self.infos:
            raise CompileError(f"{self.fn.name}: call to unknown {stmt.func!r}")
        callee = self.infos[stmt.func]
        callee_fn = self.kernel.function(stmt.func)
        if len(stmt.args) != len(callee_fn.params):
            raise CompileError(
                f"{self.fn.name}: {stmt.func} takes {len(callee_fn.params)} args")

        # Pass arguments through the callee's parameter registers.
        for param, arg in zip(callee_fn.params, stmt.args):
            port, __ = self._eval(arg)
            self.builder.write(callee.param_regs[param], port)
        continuation = self._label()
        self.builder.write(callee.link_reg, self.builder.label_address(continuation))
        self._flush_dirty()
        self.builder.branch("CALLO", target=callee.entry_label, exit_id=0)
        self.program.add_block(self.builder.build())

        # The continuation must directly follow the call block in layout:
        # the RAS pushes the sequential next-block address.
        self._open(continuation)
        if stmt.dest is not None:
            ret_port = self.builder.read(callee.ret_reg)
            self._set(stmt.dest, ret_port, callee_fn.returns)

    def _emit_return(self, stmt: Return) -> None:
        if self.path is not None:
            raise CompileError(f"{self.fn.name}: return inside conditionals "
                               "is not supported")
        if stmt.expr is not None:
            port, vtype = self._eval(stmt.expr)
            if vtype != self.fn.returns:
                raise CompileError(
                    f"{self.fn.name}: returns {vtype}, declared {self.fn.returns}")
            self.builder.write(self.info.ret_reg, port)
        self._flush_dirty()
        if self.fn.name == "main":
            self.builder.branch("HALT", exit_id=0)
        else:
            link = self.builder.read(self.info.link_reg)
            self.builder.branch("RET", exit_id=0, addr=link)
        self.program.add_block(self.builder.build())
        self.builder = None
        self.returned = True

    # ------------------------------------------------------------------
    # Cost estimation (over-approximations used for block splitting)
    # ------------------------------------------------------------------

    def _est_expr(self, expr) -> int:
        if isinstance(expr, Const):
            return 1            # MOVI, usually shared via CSE
        if isinstance(expr, Var):
            return 0            # register reads occupy no window slot
        if isinstance(expr, Load):
            return self._est_expr(expr.index) + 3   # shift, add, load
        if isinstance(expr, (Bin, Cmp)):
            return self._est_expr(expr.a) + self._est_expr(expr.b) + 1
        if isinstance(expr, Un):
            return self._est_expr(expr.a) + 3
        if isinstance(expr, (ItoF, FtoI)):
            return self._est_expr(expr.a) + 1
        return 2

    def _est_mem(self, expr) -> int:
        if isinstance(expr, Load):
            return self._est_mem(expr.index) + 1
        if isinstance(expr, (Bin, Cmp)):
            return self._est_mem(expr.a) + self._est_mem(expr.b)
        if isinstance(expr, (Un, ItoF, FtoI)):
            return self._est_mem(expr.a)
        return 0

    def _est_stmt(self, stmt) -> int:
        if isinstance(stmt, Assign):
            return self._est_expr(stmt.expr) + 2    # +phi pair when predicated
        if isinstance(stmt, Store):
            return self._est_expr(stmt.index) + self._est_expr(stmt.value) + 3
        if isinstance(stmt, If):
            return self._est_if(stmt)
        return 10

    def _est_stmt_mem(self, stmt) -> int:
        if isinstance(stmt, Assign):
            return self._est_mem(stmt.expr)
        if isinstance(stmt, Store):
            return self._est_mem(stmt.index) + self._est_mem(stmt.value) + 1
        if isinstance(stmt, If):
            return self._est_if_mem(stmt)
        return 0

    def _est_if(self, stmt: If) -> int:
        return (self._est_expr(stmt.cond) + 3
                + sum(self._est_stmt(s) for s in stmt.then)
                + sum(self._est_stmt(s) for s in stmt.else_))

    def _est_if_mem(self, stmt: If) -> int:
        return (self._est_mem(stmt.cond)
                + sum(self._est_stmt_mem(s) for s in stmt.then)
                + sum(self._est_stmt_mem(s) for s in stmt.else_))
