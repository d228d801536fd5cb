"""Functional interpreter for the RISC ISA.

Executes a program in order, producing the architectural result and —
for the timing model — the dynamic instruction trace (program counters
and load/store addresses), which the out-of-order model replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.opcodes import OPCODES, bind_evaluator
from repro.mem.flatmem import FlatMemory
from repro.risc.isa import (
    ALU_CLASSES, ALU_NAMES, NUM_RISC_REGS, RInst, RiscError, RiscProgram)


@dataclass
class TraceEntry:
    """One dynamic instruction for the timing model."""

    pc: int
    inst: RInst
    addr: Optional[int] = None      # effective address for loads/stores
    taken: bool = False             # conditional-branch outcome
    target_pc: Optional[int] = None  # where control went (branches/jumps)


@dataclass
class RiscRunResult:
    insts_executed: int
    halted: bool
    trace: Optional[list[TraceEntry]] = None


def alu_evaluator(inst: RInst):
    """``f(a, b)`` computing an ALU instruction from its source registers'
    values: the EDGE opcode's :func:`repro.isa.opcodes.bind_evaluator`
    under its :data:`repro.risc.isa.ALU_NAMES` name, the ``*I`` form when
    the instruction carries an immediate."""
    name = ALU_NAMES.get(inst.op, inst.op)
    if inst.imm is not None and name != "MOVI":
        name += "I"
    if name not in OPCODES:
        raise RiscError(f"{inst.describe()}: no ALU form {name}")
    return bind_evaluator(OPCODES[name], inst.imm)


class RiscInterpreter:
    """In-order functional execution (golden model + trace source)."""

    def __init__(self, program: RiscProgram,
                 memory: Optional[FlatMemory] = None) -> None:
        program.validate()
        self.program = program
        self.mem = memory if memory is not None else FlatMemory()
        self.mem.load_image(program.data)
        self.regs: list = [0] * NUM_RISC_REGS
        self._alu = [alu_evaluator(inst) if inst.opclass in ALU_CLASSES
                     else None for inst in program.insts]

    def run(self, max_insts: int = 5_000_000,
            record_trace: bool = False) -> RiscRunResult:
        program = self.program
        regs = self.regs
        alu = self._alu
        pc = program.pc_of("main")
        executed = 0
        trace: Optional[list[TraceEntry]] = [] if record_trace else None

        while True:
            if executed >= max_insts:
                raise RiscError(f"instruction budget exhausted ({max_insts})")
            inst = program.insts[pc]
            executed += 1
            entry = TraceEntry(pc=pc, inst=inst) if record_trace else None
            next_pc = pc + 1
            op = inst.op

            if op == "HALT":
                if record_trace:
                    trace.append(entry)
                return RiscRunResult(executed, True, trace)
            if op in ("LD", "LDF"):
                addr = regs[inst.rs1] + int(inst.imm or 0)
                regs[inst.rd] = self.mem.load(addr, 8, fp=(op == "LDF"))
                if record_trace:
                    entry.addr = addr
            elif op in ("ST", "STF"):
                addr = regs[inst.rs1] + int(inst.imm or 0)
                self.mem.store(addr, 8, regs[inst.rs2], fp=(op == "STF"))
                if record_trace:
                    entry.addr = addr
            elif op == "B":
                next_pc = program.pc_of(inst.target)
            elif op == "BEQZ":
                if regs[inst.rs1] == 0:
                    next_pc = program.pc_of(inst.target)
                    if record_trace:
                        entry.taken = True
            elif op == "BNEZ":
                if regs[inst.rs1] != 0:
                    next_pc = program.pc_of(inst.target)
                    if record_trace:
                        entry.taken = True
            elif op == "JAL":
                regs[inst.rd] = pc + 1
                next_pc = program.pc_of(inst.target)
            elif op == "JR":
                next_pc = regs[inst.rs1]
            else:
                regs[inst.rd] = alu[pc](regs[inst.rs1], regs[inst.rs2])

            regs[0] = 0     # r0 stays zero
            if record_trace:
                entry.target_pc = next_pc if next_pc != pc + 1 else None
                trace.append(entry)
            pc = next_pc
