"""Functional interpreter for the RISC ISA.

Executes a program in order, producing the architectural result and —
for the timing model — the dynamic instruction trace (program counters
and load/store addresses), which the out-of-order model replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem.flatmem import FlatMemory
from repro.risc.isa import NUM_RISC_REGS, RInst, RiscError, RiscProgram, evaluate_alu


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


class RiscInterpreter:
    """In-order functional execution (golden model + trace source)."""

    def __init__(self, program: RiscProgram,
                 memory: Optional[FlatMemory] = None) -> None:
        program.validate()
        self.program = program
        self.mem = memory if memory is not None else FlatMemory()
        self.mem.load_image(program.data)
        self.regs: list = [0] * NUM_RISC_REGS

    def run(self, max_insts: int = 5_000_000,
            record_trace: bool = False) -> RiscRunResult:
        program = self.program
        regs = self.regs
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
                a = regs[inst.rs1]
                b = regs[inst.rs2]
                regs[inst.rd] = evaluate_alu(inst, a, b)

            regs[0] = 0     # r0 stays zero
            if record_trace:
                entry.target_pc = next_pc if next_pc != pc + 1 else None
                trace.append(entry)
            pc = next_pc
