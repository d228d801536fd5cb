"""A small conventional RISC ISA (the figure-5 baseline target).

Sixty-four integer/FP registers (r0 hardwired to zero), three-address
register arithmetic with immediate forms, load/store with displacement,
compare-to-register (SLT-style), conditional branches on zero, JAL/JR
for calls, and HALT.  Programs are linear instruction lists with labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


NUM_RISC_REGS = 64

#: Opcode -> (class, latency).  Classes: alu, mul, div, fp, fmul, fdiv,
#: load, store, branch, jump, halt.
OPS: dict[str, tuple[str, int]] = {
    "ADD": ("alu", 1), "SUB": ("alu", 1), "AND": ("alu", 1), "OR": ("alu", 1),
    "XOR": ("alu", 1), "SHL": ("alu", 1), "SHR": ("alu", 1), "SRA": ("alu", 1),
    "SLT": ("alu", 1), "SLE": ("alu", 1), "SEQ": ("alu", 1), "SNE": ("alu", 1),
    "NOT": ("alu", 1), "NEG": ("alu", 1), "LI": ("alu", 1), "MOV": ("alu", 1),
    "MUL": ("mul", 3), "DIV": ("div", 12), "MOD": ("div", 12),
    "FADD": ("fp", 4), "FSUB": ("fp", 4), "FABS": ("fp", 2), "FNEG": ("fp", 2),
    "ITOF": ("fp", 2), "FTOI": ("fp", 2),
    "FEQ": ("fp", 2), "FLT": ("fp", 2), "FLE": ("fp", 2),
    "FMUL": ("fmul", 4), "FDIV": ("fdiv", 16), "FSQRT": ("fdiv", 16),
    "LD": ("load", 1), "LDF": ("load", 1),
    "ST": ("store", 1), "STF": ("store", 1),
    "B": ("jump", 1), "BEQZ": ("branch", 1), "BNEZ": ("branch", 1),
    "JAL": ("jump", 1), "JR": ("jump", 1),
    "HALT": ("halt", 1),
}


#: RISC opcode -> the ``repro.isa.opcodes._ALU`` row that computes it,
#: where the names differ; every other ALU opcode has its EDGE name.
#: An immediate selects the row's ``*I`` form (LI is MOVI already).
ALU_NAMES = {"SLT": "TLT", "SLE": "TLE", "SEQ": "TEQ", "SNE": "TNE",
             "FEQ": "FTEQ", "FLT": "FTLT", "FLE": "FTLE", "LI": "MOVI"}

#: The classes of the opcodes that produce a value through the ALU.
ALU_CLASSES = frozenset({"alu", "mul", "div", "fp", "fmul", "fdiv"})


class RiscError(Exception):
    """Malformed RISC program or instruction."""


@dataclass
class RInst:
    """One RISC instruction.

    Fields are used per opcode: ``rd`` destination, ``rs1``/``rs2``
    sources, ``imm`` immediate/displacement, ``target`` label for
    control flow.  For stores, ``rs1`` is the base address register and
    ``rs2`` the data register.
    """

    op: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: Optional[int | float] = None
    target: Optional[str] = None

    @property
    def opclass(self) -> str:
        return OPS[self.op][0]

    @property
    def latency(self) -> int:
        return OPS[self.op][1]

    @property
    def is_branch(self) -> bool:
        return self.opclass in ("branch", "jump", "halt")

    def sources(self) -> list[int]:
        """Register numbers read by this instruction."""
        op = self.op
        if op in ("LI", "B", "JAL", "HALT"):
            return []
        if op in ("BEQZ", "BNEZ", "JR", "NOT", "NEG", "MOV", "FABS", "FNEG",
                  "ITOF", "FTOI", "FSQRT", "LD", "LDF"):
            return [self.rs1]
        if op in ("ST", "STF"):
            return [self.rs1, self.rs2]
        if self.imm is not None:    # immediate ALU form
            return [self.rs1]
        return [self.rs1, self.rs2]

    def destination(self) -> Optional[int]:
        if self.op in ("ST", "STF", "B", "BEQZ", "BNEZ", "JR", "HALT"):
            return None
        return self.rd

    def describe(self) -> str:
        parts = [self.op]
        dest = self.destination()
        if dest is not None:
            parts.append(f"r{dest}")
        parts += [f"r{s}" for s in self.sources()]
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"-> {self.target}")
        return " ".join(parts)


@dataclass
class RiscProgram:
    """A linked linear RISC program."""

    name: str = "risc"
    insts: list[RInst] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: dict[int, bytes] = field(default_factory=dict)
    _next_data: int = 0x10_0000

    def label(self, name: str) -> None:
        """Define a label at the current position."""
        if name in self.labels:
            raise RiscError(f"duplicate label {name!r}")
        self.labels[name] = len(self.insts)

    def emit(self, inst: RInst) -> None:
        if inst.op not in OPS:
            raise RiscError(f"unknown opcode {inst.op!r}")
        self.insts.append(inst)

    def alloc_data(self, nbytes: int, align: int = 8) -> int:
        addr = (self._next_data + align - 1) // align * align
        self._next_data = addr + nbytes
        return addr

    def add_blob(self, raw: bytes) -> int:
        addr = self.alloc_data(len(raw))
        self.data[addr] = raw
        return addr

    def pc_of(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise RiscError(f"unknown label {label!r}") from None

    def validate(self) -> None:
        for inst in self.insts:
            if inst.target is not None and inst.target not in self.labels:
                raise RiscError(f"{inst.describe()}: undefined label")
            for reg in inst.sources() + ([inst.destination()] if inst.destination() is not None else []):
                if not 0 <= reg < NUM_RISC_REGS:
                    raise RiscError(f"{inst.describe()}: register r{reg}")
        if "main" not in self.labels:
            raise RiscError("no main entry label")

    def disassemble(self) -> str:
        by_pc: dict[int, list[str]] = {}
        for name, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(name)
        lines = []
        for pc, inst in enumerate(self.insts):
            for name in by_pc.get(pc, []):
                lines.append(f"{name}:")
            lines.append(f"  {pc:4d}  {inst.describe()}")
        return "\n".join(lines)
