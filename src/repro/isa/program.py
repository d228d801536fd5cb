"""Programs: ordered collections of EDGE blocks plus initial state.

A program fixes the memory layout of its blocks (block addresses drive
the block-ownership hash and all predictor indexing), the initial data
segment, and initial architectural register values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

from repro.isa.block import Block, BlockError, NUM_REGS
from repro.isa.instruction import LabelRef


#: Sentinel "next block address" produced by HALT.
HALT_ADDR = 0

#: Default base address of the code segment.
CODE_BASE = 0x1_0000
#: Address stride between consecutive blocks (128 insts x 4 B + header,
#: rounded to a power of two so address hashes stay simple).
BLOCK_STRIDE = 0x400
#: Default base address of the data segment.
DATA_BASE = 0x10_0000


class ProgramError(Exception):
    """A program violates a whole-program constraint."""


@dataclass
class Program:
    """A linked EDGE program.

    Attributes:
        blocks: Label -> block map.
        order: Memory layout order of blocks.  The address of a block is
            ``CODE_BASE + order.index(label) * BLOCK_STRIDE``; the block
            after a CALLO block in this order is its return continuation
            (the RAS pushes the sequential next-block address).
        entry: Label of the first block executed.
        data: Initial data segment: address -> bytes.
        reg_init: Initial architectural register values.
        name: Human-readable program name (benchmark id).
    """

    entry: str
    blocks: dict[str, Block] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    data: dict[int, bytes] = field(default_factory=dict)
    reg_init: dict[int, int | float] = field(default_factory=dict)
    name: str = "program"
    _next_data: int = DATA_BASE
    #: Memoized label -> code address map; rebuilt whenever ``order``
    #: grows (``address_of`` is on the branch-resolution hot path).
    _addr_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: Label -> compiled functional form (``isa.interp.prepare_block``).
    _prepared: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_block(self, block: Block) -> None:
        """Append a block to the program layout."""
        if block.label in self.blocks:
            raise ProgramError(f"duplicate block label {block.label!r}")
        self.blocks[block.label] = block
        self.order.append(block.label)

    def alloc_data(self, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` in the data segment, returning the address."""
        addr = (self._next_data + align - 1) // align * align
        self._next_data = addr + nbytes
        return addr

    def add_words(self, values: Iterable[int], signed: bool = True) -> int:
        """Place 64-bit integers in the data segment, returning the base address."""
        values = list(values)
        raw = b"".join(struct.pack("<q" if signed else "<Q", v) for v in values)
        addr = self.alloc_data(len(raw))
        self.data[addr] = raw
        return addr

    def add_doubles(self, values: Iterable[float]) -> int:
        """Place IEEE-754 doubles in the data segment, returning the base address."""
        raw = b"".join(struct.pack("<d", v) for v in values)
        addr = self.alloc_data(len(raw))
        self.data[addr] = raw
        return addr

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def address_of(self, label: str) -> int:
        """Code address of a block."""
        cache = self._addr_cache
        if len(cache) != len(self.order):
            cache.clear()
            for index, name in enumerate(self.order):
                cache[name] = CODE_BASE + index * BLOCK_STRIDE
        try:
            return cache[label]
        except KeyError:
            raise ProgramError(f"unknown block label {label!r}") from None

    def label_at(self, addr: int) -> str:
        """Block label at a code address."""
        index, rem = divmod(addr - CODE_BASE, BLOCK_STRIDE)
        if rem != 0 or not 0 <= index < len(self.order):
            raise ProgramError(f"address {addr:#x} is not a block address")
        return self.order[index]

    def block_at(self, addr: int) -> Block:
        return self.blocks[self.label_at(addr)]

    # ------------------------------------------------------------------
    # Linking and validation
    # ------------------------------------------------------------------

    def resolve_imm(self, imm):
        """Resolve a possibly-symbolic immediate to a concrete value."""
        if isinstance(imm, LabelRef):
            return self.address_of(imm.label)
        return imm

    def validate(self) -> None:
        """Validate every block and whole-program label integrity."""
        if self.entry not in self.blocks:
            raise ProgramError(f"entry block {self.entry!r} not defined")
        if set(self.order) != set(self.blocks):
            raise ProgramError("block order and block map disagree")
        for label, block in self.blocks.items():
            if label != block.label:
                raise ProgramError(f"block map key {label!r} != block label {block.label!r}")
            try:
                block.validate()
            except BlockError as exc:
                raise ProgramError(str(exc)) from exc
            for succ in block.successors():
                if succ not in self.blocks:
                    raise ProgramError(f"{label}: branch to unknown block {succ!r}")
            for inst in block.insts:
                if isinstance(inst.imm, LabelRef) and inst.imm.label not in self.blocks:
                    raise ProgramError(f"{label}: immediate references unknown block {inst.imm.label!r}")
        for reg in self.reg_init:
            if not 0 <= reg < NUM_REGS:
                raise ProgramError(f"initial value for nonexistent register r{reg}")

    def disassemble(self) -> str:
        """Full program listing."""
        parts = [f"; program {self.name}  entry={self.entry}"]
        for label in self.order:
            parts.append(self.blocks[label].disassemble())
        return "\n\n".join(parts)
