"""EDGE blocks: the atomic unit of fetch, execution and commit.

A block (a TRIPS *hyperblock*) holds up to 128 dataflow instructions plus
a header declaring its architectural interface:

* up to 32 **register reads** that inject architectural register values
  into the dataflow graph,
* up to 32 **register write** slots that declare which registers the
  block may write, and
* up to 32 **load/store-queue slots** (shared sequence space for loads
  and stores, in program order).

The block-atomic contract that makes distributed completion detection
possible (paper section 4.6) is: on *every* dynamic predicate path,
exactly one branch fires, every declared write slot receives a value or
a NULL token, and every declared store slot receives store data or a
NULL token.  :meth:`Block.validate` checks the statically checkable part
of this contract; the interpreter enforces the dynamic part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.instruction import Instruction, Target, TargetKind, OperandSlot


#: Maximum instructions per block (TRIPS ISA).
BLOCK_MAX_INSTS = 128
#: Maximum register reads per block.
MAX_READS = 32
#: Maximum register write slots per block.
MAX_WRITES = 32
#: Maximum load/store-queue slots per block.
MAX_LSQ_IDS = 32
#: Maximum dataflow targets one producer may encode (fan-out beyond this
#: uses MOV trees, inserted by the builder).
MAX_TARGETS = 2
#: Architectural register count.
NUM_REGS = 128
#: Number of distinct block exits (3 exit bits).
NUM_EXITS = 8


class BlockError(Exception):
    """A block violates a static ISA constraint."""


@dataclass
class ReadSlot:
    """A register read in the block header.

    Injects the architectural value of ``reg`` into the dataflow graph at
    the given targets when the block is dispatched.
    """

    index: int
    reg: int
    targets: tuple[Target, ...]


@dataclass
class WriteSlot:
    """A register write slot in the block header.

    Declares that the block produces a value (or NULL) for architectural
    register ``reg``; the value arrives via dataflow targets of kind
    :attr:`TargetKind.WRITE`.
    """

    index: int
    reg: int


@dataclass
class Block:
    """One EDGE block.

    Instruction IDs equal list indices (``insts[i].iid == i``); the
    composition interleaving hash (instruction ID modulo participating
    core count) relies on this.
    """

    label: str
    insts: list[Instruction] = field(default_factory=list)
    reads: list[ReadSlot] = field(default_factory=list)
    writes: list[WriteSlot] = field(default_factory=list)
    comment: str = ""
    # Memoized derived sets (blocks are immutable once built; the owner
    # core consults these on every output-completion check).
    _store_ids: Optional[frozenset] = field(
        default=None, init=False, repr=False, compare=False)
    _load_ids: Optional[frozenset] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of instructions (affects fetch/dispatch time)."""
        return len(self.insts)

    @property
    def store_ids(self) -> frozenset[int]:
        """Declared LSQ slots that must resolve to a store or NULL."""
        cached = self._store_ids
        if cached is None:
            ids = set()
            for inst in self.insts:
                if inst.is_store or (inst.is_null and inst.null_store):
                    ids.add(inst.lsq_id)
            self._store_ids = cached = frozenset(ids)
        return cached

    @property
    def load_ids(self) -> frozenset[int]:
        cached = self._load_ids
        if cached is None:
            self._load_ids = cached = frozenset(
                i.lsq_id for i in self.insts if i.is_load)
        return cached

    @property
    def branches(self) -> list[Instruction]:
        return [i for i in self.insts if i.is_branch]

    def successors(self) -> set[str]:
        """Static successor labels (excludes dynamic RET targets)."""
        return {b.branch_target for b in self.branches if b.branch_target is not None}

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`BlockError` on any static contract violation."""
        if not (1 <= len(self.insts) <= BLOCK_MAX_INSTS):
            raise BlockError(f"{self.label}: {len(self.insts)} instructions (1..{BLOCK_MAX_INSTS})")
        if len(self.reads) > MAX_READS:
            raise BlockError(f"{self.label}: {len(self.reads)} reads (max {MAX_READS})")
        if len(self.writes) > MAX_WRITES:
            raise BlockError(f"{self.label}: {len(self.writes)} writes (max {MAX_WRITES})")

        for i, inst in enumerate(self.insts):
            if inst.iid != i:
                raise BlockError(f"{self.label}: instruction {i} has iid {inst.iid}")
            if len(inst.targets) > MAX_TARGETS:
                raise BlockError(f"{self.label}: I{i} has {len(inst.targets)} targets")
            if inst.is_branch and inst.targets:
                raise BlockError(f"{self.label}: branch I{i} must not have targets")

        self._validate_reads_writes()
        self._validate_memory_ids()
        self._validate_dataflow()
        self._validate_branches()

    def _validate_reads_writes(self) -> None:
        for i, read in enumerate(self.reads):
            if read.index != i:
                raise BlockError(f"{self.label}: read slot {i} mis-indexed")
            if not 0 <= read.reg < NUM_REGS:
                raise BlockError(f"{self.label}: read of register {read.reg}")
            if len(read.targets) > MAX_TARGETS:
                raise BlockError(f"{self.label}: read {i} has {len(read.targets)} targets")
        seen_regs = set()
        for i, write in enumerate(self.writes):
            if write.index != i:
                raise BlockError(f"{self.label}: write slot {i} mis-indexed")
            if not 0 <= write.reg < NUM_REGS:
                raise BlockError(f"{self.label}: write of register {write.reg}")
            if write.reg in seen_regs:
                raise BlockError(f"{self.label}: duplicate write of register {write.reg}")
            seen_regs.add(write.reg)

    def _validate_memory_ids(self) -> None:
        ids = [i.lsq_id for i in self.insts
               if i.is_load or i.is_store or (i.is_null and i.null_store)]
        for lsq_id in ids:
            if lsq_id is None or not 0 <= lsq_id < MAX_LSQ_IDS:
                raise BlockError(f"{self.label}: bad LSQ id {lsq_id}")
        if len(set(ids)) > MAX_LSQ_IDS:
            raise BlockError(f"{self.label}: more than {MAX_LSQ_IDS} LSQ slots")
        # A slot may have several producers only if they are predicated
        # alternatives; a load's slot must not be shared with stores.
        loads = self.load_ids
        stores = self.store_ids
        if loads & stores:
            raise BlockError(f"{self.label}: LSQ slots {sorted(loads & stores)} used by both loads and stores")

    def _validate_dataflow(self) -> None:
        n = len(self.insts)
        producers: dict[tuple[int, OperandSlot], int] = {}
        write_producers: dict[int, int] = {}

        def note_targets(targets: tuple[Target, ...], origin: str) -> None:
            for t in targets:
                if t.kind is TargetKind.WRITE:
                    if t.index >= len(self.writes):
                        raise BlockError(f"{self.label}: {origin} targets undeclared write slot {t.index}")
                    write_producers[t.index] = write_producers.get(t.index, 0) + 1
                else:
                    if not 0 <= t.index < n:
                        raise BlockError(f"{self.label}: {origin} targets missing I{t.index}")
                    consumer = self.insts[t.index]
                    if t.slot is OperandSlot.PRED:
                        if consumer.pred is None:
                            raise BlockError(
                                f"{self.label}: {origin} sends predicate to unpredicated I{t.index}")
                    else:
                        slot_no = 0 if t.slot is OperandSlot.OP0 else 1
                        if slot_no >= consumer.num_operands:
                            raise BlockError(
                                f"{self.label}: {origin} targets nonexistent operand "
                                f"{t.slot.name} of I{t.index} ({consumer.op.name})")
                    key = (t.index, t.slot)
                    producers[key] = producers.get(key, 0) + 1

        for read in self.reads:
            note_targets(read.targets, f"read {read.index}")
        for inst in self.insts:
            note_targets(inst.targets, f"I{inst.iid}")

        # Every awaited operand slot needs at least one static producer.
        for inst in self.insts:
            for slot_no in range(inst.num_operands):
                slot = OperandSlot.OP0 if slot_no == 0 else OperandSlot.OP1
                if (inst.iid, slot) not in producers:
                    raise BlockError(
                        f"{self.label}: I{inst.iid} ({inst.op.name}) operand {slot.name} has no producer")
            if inst.pred is not None and (inst.iid, OperandSlot.PRED) not in producers:
                raise BlockError(f"{self.label}: I{inst.iid} predicate has no producer")
        for wslot in self.writes:
            if wslot.index not in write_producers:
                raise BlockError(f"{self.label}: write slot {wslot.index} (r{wslot.reg}) has no producer")

    def _validate_branches(self) -> None:
        branches = self.branches
        if not branches:
            raise BlockError(f"{self.label}: no branch instruction")
        unpredicated = [b for b in branches if b.pred is None]
        if len(branches) > 1 and unpredicated:
            raise BlockError(f"{self.label}: multiple branches but I{unpredicated[0].iid} unpredicated")
        for b in branches:
            if b.exit_id is None or not 0 <= b.exit_id < NUM_EXITS:
                raise BlockError(f"{self.label}: branch I{b.iid} exit id {b.exit_id}")
            if b.op.name in ("BRO", "CALLO") and b.branch_target is None:
                raise BlockError(f"{self.label}: {b.op.name} I{b.iid} lacks target label")

    # ------------------------------------------------------------------
    # Composition helpers
    # ------------------------------------------------------------------

    def disassemble(self) -> str:
        """Multi-line human-readable listing of the block."""
        lines = [f"block {self.label}:  ({self.size} insts)"]
        if self.comment:
            lines.append(f"  ; {self.comment}")
        for read in self.reads:
            suffix = ""
            if read.targets:
                suffix = " => " + ", ".join(repr(t) for t in read.targets)
            lines.append(f"  R{read.index:<3} read  r{read.reg:<3}{suffix}")
        for wslot in self.writes:
            lines.append(f"  W{wslot.index:<3} write r{wslot.reg}")
        for inst in self.insts:
            lines.append("  " + inst.describe())
        return "\n".join(lines)
