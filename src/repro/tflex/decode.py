"""Per-composition compiled blocks: the static schedule of the timing model.

An EDGE block's placement, operand routes, issue classes and functional
semantics depend only on the block and the composition geometry — never
on dynamic state.  Fetching a block on an N-core composition used to
re-derive them per event from the ISA-level
:class:`~repro.isa.block.Block`; instead a composed processor compiles
each block **once**, on first fetch, into a :class:`DecodedBlock` and
every later fetch, dispatch, issue and operand delivery indexes it.

The records hold core IDs and :class:`~repro.tflex.core.Core` objects of
one composition, so they live and die with the processor that compiled
them (``ComposedProcessor._decoded``): a recomposed processor — other
``core_ids`` — starts with an empty cache.  Replaying a record is cycle-
and stat-identical to re-deriving it; ``tests/tflex/test_decode.py``
checks every field against the ISA definitions.
"""

from __future__ import annotations

from repro.isa.block import Block
from repro.isa.instruction import TargetKind
from repro.isa.interp import (  # noqa: F401  (handler kinds, re-exported)
    ALU, BRANCH, LOAD, NULL, STORE, prepare_block)
from repro.tflex.interleave import rf_bank_of


class InstRecord:
    """One instruction compiled for one composition: the program's
    functional record of it (``isa.interp._PInst``, compiled once per
    program — kind, need, pred, bound evaluator, memory and branch
    fields, copied here by reference) plus its placement.

    ``base`` indexes the instance's flat operand buffer (``base + slot``,
    :class:`~repro.isa.instruction.OperandSlot` order); ``need`` counts
    the tokens that must arrive (operands plus predicate) and ``pred``
    is the predicate value that lets it fire.  ``evalf(a, b)`` is the
    interpreter's bound evaluator (ALU kinds only); ``size``/``fp``/
    ``offset``/``dep_key`` describe a memory access, ``next_addr`` a
    branch's static successor (``None``: RET takes it from operand 0).
    ``targets`` are pre-resolved routes, see :func:`_resolve`.
    """

    __slots__ = ("inst", "iid", "base", "kind", "is_fp", "energy", "latency",
                 "need", "pred", "evalf", "targets", "lsq_id", "size", "fp",
                 "offset", "dep_key", "next_addr")

    def __init__(self, inst, block: Block, functional) -> None:
        op = inst.op
        self.inst = inst
        self.iid = inst.iid
        self.base = 3 * inst.iid
        self.is_fp = op.is_fp
        self.energy = "fpu_op" if op.is_fp else "alu_op"
        self.latency = op.latency
        self.kind = functional.kind
        self.need = functional.need
        self.pred = functional.pred
        self.evalf = functional.evalf
        self.lsq_id = functional.lsq_id
        self.size = functional.size
        self.fp = functional.fp
        self.offset = functional.offset
        self.next_addr = functional.next_addr
        self.dep_key = ((block.label, inst.lsq_id)
                        if functional.kind in (LOAD, STORE) else None)


def _resolve(targets, block: Block, records, proc) -> tuple:
    """Dataflow targets as ``(dest core ID, dest Core, a, b)`` routes.

    An operand of instruction ``i`` is delivered on the core executing
    ``i``: ``a`` is the consumer's record, ``b`` its operand-buffer
    index.  A register write goes to the bank holding the register:
    ``dest Core`` is ``None``, ``a`` the register, ``b`` the bank.
    """
    routes = []
    for target in targets:
        if target.kind is TargetKind.WRITE:
            reg = block.writes[target.index].reg
            bank = rf_bank_of(reg, proc.num_rf_banks)
            routes.append((proc.rf_bank_core(bank), None, reg, bank))
        else:
            dest = proc.core_ids[target.index % proc.ncores]
            routes.append((dest, proc.system.cores[dest],
                           records[target.index],
                           3 * target.index + target.slot))
    return tuple(routes)


class DecodedBlock:
    """Everything static about one block on one composition."""

    __slots__ = ("block", "records", "operands", "missing", "chunk_sizes",
                 "groups", "reads_by_core", "icache_lines",
                 "write_slots", "writes_per_bank")

    def __init__(self, block: Block, proc) -> None:
        ncores = proc.ncores
        self.block = block
        self.records = records = [
            InstRecord(inst, block, functional) for inst, functional
            in zip(block.insts, prepare_block(proc.program, block).insts)]
        for record in records:
            record.targets = _resolve(record.inst.targets, block, records, proc)
        # Per-fetch state templates: an empty operand buffer, and per
        # instruction the tokens still missing plus one for dispatch.
        self.operands = [None] * (3 * len(records))
        self.missing = [record.need + 1 for record in records]

        # Instruction interleaving: instruction ``i`` executes on
        # participating core ``i mod N`` (paper section 4.4), dispatched
        # in packets of ``dispatch_width`` per cycle.
        width = proc.cfg.core.dispatch_width
        chunks = [records[index::ncores] for index in range(ncores)]
        self.chunk_sizes = tuple(len(c) for c in chunks)
        self.groups = tuple(
            tuple(tuple(chunk[i:i + width])
                  for i in range(0, len(chunk), width))
            for chunk in chunks)

        # Register reads resolve at the bank holding the register; bank
        # ``b`` lives on participating core ``b`` (the composition's
        # first cores), so the core index equals the bank index.  Per
        # read: (register, bank, bank core ID, routes).
        reads = [[] for __ in range(ncores)]
        for read in block.reads:
            bank = rf_bank_of(read.reg, proc.num_rf_banks)
            reads[bank].append((read.reg, bank, proc.rf_bank_core(bank),
                                _resolve(read.targets, block, records, proc)))
        self.reads_by_core = tuple(tuple(r) for r in reads)

        # Each core's slice occupies ceil(4 * |chunk| / line) I-cache
        # lines (only meaningful for non-empty slices).
        self.icache_lines = tuple(
            max(1, -(-size * 4 // proc.cfg.line_size))
            for size in self.chunk_sizes)

        # Write set: (bank, register) per header write slot, plus the
        # per-bank drain depth used by the commit protocol.
        self.write_slots = tuple(
            (rf_bank_of(wslot.reg, proc.num_rf_banks), wslot.reg)
            for wslot in block.writes)
        per_bank = [0] * proc.num_rf_banks
        for bank, __ in self.write_slots:
            per_bank[bank] += 1
        self.writes_per_bank = tuple(per_bank)
