"""Golden-model interpreter for EDGE programs.

Executes programs block-atomically and sequentially — the architectural
semantics the distributed TFlex microarchitecture must preserve.  The
cycle-level simulator is validated against this model: after any run,
registers, memory, and the dynamic block path must match.

Within a block, instructions fire in dataflow order.  Memory operations
respect LSQ sequence numbers: a load may fire only once every older
store slot in the block has *resolved* (a store or NULL token fired for
it), and it forwards from the youngest older matching in-block store.
Stores take architectural effect at block commit, in LSQ order.

The interpreter also enforces the dynamic half of the block contract:
exactly one branch fires, every declared write and store slot resolves,
and no slot resolves twice.  Violations raise :class:`InterpError` —
they indicate compiler or builder bugs.

A block is compiled once per :class:`~repro.isa.program.Program` into a
:class:`PreparedBlock` of functional instruction records (the timing
model's ``tflex/decode.InstRecord`` copies them and adds placement), and
a re-executed block is *refreshed*, not re-scheduled.  Which
instructions fire, in which order, and every structural contract check
are a function of the static block and of the truth value of each value
delivered to a predicate slot — of nothing else.  The dataflow loop
(:meth:`Interpreter._dataflow`) is therefore the definition and the
learner: an execution that passes its checks leaves its fire order in
the block's path tree as a :class:`_Segment`, and the second execution
to enter a segment compiles it (:func:`_compile`) into one straight-line
Python function — no ready stack, no need counters, no per-delivery
checks, and no operand coercion where the producer's result type is
known — that returns at the first predicate whose truth disagrees with
the learnt one.  :meth:`Interpreter.execute_block` chains those
functions, returning to the dataflow loop, from scratch, only at a
predicate outcome it has not seen at that point.  What depends on values
stays dynamic and is shared by both: addresses, in-block store
forwarding and its overlap/type errors (:meth:`Interpreter._load`).
This is what makes the interpreter usable as the fast-forward engine for
sampled simulation (``repro.sample``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from repro.isa.block import Block
from repro.isa.instruction import OperandSlot, Target, TargetKind
from repro.isa.opcodes import (
    ALU_GLOBALS, OpClass, alu_source, bind_evaluator, memory_size)
from repro.isa.program import HALT_ADDR, Program
from repro.mem.flatmem import PAGE_MASK, PAGE_SIZE, FlatMemory


class InterpError(Exception):
    """Dynamic violation of the block-atomic execution contract."""


class _NullToken:
    """Dataflow token that nullifies a block output."""

    def __repr__(self) -> str:
        return "NULL"


NULL_TOKEN = _NullToken()

#: Sentinel for an operand slot no value has been delivered to.  Distinct
#: from NULL_TOKEN (a real dataflow value) and from None (never used as a
#: dataflow value, but cheap to confuse with one).
_MISSING = object()

#: Handler kinds of a functional instruction record (plain ints: the
#: execution loops switch on these).  ALU is any value-producing opcode.
ALU, LOAD, STORE, BRANCH, NULL = range(5)
_KINDS = {OpClass.LOAD: LOAD, OpClass.STORE: STORE,
          OpClass.BRANCH: BRANCH, OpClass.NULL: NULL}
#: Path tails learnt per static block before learning stops (a block
#: with more live predicate paths keeps using the dataflow loop for the
#: ones it never memoised).
MAX_PATH_TAILS = 64

#: What the filename of every compiled segment starts with (profilers
#: and ``benchmarks/opcount.py`` pool the segments by it).
PATH_FILENAME_PREFIX = "<block path"

#: (size, fp) of a memory access -> reader ``f(page, offset)[0]`` of a
#: value resident in one page: B/H/W zero-extend, D is signed, F a double
#: (what ``FlatMemory.load`` returns for the same bytes).
_UNPACK = {key: struct.Struct(fmt).unpack_from for key, fmt in {
    (1, False): "<B", (2, False): "<H", (4, False): "<I",
    (8, False): "<q", (8, True): "<d"}.items()}


@dataclass
class BlockOutcome:
    """Architectural effects of one dynamic block execution."""

    label: str
    exit_id: int
    next_addr: int
    insts_fired: int
    writes: dict[int, object] = field(default_factory=dict)   # reg -> value
    stores: list[tuple[int, int, int, object, bool]] = field(default_factory=list)
    loads: int = 0
    branch_op: str = ""      # opcode name of the fired exit branch
    #: Addresses of the loads memory served (in-block forwards excluded),
    #: in fire order — what a D-cache would have seen.
    load_addrs: list[int] = field(default_factory=list)


@dataclass
class InterpResult:
    """Summary of a program run.

    ``halted`` is True only when the program reached HALT; a run stopped
    by the ``max_blocks`` budget instead comes back with ``truncated``
    set, so callers comparing against the golden model can fail loudly
    rather than silently diffing a partial execution.
    """

    blocks_executed: int
    insts_fired: int
    loads: int = 0
    stores: int = 0
    halted: bool = False
    truncated: bool = False
    path: Optional[list[tuple[str, int, int]]] = None   # (label, exit_id, next_addr)


class _PInst:
    """The functional record of one static instruction: everything about
    it that does not depend on where it is placed.

    ``need`` counts the tokens that must arrive (operands plus
    predicate) and ``pred`` is the predicate value that lets it fire;
    ``evalf(a, b)`` is the bound evaluator of ``op`` and the resolved
    immediate ``imm`` (ALU kinds; path compilation re-reads both);
    ``size``/``fp``/``offset`` describe a memory access, ``unpack`` reads
    one from a resident page, and ``older`` is the bit mask of the store
    slots a load must see resolved; ``next_addr`` is a branch's static
    successor (``None``: RET takes it from operand 0).
    """

    __slots__ = ("iid", "kind", "need", "pred", "targets", "op", "imm",
                 "evalf", "lsq_id", "older", "size", "fp", "offset", "unpack",
                 "exit_id", "next_addr", "null_store")

    def __init__(self, inst, program: Program, block: Block) -> None:
        op = inst.op
        self.iid = inst.iid
        self.kind = kind = _KINDS.get(op.opclass, ALU)
        self.need = op.operands + (inst.pred is not None)
        self.pred = inst.pred
        self.targets = _encode_targets(inst.targets, len(block.insts) << 2)
        self.lsq_id = inst.lsq_id
        self.exit_id = inst.exit_id
        self.null_store = inst.null_store
        self.op = op
        self.imm = self.evalf = self.unpack = self.next_addr = None
        self.size = self.offset = self.older = 0
        self.fp = False
        if kind == ALU:
            self.imm = program.resolve_imm(inst.imm)
            self.evalf = bind_evaluator(op, self.imm)
        elif kind == LOAD or kind == STORE:
            self.size = memory_size(op)
            self.fp = op.name.endswith("F")
            self.offset = int(inst.imm or 0)
            self.unpack = _UNPACK[self.size, self.fp]
            if kind == LOAD:
                self.older = sum(1 << s for s in block.store_ids
                                 if s < inst.lsq_id)
        elif kind == BRANCH and op.name != "RET":
            self.next_addr = (HALT_ADDR if op.name == "HALT"
                              else program.address_of(inst.branch_target))


def _encode_targets(targets: tuple[Target, ...], write_base: int) -> tuple:
    """Dataflow targets as indices into a block's operand buffer.

    An instruction target is ``(iid << 2) | slot`` (OperandSlot is an
    IntEnum: PRED=0, OP0=1, OP1=2); register-write queue slot ``w`` is
    ``write_base + w``, past the last instruction.
    """
    return tuple(write_base + t.index if t.kind is TargetKind.WRITE
                 else (t.index << 2) | t.slot for t in targets)


class _Guard:
    """What a learnt path knows about one value delivered to a predicate
    slot: ``falsy``, whether it was false on that path; ``depth``, the
    producing step's position from the root; ``tail``, the segment to
    continue with when its truth is the opposite (``None`` until that
    branch has been executed)."""

    __slots__ = ("falsy", "depth", "tail")

    def __init__(self, falsy: bool, depth: int) -> None:
        self.falsy = falsy
        self.depth = depth
        self.tail: Optional[_Segment] = None


class _Segment:
    """One learnt stretch of a block's fire order, from step ``start``
    (positions count from the root, register reads first) to the block's
    end: ``order`` holds the instructions it fires and ``guards`` one
    entry per step, a :class:`_Guard` where the step feeds a predicate
    slot.  ``branch``/``fired``/``loads`` are the outcome facts of the
    whole root-to-end path, all static.  ``run`` is the compiled form
    (:func:`_compile`), built when the walk first enters the segment —
    the path's second execution, so a path run once costs nothing."""

    __slots__ = ("start", "order", "guards", "branch", "fired", "loads",
                 "run")

    def __init__(self, start: int, order: list, guards: list, branch: _PInst,
                 fired: int, loads: int) -> None:
        self.start = start
        self.order = order
        self.guards = guards
        self.branch = branch
        self.fired = fired
        self.loads = loads
        self.run = None


class PreparedBlock:
    """One static block compiled for functional execution.

    Everything derivable from the block — the instruction records, the
    seed set, read and write slots as operand-buffer indices — plus what
    executions have taught: ``path`` is the root :class:`_Segment` of
    the path tree (``None`` until the first execution), ``tails`` the
    number of segments learnt.  ``buf`` is the compiled paths' operand
    buffer; it is never reset, because every slot a fired instruction
    reads was written earlier on the same path.
    """

    __slots__ = ("block", "label", "n4", "nslots", "insts", "needs", "seeds",
                 "reads", "writes", "store_ids", "buf", "path", "tails")

    def __init__(self, block: Block, program: Program) -> None:
        self.block = block
        self.label = block.label
        self.n4 = n4 = len(block.insts) << 2
        # Operand slots, then write slots.
        self.nslots = n4 + len(block.writes)
        self.insts = [_PInst(inst, program, block) for inst in block.insts]
        self.needs = [pi.need for pi in self.insts]
        self.seeds = tuple(pi.iid for pi in self.insts if not pi.need)
        self.reads = tuple((read.reg, _encode_targets(read.targets, n4))
                           for read in block.reads)
        self.writes = tuple((n4 + w.index, w.reg) for w in block.writes)
        self.store_ids = block.store_ids
        self.buf = [None] * self.nslots
        self.path: Optional[_Segment] = None
        self.tails = 0


def prepare_block(program: Program, block: Block) -> PreparedBlock:
    """The prepared form of ``block``, compiled on first use and cached
    on ``program`` (shared by every interpreter and timing model of it)."""
    pb = program._prepared.get(block.label)
    if pb is None or pb.block is not block:
        pb = program._prepared[block.label] = PreparedBlock(block, program)
    return pb


def _outcome(pb: PreparedBlock, buf: list, branch: _PInst, next_addr: int,
             block_stores: dict, fired: int, loads: int,
             load_addrs: list) -> BlockOutcome:
    writes = {}
    for slot, reg in pb.writes:
        value = buf[slot]
        if value is not NULL_TOKEN:
            writes[reg] = value
    stores = [(lsq_id, *store)
              for lsq_id, store in sorted(block_stores.items())]
    return BlockOutcome(pb.label, branch.exit_id, next_addr, fired, writes,
                        stores, loads, branch.op.name, load_addrs)


def _compile(pb: PreparedBlock, seg: _Segment):
    """Generate ``seg.run``: the segment's steps as one straight-line
    function ``run(interp, buf, block_stores, load_addrs)`` returning the
    :class:`_Guard` of the first predicate whose truth disagrees with
    the learnt one, or ``None`` past the last step.

    Every ALU expression is the opcode's ``isa.opcodes`` table row with
    the operand texts written in.  A value produced in this segment lives
    in a local; its static type (the row's result type) lets a consumer
    drop the row's coercion, and it is stored to ``buf`` only where a
    later segment may read it — a write slot, or an operand whose
    consumer does not fire here before the next guard.  Anything else (a
    register read, NULL, a load that an in-block store may forward to —
    a forwarded value has the store's type — and every slot written
    before the segment began) is read with its coercion.
    """
    n4 = pb.n4
    nreads = len(pb.reads)
    fired = [pb.insts[iid] for iid in seg.order]
    steps = [(None, *read) for read in pb.reads[seg.start:]]
    steps += [(pi, None, pi.targets) for pi in fired]
    #: Step position of each instruction fired here; guards before each.
    fires = {pi.iid: pos for pos, (pi, __, __) in enumerate(steps)
             if pi is not None}
    exits = list(accumulate((g is not None for g in seg.guards), initial=0))
    env = dict(ALU_GLOBALS, NULL=NULL_TOKEN, label=pb.label)
    names: dict[int, str] = {}      # slot -> the local holding its value
    types: dict[int, type] = {}     # slot -> int / float where known
    lines = []

    def operand(enc: int, want) -> str:
        text = names.get(enc) or f"buf[{enc}]"
        if want is None or types.get(enc) is want:
            return text
        return f"{want.__name__}({text})"

    for pos, ((pi, reg, targets), guard) in enumerate(zip(steps, seg.guards)):
        value = f"v{pos}"
        result = None
        if pi is None:
            lines.append(f"{value} = regs[{reg}]")
        elif pi.kind == ALU:
            op = pi.op
            base = pi.iid << 2
            coerce, result, expr = alu_source(op)
            y = ""
            if op.has_imm:
                imm = coerce(pi.imm) if coerce else pi.imm
                if type(imm) in (int, float):
                    y = f"({imm!r})"
                else:
                    y = f"c{pos}"
                    env[y] = imm
            elif op.operands > 1:
                y = operand(base + 2, coerce)
            if result is None:          # a move: the type of what it moves
                result = type(imm) if op.has_imm else types.get(base + 1)
            x = operand(base + 1, coerce) if op.operands else ""
            text = expr.format(x=x, y=y)
            if text.isidentifier() or text == y:
                value = text            # a moved local or immediate: alias
            else:
                lines.append(f"{value} = {text}")
        elif pi.kind == LOAD:
            env[f"p{pos}"] = pi
            env[f"u{pos}"] = pi.unpack
            offset = f" + {pi.offset}" if pi.offset else ""
            # In place when the page is resident and holds all of it;
            # forwarding, overlap errors, an absent page (a negative
            # address has none) and a straddle are ``Interpreter._load``'s.
            lines += (
                f"a = {operand((pi.iid << 2) + 1, int)}{offset}",
                "page = pages.get(a >> 12)",
                f"if {'block_stores or ' if pi.older else ''}page is None "
                f"or a & {PAGE_MASK} > {PAGE_SIZE - pi.size}:",
                f"    {value} = load(label, p{pos}, a, block_stores,"
                " load_addrs)",
                "else:",
                "    load_addrs.append(a)",
                f"    {value} = u{pos}(page, a & {PAGE_MASK})[0]")
            if not pi.older:            # nothing in the block can forward
                result = float if pi.fp else int
        elif pi.kind == STORE:
            base = pi.iid << 2
            offset = f" + {pi.offset}" if pi.offset else ""
            lines.append(
                f"block_stores[{pi.lsq_id}] = "
                f"({operand(base + 1, int)}{offset}, {pi.size}, "
                f"{operand(base + 2, None)}, {pi.fp})")
            continue
        elif pi.kind == BRANCH:
            if pi.next_addr is None:    # RET: leave the address in its slot
                slot = (pi.iid << 2) + 1
                lines.append(f"buf[{slot}] = {operand(slot, int)}")
            continue
        else:
            lines.append(f"{value} = NULL")
        stores = []
        for enc in targets:
            if enc < n4:
                if not enc & 3:         # a predicate: the guard tests it
                    continue
                names[enc] = value
                types[enc] = result
                use = fires.get(enc >> 2)
                if use is not None and exits[use] == exits[pos]:
                    continue            # consumed before any exit
            stores.append(f"buf[{enc}]")
        if stores:
            lines.append(" = ".join(stores + [value]))
        if guard is not None:
            env[f"g{pos}"] = guard
            lines.append(f"if {'' if guard.falsy else 'not '}{value}: "
                         f"return g{pos}")

    source = ["def run(self, buf, block_stores, load_addrs):"]
    if seg.start < nreads:
        source.append("regs = self.regs")
    if any(pi.kind == LOAD for pi in fired):
        source += "pages = self.mem._pages", "load = self._load"
    source += lines
    source.append("return None")
    filename = f"{PATH_FILENAME_PREFIX} {pb.label}+{seg.start}>"
    exec(compile("\n    ".join(source), filename, "exec"), env)
    seg.run = env["run"]
    return seg.run


class Interpreter:
    """Sequential block-atomic executor (the golden model)."""

    def __init__(self, program: Program, memory: Optional[FlatMemory] = None,
                 validate: bool = True) -> None:
        if validate:
            program.validate()
        self.program = program
        self.mem = memory if memory is not None else FlatMemory()
        self.mem.load_image(program.data)
        self.regs: list = [0] * 128
        for reg, value in program.reg_init.items():
            self.regs[reg] = value

    # ------------------------------------------------------------------
    # Whole-program execution
    # ------------------------------------------------------------------

    def run(self, max_blocks: int = 1_000_000, record_path: bool = False) -> InterpResult:
        """Execute from the entry block until HALT or the block budget.

        Exhausting ``max_blocks`` does not raise: the returned result has
        ``truncated=True`` (and ``halted=False``) so differential and
        oracle harnesses can reject the partial run explicitly.
        """
        result = InterpResult(blocks_executed=0, insts_fired=0,
                              path=[] if record_path else None)
        addr = self.program.address_of(self.program.entry)
        while addr != HALT_ADDR:
            if result.blocks_executed >= max_blocks:
                result.truncated = True
                return result
            block = self.program.block_at(addr)
            outcome = self.execute_block(block)
            self.commit(outcome)
            result.blocks_executed += 1
            result.insts_fired += outcome.insts_fired
            result.loads += outcome.loads
            result.stores += len(outcome.stores)
            if result.path is not None:
                result.path.append((block.label, outcome.exit_id, outcome.next_addr))
            addr = outcome.next_addr
        result.halted = True
        return result

    def commit(self, outcome: BlockOutcome) -> None:
        """Apply one block's architectural effects (writes, then stores
        in LSQ order) — the functional analogue of the commit phase."""
        for reg, value in outcome.writes.items():
            self.regs[reg] = value
        for __lsq_id, addr, size, value, fp in outcome.stores:
            self.mem.store(addr, size, value, fp=fp)

    # ------------------------------------------------------------------
    # Single-block execution
    # ------------------------------------------------------------------

    def prepare(self, block: Block) -> PreparedBlock:
        """The cached prepared form of ``block`` (built on first use)."""
        return prepare_block(self.program, block)

    def execute_block(self, block: Block) -> BlockOutcome:
        """Run one block to completion against current architectural state.

        Architectural state is *not* modified; the caller commits the
        returned outcome (mirroring the microarchitecture, where commit
        is a separate protocol phase).

        Chains the compiled segments of the block's path tree; at a
        predicate outcome no earlier execution took from that point (or
        on the first execution) the dataflow loop runs the block from
        scratch — nothing here has side effects — and teaches the tree
        that path.
        """
        pb = prepare_block(self.program, block)
        seg = pb.path
        if seg is None:
            return self._dataflow(pb, None)
        buf = pb.buf
        block_stores: dict[int, tuple[int, int, object, bool]] = {}
        load_addrs: list[int] = []
        while True:
            guard = (seg.run or _compile(pb, seg))(
                self, buf, block_stores, load_addrs)
            if guard is None:
                branch = seg.branch
                next_addr = branch.next_addr
                if next_addr is None:               # RET
                    next_addr = buf[(branch.iid << 2) + 1]
                return _outcome(pb, buf, branch, next_addr, block_stores,
                                seg.fired, seg.loads, load_addrs)
            seg = guard.tail
            if seg is None:
                return self._dataflow(pb, guard)

    def _dataflow(self, pb: PreparedBlock,
                  guard: Optional[_Guard]) -> BlockOutcome:
        """Execute ``pb`` in dataflow order — the definition of block
        execution and the only place contract violations are detected —
        then graft the fire order into the path tree at ``guard`` (the
        step the compiled walk fell off at; ``None``: the root)."""
        insts = pb.insts
        label = pb.label
        n4 = pb.n4
        # Per-execution state: the operand buffer (4 slots per
        # instruction indexed by the encoded target, then the write
        # slots), outstanding delivery counts, fired (1) / squashed (2)
        # marks and the resolved-LSQ-slot bit mask.
        buf = [_MISSING] * pb.nslots
        remaining = pb.needs.copy()
        done = bytearray(len(insts))
        resolved = 0
        ready: list[int] = []
        waiting: list[int] = []      # loads blocked on an older store slot
        order: list[int] = []        # fire order
        block_stores: dict[int, tuple[int, int, object, bool]] = {}
        load_addrs: list[int] = []
        loads = 0
        branch: Optional[_PInst] = None
        next_addr: Optional[int] = None

        def deliver(value, targets) -> None:
            for enc in targets:
                if buf[enc] is not _MISSING:
                    if enc >= n4:
                        raise InterpError(
                            f"{label}: write slot {enc - n4} produced twice")
                    raise InterpError(
                        f"{label}: I{enc >> 2} operand "
                        f"{OperandSlot(enc & 3).name} delivered twice")
                buf[enc] = value
                if enc >= n4:
                    continue
                tid = enc >> 2
                remaining[tid] -= 1
                if done[tid]:
                    continue
                ti = insts[tid]
                if ti.pred is not None:
                    pv = buf[tid << 2]
                    if pv is _MISSING:
                        continue
                    if bool(pv) != ti.pred:
                        done[tid] = 2
                        continue
                if remaining[tid]:
                    continue
                (waiting if ti.older & ~resolved else ready).append(tid)

        def resolve(lsq_id: int) -> None:
            nonlocal resolved
            if resolved >> lsq_id & 1:
                raise InterpError(f"{label}: LSQ slot {lsq_id} resolved twice")
            resolved |= 1 << lsq_id
            blocked = []
            for lid in waiting:
                (blocked if insts[lid].older & ~resolved
                 else ready).append(lid)
            waiting[:] = blocked

        for reg, targets in pb.reads:
            deliver(self.regs[reg], targets)
        ready.extend(pb.seeds)
        while ready:
            iid = ready.pop()
            done[iid] = 1
            order.append(iid)
            pi = insts[iid]
            kind = pi.kind
            base = iid << 2
            if kind == ALU:
                value = pi.evalf(buf[base + 1], buf[base + 2])
            elif kind == BRANCH:
                if branch is not None:
                    raise InterpError(
                        f"{label}: second branch I{iid} fired "
                        f"(first was I{branch.iid})")
                branch = pi
                next_addr = pi.next_addr
                if next_addr is None:               # RET
                    next_addr = int(buf[base + 1])
                continue
            elif kind == STORE:
                block_stores[pi.lsq_id] = (int(buf[base + 1]) + pi.offset,
                                           pi.size, buf[base + 2], pi.fp)
                resolve(pi.lsq_id)
                continue
            elif kind == LOAD:
                value = self._load(label, pi, int(buf[base + 1]) + pi.offset,
                                   block_stores, load_addrs)
                loads += 1
            else:                                   # NULL
                if pi.null_store:
                    resolve(pi.lsq_id)
                value = NULL_TOKEN
            deliver(value, pi.targets)

        if branch is None:
            raise InterpError(f"{label}: dataflow quiesced without a branch firing")
        missing_writes = [slot - n4 for slot, __ in pb.writes
                          if buf[slot] is _MISSING]
        if missing_writes:
            raise InterpError(f"{label}: write slots {missing_writes} never resolved")
        missing_stores = [s for s in sorted(pb.store_ids)
                          if not resolved >> s & 1]
        if missing_stores:
            raise InterpError(f"{label}: store slots {missing_stores} never resolved")

        if pb.tails < MAX_PATH_TAILS:
            # Steps from the root are the reads, then ``order``; only
            # the part past ``guard`` is new.  A step's guard records
            # the truth of what it delivered to a predicate slot.
            nreads = len(pb.reads)
            start = 0 if guard is None else guard.depth + 1
            guards = []
            for depth in range(start, nreads + len(order)):
                targets = (pb.reads[depth][1] if depth < nreads
                           else insts[order[depth - nreads]].targets)
                fed = [enc for enc in targets if enc < n4 and not enc & 3]
                guards.append(_Guard(not buf[fed[0]], depth) if fed else None)
            seg = _Segment(start, order[max(start - nreads, 0):], guards,
                           branch, len(order), loads)
            if guard is None:
                pb.path = seg
            else:
                guard.tail = seg
            pb.tails += 1
        return _outcome(pb, buf, branch, next_addr, block_stores, len(order),
                        loads, load_addrs)

    def _load(self, label: str, pi: _PInst, addr: int, block_stores: dict,
              load_addrs: list) -> object:
        """The value of one load: forwarded from the youngest older
        matching in-block store, else read from memory (and logged)."""
        size = pi.size
        fp = pi.fp
        if block_stores:
            lsq_id = pi.lsq_id
            best = -1
            for sid, (saddr, ssize, __, __) in block_stores.items():
                if sid >= lsq_id:
                    continue
                if saddr == addr and ssize == size:
                    best = max(best, sid)
                elif saddr < addr + size and addr < saddr + ssize:
                    raise InterpError(
                        f"{label}: load lsq {lsq_id} partially overlaps store lsq {sid} "
                        f"({addr:#x}/{size} vs {saddr:#x}/{ssize})")
            if best >= 0:
                __, __, value, sfp = block_stores[best]
                if sfp != fp:
                    raise InterpError(
                        f"{label}: load lsq {lsq_id} forwards across int/fp type change")
                return value
        load_addrs.append(addr)
        # Resident in one page: read in place; an untouched page, a
        # straddle or a bad address is ``FlatMemory.load``'s.
        offset = addr & PAGE_MASK
        page = self.mem._pages.get(addr >> 12)
        if page is None or offset + size > PAGE_SIZE:
            return self.mem.load(addr, size, fp=fp)
        return pi.unpack(page, offset)[0]
