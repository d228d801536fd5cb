"""Reference implementations: the plain forms of the fast paths.

Each function here is what a hot path in ``src/repro`` was before it
was made fast, kept as the definition that path must equal exactly.
They go through the public calls of the classes they drive, one
committed block at a time, and are run only by tests.

* :func:`interpret_interval` — the live fast-forward as
  ``Interpreter.execute_block`` -> ``Interpreter.commit`` -> column
  appends (``SampledRun._interpret``).
* :func:`eager_block` — one committed block of the shadow warm-up with
  every cache line touched on the spot (``ShadowUarch.warm``).
"""

from repro.isa.opcodes import BRANCH_KINDS
from repro.isa.program import BLOCK_STRIDE, HALT_ADDR
from repro.mem.cache import LineState
from repro.predictor.exits import GLOBAL_HISTORY_EXITS, push_history
from repro.predictor.targets import BranchKind
from repro.sample.trace import FFInterval
from repro.tflex import interleave


def interpret_interval(interp, addr: int, n_blocks: int) -> FFInterval:
    """Execute up to ``n_blocks`` blocks from ``addr`` on ``interp``,
    committing each through ``Interpreter.commit``, into a new
    interval's columns."""
    block_at = interp.program.block_at
    interval = FFInterval(addr)
    start_regs = list(interp.regs)
    for __ in range(n_blocks):
        outcome = interp.execute_block(block_at(addr))
        interp.commit(outcome)
        interval.addrs.append(addr)
        interval.exits.append(outcome.exit_id)
        interval.branch_ops.append(BRANCH_KINDS.index(outcome.branch_op))
        interval.insts.append(outcome.insts_fired)
        interval.loads.append(outcome.loads)
        interval.load_addrs.extend(outcome.load_addrs)
        interval.load_ends.append(len(interval.load_addrs))
        for __lsq, saddr, size, value, fp in outcome.stores:
            interval.add_store(saddr, size, value, fp)
        interval.store_ends.append(len(interval.store_addrs))
        addr = outcome.next_addr
        interval.nexts.append(addr)
        if addr == HALT_ADDR:
            interval.finished = True
            break
    interval.set_regs(start_regs, interp.regs)
    return interval


def eager_block(shadow, ghist, addr, size, exit_id, next_addr, op,
                loads, stores):
    """One committed block, every cache line touched immediately,
    through the public ``CacheBank``/``L2System`` calls; returns the
    global exit history after it."""
    ctx, l2, line = shadow.ctx, shadow.l2, shadow.line_size
    ncores = shadow.ncores
    if shadow.speculative:
        owner = 0 if shadow.cfg.centralized_predictor \
            else (addr // BLOCK_STRIDE) % ncores
        ghist, __ = shadow.pred_banks[owner].observe_commit(
            addr, ghist, shadow.ras, exit_id, BranchKind.of_opcode(op),
            next_addr)
    else:
        ghist = push_history(ghist, exit_id, GLOBAL_HISTORY_EXITS)

    for core in range(ncores):
        chunk = len(range(core, size, ncores))      # instructions i = core mod N
        if not chunk:
            continue
        icache = shadow.icaches[core]
        for n in range(max(1, -(-chunk * 4 // line))):
            la = icache.line_addr(addr + n * line)
            if not icache.access(ctx, la):
                l2.warm_read(ctx, la, core)
                icache.fill(ctx, la, LineState.SHARED)

    def bank_of(data_addr):
        b = interleave.dbank_of(data_addr, line, shadow.num_dbanks)
        return shadow.dcaches[b], interleave.dbank_core_index(
            b, ncores, shadow.num_dbanks)

    for laddr in loads:
        dcache, core = bank_of(laddr)
        if not dcache.access(ctx, laddr):
            l2.warm_read(ctx, dcache.line_addr(laddr), core)
            victim = dcache.fill(ctx, laddr, LineState.SHARED)
            if victim is not None:
                l2.l1_evicted(victim.ctx, victim.line_addr, core)
    for saddr in stores:
        dcache, core = bank_of(saddr)
        present = dcache.probe(ctx, saddr)
        if present is not None and present.state is LineState.MODIFIED:
            dcache.access(ctx, saddr, write=True)
            continue
        l2.warm_write(ctx, dcache.line_addr(saddr), core)
        victim = dcache.fill(ctx, saddr, LineState.MODIFIED)
        if victim is not None:
            l2.l1_evicted(victim.ctx, victim.line_addr, core)
    return ghist
