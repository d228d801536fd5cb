"""Lightweight shadow microarchitecture warmed during fast-forward.

While the interpreter fast-forwards between detailed windows, the
long-lived microarchitectural structures — predictor tables, RAS,
I-caches, D-cache banks, and the shared L2 — must keep learning, or
every window would start from a cold machine and bias the sampled IPC
low.  :class:`ShadowUarch` is a functional twin of those structures: it
reuses the *same* classes the cycle simulator uses (``PredictorBank``,
``CacheBank``, ``L2System``) and the same interleaving hash functions
(:mod:`repro.tflex.interleave`), driven with the committed blocks of one
fast-forward interval at a time (:meth:`ShadowUarch.warm`), in program
order, ignoring all timing results — and skipping the loop iterations
that would leave a private structure exactly as they found it.

State moves between the shadow and a real :class:`TFlexSystem` by the
one transfer every warm structure derives from its ``WARM`` field list
(:mod:`repro.warm`): an O(1) ``swap_state`` per part, paired by
``SampledRun._swap_state`` once per window each way.  The shadow has no
transfer of its own.  The L2 directory is rebuilt from L1 contents on
every transfer (the directory's invariant is "entry == some L1 holds
the line", so it is derived state).

Fidelity notes: the shadow trains the predictor strictly in commit
order, so wrong-path pollution from deep speculation is not modelled;
caches track presence/MSI only (as in the simulator), so this warms
*timing* state and cannot perturb architectural results.
"""

from __future__ import annotations

from repro.isa.opcodes import BRANCH_KINDS
from repro.isa.program import BLOCK_STRIDE
from repro.mem.cache import CacheBank, LineState
from repro.mem.dram import Dram
from repro.mem.l2 import L2System
from repro.noc import Topology
from repro.predictor import DistributedRas, PredictorBank
from repro.predictor.exits import GLOBAL_HISTORY_EXITS, push_history
from repro.predictor.targets import BranchKind
from repro.tflex import interleave
from repro.tflex.config import SystemConfig

#: ``FFInterval.branch_ops`` entry -> the predictor's branch kind.
_KIND_OF = tuple(BranchKind.of_opcode(name) for name in BRANCH_KINDS)

#: Longest loop period, in blocks, a warm-up pass looks for a fixed
#: point in (:func:`_skip_fixed_points`); conv's loop is 9 blocks.
MAX_LOOP_PERIOD = 64


def _repeats(columns, start: int, length: int, p: int) -> bool:
    """Do blocks ``start .. start+length-1`` equal the blocks ``p``
    before them in every column?  (Shifted slices compare in C.)"""
    return all(column[start:start + length]
               == column[start - p:start - p + length] for column in columns)


def _line_runs(reads: list) -> list:
    """``[(ctx, line, core), ...]`` L2 reads as ``[(ctx, line, cores),
    ...]``, one entry per run of reads of one line."""
    runs: list = []
    for ctx, line, core in reads:
        if runs and runs[-1][:2] == (ctx, line):
            runs[-1][2].append(core)
        else:
            runs.append((ctx, line, [core]))
    return runs


def _skip_fixed_points(columns, run, state, skip) -> int:
    """Drive one private warm-up pass over an interval, skipping the
    loop periods that cannot change it; returns the blocks skipped.

    ``run(i, j)`` applies blocks ``i .. j-1`` to the pass's structure;
    ``state(i, j)`` is a comparable snapshot of everything blocks
    ``i .. j-1`` read or write there.  The period at block ``i`` is the
    distance ``p`` back to the previous occurrence of its address
    (``columns[0]``).  When the next ``p`` blocks repeat the last ``p``
    in every column, they run as one period between two snapshots.  A
    period that leaves the structure as it found it is a fixed point of
    a deterministic step: each further period that repeats it would
    again read the same state and leave it unchanged, so those are
    skipped — ``skip(i, p, k)`` is told of the ``k`` periods from block
    ``i`` — and the pass resumes after them.
    """
    addrs = columns[0]
    n = len(addrs)
    last: dict[int, int] = {}
    start = i = skipped = 0
    while i < n:
        p = i - last.get(addrs[i], i)
        if 0 < p <= MAX_LOOP_PERIOD and i + p <= n \
                and _repeats(columns, i, p, p):
            run(start, i)
            before = state(i, i + p)
            run(i, i + p)
            i += p
            if state(i - p, i) == before:
                # Gallop over the periods that repeat this one.
                k, step = 0, 1
                while step:
                    at = i + k * p
                    if at + step * p <= n \
                            and _repeats(columns, at, step * p, p):
                        k += step
                        step *= 2
                    else:
                        step //= 2
                if k:
                    skip(i, p, k)
                    i += k * p
                    skipped += k * p
            for j in range(i - p, i):
                last[addrs[j]] = j
            start = i
        else:
            last[addrs[i]] = i
            i += 1
    run(start, n)
    return skipped


def rebuild_directory(l2: L2System, l1_by_core: dict) -> None:
    """Derive the L2 directory from L1 contents after a state transfer.

    ``l1_by_core`` maps a core ID (global for the real system,
    participating index for the shadow) to the L1 banks resident on
    that core.  A MODIFIED line makes the core its owner; anything else
    a sharer — exactly the invariant the live protocol maintains.
    """
    l2.directory.clear()
    for core_id, banks in l1_by_core.items():
        for bank in banks:
            for line in bank.iter_lines():
                entry = l2._dir_entry(line.ctx, line.line_addr)
                if line.state is LineState.MODIFIED:
                    entry.owner = core_id
                else:
                    entry.sharers.add(core_id)


class ShadowUarch:
    """Functional twins of a composition's warm structures.

    Everything is indexed by *participating core index* (0..ncores-1);
    the engine maps to global core IDs when moving state to/from a real
    system.
    """

    def __init__(self, cfg: SystemConfig, ncores: int, ctx: int = 0) -> None:
        self.cfg = cfg
        self.ncores = ncores
        self.ctx = ctx
        self.line_size = cfg.line_size
        core = cfg.core

        max_inflight = cfg.max_inflight if cfg.max_inflight is not None else ncores
        self.speculative = max(1, max_inflight) > 1

        num_pred = 1 if cfg.centralized_predictor else ncores
        self.pred_banks = [
            PredictorBank(
                local_l1=core.local_l1, local_l2=core.local_l2,
                global_entries=core.global_entries,
                choice_entries=core.choice_entries,
                btype_entries=core.btype_entries, btb_entries=core.btb_entries,
                ctb_entries=core.ctb_entries, latency=core.predictor_latency)
            for __ in range(num_pred)
        ]
        self.ras = DistributedRas(num_pred, core.ras_entries)

        self.icaches = [
            CacheBank(core.icache_bytes, core.icache_assoc, cfg.line_size,
                      name=f"shadow.i{i}")
            for i in range(ncores)
        ]
        self.num_dbanks = interleave.num_dbanks_of(ncores, cfg.dcache_banks)
        self.dcaches = [
            CacheBank(core.dcache_bytes, core.dcache_assoc, cfg.line_size,
                      name=f"shadow.d{b}")
            for b in range(self.num_dbanks)
        ]
        self._dbank_core = [
            interleave.dbank_core_index(b, ncores, self.num_dbanks)
            for b in range(self.num_dbanks)
        ]
        dmap = {core_index: self.dcaches[b]
                for b, core_index in enumerate(self._dbank_core)}
        # ``warm`` runs the I-caches ahead of the D-caches and replays
        # their L2 reads afterwards: exact only while the L2 (recalls,
        # write invalidations) can never reach an I-cache.
        assert not any(bank in self.icaches for bank in dmap.values())
        self.l2 = L2System(
            Topology(cfg.mesh_width, cfg.mesh_height), num_banks=cfg.l2_banks,
            bank_bytes=cfg.l2_bank_bytes, assoc=cfg.l2_assoc,
            line_size=cfg.line_size, tag_latency=cfg.l2_tag_latency,
            l1_banks=dmap.get, dram=Dram())

        # Participating core index -> L1 banks there (directory rebuilds).
        self._l1_by_core: dict[int, list[CacheBank]] = {
            i: [self.icaches[i]] for i in range(ncores)}
        for b, core_index in enumerate(self._dbank_core):
            self._l1_by_core[core_index].append(self.dcaches[b])

        # Per (addr, size), a block's I-cache footprint resolved to set
        # objects; dropped by ``settle`` before every transfer.
        self._ic_touches: dict[tuple, tuple] = {}
        #: Blocks the last ``warm`` skipped at a loop fixed point:
        #: (predictor/RAS pass, I-cache pass).
        self.skipped = (0, 0)

    # ------------------------------------------------------------------
    # Warming
    # ------------------------------------------------------------------

    def warm(self, interval, ghist: int, block_at) -> int:
        """Warm all structures with one interval's committed blocks —
        the columns of a :class:`~repro.sample.trace.FFInterval`, live
        or replayed; ``block_at(addr).size`` sizes a block.  Returns the
        global exit history after the last block.

        Three passes over the columns, each in program order: the
        predictor and RAS (:meth:`_warm_predictor`), the I-caches
        (:meth:`_warm_icaches`), then the D-caches with the I-caches'
        L2 reads replayed in place (:meth:`_warm_dcaches`).  Splitting
        the per-block loop is exact because the three share nothing but
        the L2: no cache work reads or writes predictor state, and the
        I-caches are private — the L2's ``l1_banks`` maps D-cache banks
        only (asserted at construction), so recalls and write
        invalidations never reach them, and no I-cache decision reads
        an L2 result.  Replaying each block's I-cache L2 reads just
        before its D-cache work gives the L2 and the directory the call
        sequence of one per-block loop.

        The two private passes skip repeated loop periods once they are
        at a fixed point (:func:`_skip_fixed_points`; their counts land
        in :attr:`skipped`): on loop kernels the predictor, the RAS and
        the I-cache stacks settle within a few iterations, after which a
        period changes nothing but the L2 traffic it replays.
        """
        pred_skipped = 0
        if self.speculative:
            ghist, pred_skipped = self._warm_predictor(interval, ghist)
        else:
            for exit_id in interval.exits:
                ghist = push_history(ghist, exit_id, GLOBAL_HISTORY_EXITS)
        reads, icache_skipped = self._warm_icaches(interval.addrs, block_at)
        self._warm_dcaches(interval, reads)
        self.skipped = (pred_skipped, icache_skipped)
        return ghist

    def _warm_predictor(self, interval, ghist: int) -> tuple[int, int]:
        """The next-block predictor's fused commit-order step per block
        (``PredictorBank.observe_commit``: the table/RAS state of
        predict, repair-on-wrong-path, then train).  A loop period is a
        fixed point when no step in it changed a table entry or RAS
        slot value, and the global history and RAS top are what they
        were a period back.  Returns the history and the blocks
        skipped."""
        columns = (interval.addrs, interval.exits, interval.nexts,
                   interval.branch_ops)
        banks = self.pred_banks
        nbanks = len(banks)
        ras = self.ras
        changes = 0

        def run(i: int, j: int) -> None:
            nonlocal ghist, changes
            history, changed = ghist, changes
            for addr, exit_id, next_addr, op in zip(
                    *(column[i:j] for column in columns)):
                history, change = banks[
                    (addr // BLOCK_STRIDE) % nbanks].observe_commit(
                    addr, history, ras, exit_id, _KIND_OF[op], next_addr)
                changed += change
            ghist, changes = history, changed

        skipped = _skip_fixed_points(
            columns, run, lambda i, j: (ghist, ras._top, changes),
            lambda i, p, k: None)
        return ghist, skipped

    def _warm_icaches(self, addrs, block_at) -> tuple[dict, int]:
        """Fetch each block through the I-caches; each core's slice
        occupies its own lines keyed from the block base address (a
        per-core private footprint).  The L2 reads of the misses are
        recorded, not issued: returns ``{block index: [(ctx, line,
        cores), ...]}`` in block order (:func:`_line_runs`), and the
        blocks skipped.

        A hit is one hashed ``move_to_end`` on a set resolved once per
        transfer (:meth:`_icache_touches`), with no per-access stats —
        nothing reads shadow stats, and a swap moves only resident
        state.  A miss takes the exact protocol sequence
        ``CacheBank.access`` callers use.

        Every repeated loop period is a fixed point, so the pass needs
        no snapshot: a period is compared only after the same blocks ran
        once just before it, so it is the second run of one access
        sequence, and an LRU set after two runs of an access sequence
        equals the set after one (each line the sequence touches ends
        at its last-use rank, and the lines it does not touch keep
        their order below them).  A skipped period repeats the L2
        reads of the period before it.
        """
        sizes = {addr: block_at(addr).size for addr in dict.fromkeys(addrs)}
        reads: dict[int, list] = {}

        def run(i: int, j: int) -> None:
            for k in range(i, j):
                addr = addrs[k]
                fetched: list = []
                self._touch(addr, sizes[addr], fetched)
                if fetched:
                    reads[k] = _line_runs(fetched)

        def skip(i: int, p: int, k: int) -> None:
            period = [(at, reads[at]) for at in range(i - p, i) if at in reads]
            for shift in range(p, (k + 1) * p, p):
                for at, fetched in period:
                    reads[at + shift] = fetched

        return reads, _skip_fixed_points((addrs,), run,
                                         lambda i, j: None, skip)

    def _warm_dcaches(self, interval, reads: dict) -> None:
        """Walk the interval's D-cache op stream
        (``FFInterval.dcache_ops``): per block the lines of the loads
        that went to memory (LSQ forwards never get there), then its
        committed stores via the same probe/upgrade/allocate sequence
        as the commit drain.  The walk stops only before a block whose
        I-cache pass recorded L2 reads (``reads``), to issue them there.
        Each line's set, key, bank and bank core are resolved once per
        pass; a hit is a list index and one ``move_to_end``."""
        ctx = self.ctx
        l2 = self.l2
        warm_read = l2.warm_read
        warm_write = l2.warm_write
        l1_evicted = l2.l1_evicted
        directory = l2.directory
        modified = LineState.MODIFIED
        shared = LineState.SHARED
        lines, ops, ends = interval.dcache_ops(self.line_size)
        resolved = self._dlines(lines)

        def walk(start: int, stop: int) -> None:
            for op in ops[start:stop]:
                cache_set, key, dcache, bank_core = resolved[op]
                if op & 1:
                    line = cache_set.get(key)
                    if line is not None and line.state is modified:
                        cache_set.move_to_end(key)
                        continue
                    warm_write(ctx, key[1], bank_core)
                    victim = dcache.fill(ctx, key[1], modified)
                else:
                    try:
                        cache_set.move_to_end(key)
                        continue
                    except KeyError:
                        warm_read(ctx, key[1], bank_core)
                        victim = dcache.fill(ctx, key[1], shared)
                if victim is not None:
                    l1_evicted(victim.ctx, victim.line_addr, bank_core)

        start = 0
        for i in sorted(reads):
            stop = ends[i - 1] if i else 0
            walk(start, stop)
            start = stop
            for line_ctx, line_addr, cores in reads[i]:
                warm_read(line_ctx, line_addr, cores[0])
                if len(cores) > 1:
                    # The line is now the MRU of its L2 set, so the
                    # other cores' reads would only join the sharers —
                    # unless a core owns it (a store to code).
                    entry = directory[line_ctx, line_addr]
                    if entry.owner is None:
                        entry.sharers.update(cores)
                    else:
                        for core in cores[1:]:
                            warm_read(line_ctx, line_addr, core)
        walk(start, len(ops))

    def _dlines(self, lines) -> list:
        """Per op of a D-cache op stream over ``lines`` (line numbers),
        ``(set, key, bank, bank core)`` of its line: a load's and a
        store's of each line side by side.  Sets are stable objects
        between transfers."""
        ctx, size, nbanks = self.ctx, self.line_size, self.num_dbanks
        dcaches, cores = self.dcaches, self._dbank_core
        resolved: list = []
        for line in lines:
            addr = line * size
            b = interleave.dbank_of(addr, size, nbanks)
            dcache = dcaches[b]
            entry = dcache._set_of(addr), (ctx, addr), dcache, cores[b]
            resolved += (entry, entry)
        return resolved

    def _icache_touches(self, addr: int, size: int) -> tuple:
        """A block's I-cache lines in fetch order, each as ``(set, key,
        bank, L2 read)`` — the read being ``warm_read``'s ``(ctx, line,
        core index)``; kept until the next transfer moves the sets.
        Instruction ``i`` is fetched by core ``i mod N``, and each core's
        slice occupies its own lines keyed from the block base address."""
        memo = self._ic_touches.get((addr, size))
        if memo is None:
            ncores = self.ncores
            line = self.line_size
            touches = []
            for core_index, icache in enumerate(self.icaches):
                chunk = (size - core_index + ncores - 1) // ncores
                for offset in range(0, max(chunk, 0) * 4, line):
                    la = icache.line_addr(addr + offset)
                    touches.append((icache._set_of(la), (self.ctx, la),
                                    icache, (self.ctx, la, core_index)))
            memo = self._ic_touches[addr, size] = tuple(touches)
        return memo

    def _touch(self, addr: int, size: int, reads: list) -> None:
        """Fetch one block through the I-caches, line by line, appending
        each miss's L2 read to ``reads``."""
        for cache_set, key, icache, read in self._icache_touches(addr, size):
            try:
                cache_set.move_to_end(key)
            except KeyError:
                reads.append(read)
                icache.fill(key[0], key[1], LineState.SHARED)

    def settle(self) -> None:
        """Forget what was derived from the I-cache sets.  Call before
        reading or moving ``icaches`` from outside ``warm``."""
        self._ic_touches.clear()

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------

    def rebuild_directory(self) -> None:
        self.settle()
        rebuild_directory(self.l2, self._l1_by_core)
