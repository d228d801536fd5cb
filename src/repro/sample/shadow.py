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
order, ignoring all timing results.

State moves between the shadow and a real :class:`TFlexSystem` through
the one transfer vocabulary every warm structure derives from its field
declaration (:mod:`repro.warm`): ``swap_state`` per window, with
``state_dict``/``load_state`` as the copying reference the tests hold
it to.  The L2 directory is rebuilt from L1 contents on every transfer
(the directory's invariant is "entry == some L1 holds the line", so it
is derived state).

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
from repro.warm import stage_all

_KIND_OF = {name: BranchKind.of_opcode(name) for name in BRANCH_KINDS}


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
        # lint: ok(REP101) pure function of the composition geometry
        self._dbank_core = [
            interleave.dbank_core_index(b, ncores, self.num_dbanks)
            for b in range(self.num_dbanks)
        ]
        dmap = {core_index: self.dcaches[b]
                for b, core_index in enumerate(self._dbank_core)}
        self.l2 = L2System(
            Topology(cfg.mesh_width, cfg.mesh_height), num_banks=cfg.l2_banks,
            bank_bytes=cfg.l2_bank_bytes, assoc=cfg.l2_assoc,
            line_size=cfg.line_size, tag_latency=cfg.l2_tag_latency,
            l1_banks=dmap.get, dram=Dram())

        # Participating core index -> L1 banks there (directory rebuilds).
        # lint: ok(REP101) index over icaches/dcaches, which the surface covers
        self._l1_by_core: dict[int, list[CacheBank]] = {
            i: [self.icaches[i]] for i in range(ncores)}
        for b, core_index in enumerate(self._dbank_core):
            self._l1_by_core[core_index].append(self.dcaches[b])

        # Lazy I-cache LRU (see ``warm``).  Block address -> size of the
        # blocks whose whole footprint is known to be cached; the
        # re-fetches of such blocks not yet applied to the LRU stacks,
        # oldest first; and, per (addr, size), the footprint resolved
        # to set objects.  All derived from the I-caches, all dropped
        # by ``settle`` before every transfer.
        self._resident: dict[int, int] = {}  # lint: ok(REP101) derived from icaches, dropped by settle()
        self._pending: dict[int, int] = {}  # lint: ok(REP101) deferred icache touches, applied by settle()
        self._ic_touches: dict[tuple, tuple] = {}  # lint: ok(REP101) memo over icaches' sets, dropped by settle()

    # ------------------------------------------------------------------
    # Warming
    # ------------------------------------------------------------------

    def warm(self, interval, ghist: int, block_at) -> int:
        """Warm all structures with one interval's committed blocks —
        the columns of a :class:`~repro.sample.trace.FFInterval`, live
        or replayed; ``block_at(addr).size`` sizes a block.  Returns the
        global exit history after the last block.

        This loop runs once per committed block for the whole
        fast-forward region — the hottest code in sampled simulation.
        Cache hits are open-coded against CacheBank's set layout: a
        line's set and key are resolved once per interval (D-cache) or
        per transfer (I-cache, :meth:`_icache_touches`), and a hit is
        one hashed ``move_to_end`` doubling as lookup and LRU touch,
        with no per-access stats — nothing reads shadow stats, and
        ``state_dict`` carries only resident state.  Misses fall back
        to the exact protocol sequence ``CacheBank.access`` callers
        use, so warm state is bit-identical to the plain path.

        The I-cache is lazier still.  Once every line of a block's
        per-core footprint has been touched and none has been evicted
        since, the block is *resident*: fetching it again can only
        reorder LRU stacks, and a stack's order depends only on each
        line's **last** touch.  So a re-fetch is one entry in
        ``_pending`` (insertion order = last-fetch order) and the
        touches are applied, once per block, before anything can
        observe or evict in a set they reorder: a fetch of a
        non-resident block that shares a set index with one of them
        (:meth:`_fetch`; the I-caches share one geometry, so a line has
        the same set index in every core), a snapshot, a state transfer
        (:meth:`settle`).  This is exact because shadow I-caches are
        private — the L2's ``l1_banks`` maps D-cache banks only, so
        nothing but :meth:`_touch`'s own fills ever removes or reorders
        their lines — and because an evicted line names the one block
        it belonged to (blocks sit ``BLOCK_STRIDE`` apart and a
        footprint is shorter than that; a block this does not hold for
        is never marked resident).
        """
        ctx = self.ctx
        l2 = self.l2
        line_size = self.line_size
        modified = LineState.MODIFIED
        shared = LineState.SHARED
        ncores = self.ncores
        speculative = self.speculative
        centralized = self.cfg.centralized_predictor
        pred_banks = self.pred_banks
        ras = self.ras
        resident = self._resident
        pending = self._pending
        sizes: dict[int, int] = {}
        # Line number -> (its D-cache set, its key there, the bank, the
        # bank's core); sets are stable objects between transfers.
        dlines: dict[int, tuple] = {}

        for addr, exit_id, next_addr, branch_op, load_addrs, stores in zip(
                interval.addrs, interval.exits, interval.nexts,
                interval.branch_ops, interval.load_addrs, interval.stores):
            # Next-block predictor: the fused commit-order step —
            # identical table/RAS state to predict, repair-on-wrong-path
            # (the same sequence as ``ProtocolMixin._mispredict``), then
            # train.
            if speculative:
                owner = 0 if centralized else (addr // BLOCK_STRIDE) % ncores
                ghist = pred_banks[owner].observe_commit(
                    addr, ghist, ras, exit_id, _KIND_OF[branch_op], next_addr)
            else:
                ghist = push_history(ghist, exit_id, GLOBAL_HISTORY_EXITS)

            # I-cache: each core's slice occupies its own lines keyed
            # from the block base address (per-core private footprint).
            size = sizes.get(addr)
            if size is None:
                size = sizes[addr] = block_at(addr).size
            if resident.get(addr) == size:
                pending.pop(addr, None)
                pending[addr] = size
            else:
                self._fetch(addr, size)

            # D-cache: loads that went to memory (LSQ forwards never
            # get there), then committed stores via the same
            # probe/upgrade/allocate sequence as the commit drain.
            # A load of the line the previous load of this block touched
            # is skipped: that line is MRU in its set and nothing ran in
            # between, so it can neither miss nor reorder.  (Not carried
            # across blocks: this block's stores run in between, and the
            # next one's I-cache misses can reach the L2 and
            # back-invalidate.)
            last = -1
            for laddr in load_addrs:
                line = laddr // line_size
                if line == last:
                    continue
                last = line
                entry = dlines.get(line)
                if entry is None:
                    entry = dlines[line] = self._dline(laddr)
                cache_set, key, dcache, bank_core = entry
                try:
                    cache_set.move_to_end(key)
                except KeyError:
                    l2.warm_read(ctx, key[1], bank_core)
                    victim = dcache.fill(ctx, key[1], shared)
                    if victim is not None:
                        l2.l1_evicted(victim.ctx, victim.line_addr, bank_core)
            for saddr in stores[::4]:       # [addr, size, value, fp] quads
                entry = dlines.get(saddr // line_size)
                if entry is None:
                    entry = dlines[saddr // line_size] = self._dline(saddr)
                cache_set, key, dcache, bank_core = entry
                line = cache_set.get(key)
                if line is not None and line.state is modified:
                    cache_set.move_to_end(key)
                    continue
                l2.warm_write(ctx, key[1], bank_core)
                victim = dcache.fill(ctx, saddr, modified)
                if victim is not None:
                    l2.l1_evicted(victim.ctx, victim.line_addr, bank_core)
        return ghist

    def _dline(self, addr: int) -> tuple:
        """``(set, key, bank, bank core)`` of a data address's line."""
        b = interleave.dbank_of(addr, self.line_size, self.num_dbanks)
        dcache = self.dcaches[b]
        la = dcache.line_addr(addr)
        return dcache._set_of(la), (self.ctx, la), dcache, self._dbank_core[b]

    def _icache_touches(self, addr: int, size: int) -> tuple:
        """A block's I-cache lines in fetch order, each as ``(set, key,
        bank, core index)``, and the set indices they fall in; kept
        until the next transfer moves the sets.  Instruction ``i`` is
        fetched by core ``i mod N``, and each core's slice occupies its
        own lines keyed from the block base address."""
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
                                    icache, core_index))
            indices = frozenset((key[1] // line) % icache.num_sets
                                for __, key, icache, __ in touches)
            memo = self._ic_touches[addr, size] = (tuple(touches), indices)
        return memo

    def _touch(self, addr: int, size: int) -> bool:
        """Fetch one block through the I-caches, line by line; a block
        that loses a line to a fill stops being resident.  True when
        this block kept all of its own."""
        kept = True
        for cache_set, key, icache, core_index in \
                self._icache_touches(addr, size)[0]:
            try:
                cache_set.move_to_end(key)
            except KeyError:
                self.l2.warm_read(key[0], key[1], core_index)
                victim = icache.fill(key[0], key[1], LineState.SHARED)
                if victim is not None:
                    base = victim.line_addr - victim.line_addr % BLOCK_STRIDE
                    self._resident.pop(base, None)
                    kept = kept and base != addr
        return kept

    def _fetch(self, addr: int, size: int) -> None:
        """Fetch a block not known to be resident: first the deferred
        touches (they are older) if any of them shares a set index with
        this block's lines, then its own."""
        indices = self._icache_touches(addr, size)[1]
        if not all(indices.isdisjoint(self._icache_touches(a, s)[1])
                   for a, s in self._pending.items()):
            self._apply_pending()
        self._resident.pop(addr, None)      # same address, another size
        if self._touch(addr, size) and not addr % BLOCK_STRIDE \
                and 4 * size + self.line_size <= BLOCK_STRIDE:
            self._resident[addr] = size

    def _apply_pending(self) -> None:
        for addr, size in self._pending.items():
            self._touch(addr, size)
        self._pending.clear()

    def settle(self) -> None:
        """Bring the I-caches up to date and forget what was derived
        from them.  Call before reading or moving ``icaches`` from
        outside ``warm``."""
        self._apply_pending()
        self._resident.clear()
        self._ic_touches.clear()

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------

    def rebuild_directory(self) -> None:
        self.settle()
        rebuild_directory(self.l2, self._l1_by_core)

    def state_dict(self) -> dict:
        """JSON-safe snapshot of every warm structure (directory
        excluded — it is rebuilt from L1 contents on load)."""
        self.settle()
        return {
            "pred": [bank.state_dict() for bank in self.pred_banks],
            "ras": self.ras.state_dict(),
            "icache": [bank.state_dict() for bank in self.icaches],
            "dcache": [bank.state_dict() for bank in self.dcaches],
            "l2": [bank.state_dict() for bank in self.l2.banks],
        }

    def load_state(self, state: dict) -> None:
        banks = {"pred": self.pred_banks, "icache": self.icaches,
                 "dcache": self.dcaches, "l2": self.l2.banks}
        if any(len(state[key]) != len(group) for key, group in banks.items()):
            raise ValueError("shadow snapshot geometry mismatch")
        commit = stage_all(
            [(self.ras, state["ras"])]
            + [(bank, snapshot) for key, group in banks.items()
               for bank, snapshot in zip(group, state[key])])
        self.settle()
        commit()
        self.rebuild_directory()
