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
* :class:`LineCacheBank` and :class:`SetL2System` — the cache bank with
  a ``Line`` object per resident line and the L2 whose directory keeps
  each line's sharers as a ``set`` (``repro.mem.cache.CacheBank`` and
  ``repro.mem.l2.L2System``, which hold a bare state per line and a
  sharer bit mask per entry).  They share the stats classes and
  ``LineState`` with the real ones; the bank is not a warm structure
  (no ``WarmState`` transfer surface), which no comparison needs.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.isa.opcodes import BRANCH_KINDS
from repro.isa.program import BLOCK_STRIDE, HALT_ADDR
from repro.mem.cache import CacheStats, LineState
from repro.mem.dram import Dram
from repro.mem.l2 import L2Stats
from repro.noc.mesh import Topology
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
    interval.narrow()
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
                l2.l1_evicted(*victim, core)
    for saddr in stores:
        dcache, core = bank_of(saddr)
        if dcache.probe(ctx, saddr) is LineState.MODIFIED:
            dcache.access(ctx, saddr, write=True)
            continue
        l2.warm_write(ctx, dcache.line_addr(saddr), core)
        victim = dcache.fill(ctx, saddr, LineState.MODIFIED)
        if victim is not None:
            l2.l1_evicted(*victim, core)
    return ghist


# ----------------------------------------------------------------------
# Coherence state as objects: a Line per cached line, a set of sharers
# ----------------------------------------------------------------------

@dataclass(slots=True)
class Line:
    """One resident cache line."""

    ctx: int
    line_addr: int
    state: LineState = LineState.SHARED


class _LineSets(dict):
    """Set index -> ``OrderedDict[(ctx, line_addr) -> Line]`` (LRU
    first), holding only the sets something has subscripted: a bank is
    built empty and a short run touches a few hundred of a system's
    ~10 000 sets.  An absent set and an empty one are the same state."""

    __slots__ = ()

    def __missing__(self, index: int) -> OrderedDict:
        cache_set = self[index] = OrderedDict()
        return cache_set


class LineCacheBank:
    """One set-associative, LRU, write-back cache bank.

    Args:
        size_bytes: Total capacity of this bank.
        assoc: Set associativity.
        line_size: Line size in bytes (power of two).
        name: For diagnostics.
    """

    def __init__(self, size_bytes: int, assoc: int, line_size: int = 64,
                 name: str = "cache") -> None:
        if line_size & (line_size - 1):
            raise ValueError("line_size must be a power of two")
        num_lines = size_bytes // line_size
        if num_lines < assoc or num_lines % assoc:
            raise ValueError(f"{name}: {size_bytes}B / {assoc}-way / {line_size}B is not a valid geometry")
        self.name = name
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        self.stats = CacheStats()  # stays with its owner across swaps
        self._sets = _LineSets()

    def line_addr(self, addr: int) -> int:
        return addr & ~(self.line_size - 1)

    def _set_of(self, line_addr: int) -> OrderedDict:
        index = (line_addr // self.line_size) % self.num_sets
        return self._sets[index]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def probe(self, ctx: int, addr: int) -> Optional[Line]:
        """Non-allocating lookup; does not update LRU or stats."""
        line_addr = self.line_addr(addr)
        return self._set_of(line_addr).get((ctx, line_addr))

    def access(self, ctx: int, addr: int, write: bool = False) -> bool:
        """Reference a line, updating LRU and hit/miss stats.

        Returns True on hit.  A write hit on a SHARED line still counts
        as a hit here; the caller consults the directory for upgrades.
        """
        line_addr = addr & ~(self.line_size - 1)
        cache_set = self._sets[(line_addr // self.line_size) % self.num_sets]
        key = (ctx, line_addr)
        # Hit fast path: one hashed lookup doubling as the LRU touch.
        try:
            cache_set.move_to_end(key)
            hit = True
        except KeyError:
            hit = False
        stats = self.stats
        if write:
            stats.writes += 1
            if not hit:
                stats.write_misses += 1
        else:
            stats.reads += 1
            if not hit:
                stats.read_misses += 1
        return hit

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def fill(self, ctx: int, addr: int, state: LineState = LineState.SHARED) -> Optional[Line]:
        """Install a line, evicting the LRU line of the set if needed.

        Returns the evicted line (for directory notification /
        writeback) or None.
        """
        line_addr = self.line_addr(addr)
        cache_set = self._set_of(line_addr)
        key = (ctx, line_addr)
        existing = cache_set.get(key)
        if existing is not None:
            existing.state = state
            cache_set.move_to_end(key)
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            __, victim = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim.state is LineState.MODIFIED:
                self.stats.writebacks += 1
        cache_set[key] = Line(ctx=ctx, line_addr=line_addr, state=state)
        return victim

    def invalidate(self, ctx: int, addr: int) -> Optional[Line]:
        """Remove a line (directory-initiated). Returns it if present."""
        line_addr = self.line_addr(addr)
        cache_set = self._set_of(line_addr)
        line = cache_set.pop((ctx, line_addr), None)
        if line is not None:
            self.stats.invalidations += 1
        return line

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def iter_lines(self):
        """Iterate all resident lines (set order, LRU-first within a set)."""
        for index in sorted(self._sets):
            yield from self._sets[index].values()


@dataclass
class SetDirectoryEntry:
    """Sharing state for one (ctx, line): which L1s hold it, who owns it."""

    sharers: set[int] = field(default_factory=set)
    owner: Optional[int] = None   # core id holding the line MODIFIED


class SetL2System:
    """NUCA L2 array + directory + DRAM behind it.

    Args:
        core_topology: Mesh of the cores (bank distance is measured from
            the requesting core to the bank's position in the adjacent
            L2 array).
        num_banks: L2 bank count (32 in the paper's floorplan).
        bank_bytes: Capacity per bank.
        assoc: L2 associativity.
        tag_latency: Bank access time excluding network hops.
        l1_banks: Callback ``core_id -> LineCacheBank`` giving the private L1
            D-cache of a core, for directory-initiated invalidations.
        dram: Backing memory model.
    """

    def __init__(self, core_topology: Topology, num_banks: int = 32,
                 bank_bytes: int = 128 * 1024, assoc: int = 8,
                 line_size: int = 64, tag_latency: int = 3,
                 l1_banks: Optional[Callable[[int], LineCacheBank]] = None,
                 dram: Optional[Dram] = None) -> None:
        self.core_topology = core_topology
        self.num_banks = num_banks
        self.line_size = line_size
        self.tag_latency = tag_latency
        self.l1_banks = l1_banks
        self.dram = dram if dram is not None else Dram()
        self.stats = L2Stats()
        self.banks = [
            LineCacheBank(bank_bytes, assoc, line_size, name=f"l2b{i}")
            for i in range(num_banks)
        ]
        # Bank grid sits beside the core array (paper figure 1): bank i
        # occupies column (i % 4) of a 4-wide array at the core mesh's
        # right edge, row i // 4.
        self._bank_cols = 4
        self.directory: dict[tuple[int, int], SetDirectoryEntry] = {}

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def bank_of(self, addr: int) -> int:
        return (addr // self.line_size) % self.num_banks

    def bank_distance(self, core: int, bank: int) -> int:
        """Hop count from a core to an L2 bank."""
        cx, cy = self.core_topology.coord(core)
        bx = bank % self._bank_cols
        by = bank // self._bank_cols
        # Cross the core array to its right edge, then into the L2 array.
        to_edge = self.core_topology.width - 1 - cx
        return to_edge + 1 + bx + abs(by - cy)

    def unloaded_latency(self, core: int, addr: int) -> int:
        """Round-trip L2 hit latency from a core (paper: 5..27 cycles)."""
        return self.tag_latency + 2 * self.bank_distance(core, self.bank_of(addr))

    # ------------------------------------------------------------------
    # L1 request interface
    # ------------------------------------------------------------------

    def read(self, ctx: int, addr: int, core: int, now: int) -> tuple[int, LineState]:
        """L1 read miss: fetch a line for sharing.

        Returns ``(done_cycle, fill_state)``; the caller fills its L1
        with the returned state.
        """
        self.stats.reads += 1
        done = now + self.unloaded_latency(core, addr)
        line_addr = addr & ~(self.line_size - 1)
        entry = self._dir_entry(ctx, line_addr)

        if entry.owner is not None and entry.owner != core:
            # Dirty in a remote L1: forward the line, downgrading the owner.
            self.stats.forwards += 1
            done += self.core_topology.distance(entry.owner, core) + self.tag_latency
            owner_bank = self._l1(entry.owner)
            if owner_bank is not None:
                line = owner_bank.probe(ctx, line_addr)
                if line is not None:
                    line.state = LineState.SHARED
            entry.sharers.add(entry.owner)
            entry.owner = None

        done = self._touch_l2(ctx, line_addr, core, now, done)
        entry.sharers.add(core)
        return done, LineState.SHARED

    def write(self, ctx: int, addr: int, core: int, now: int) -> tuple[int, LineState]:
        """L1 write miss or upgrade: obtain the line exclusively."""
        self.stats.writes += 1
        done = now + self.unloaded_latency(core, addr)
        line_addr = addr & ~(self.line_size - 1)
        entry = self._dir_entry(ctx, line_addr)

        others = (entry.sharers | ({entry.owner} if entry.owner is not None else set())) - {core}
        if others:
            # Invalidate every other copy; latency is the farthest
            # invalidation round trip from the home bank.
            bank = self.bank_of(addr)
            worst = 0
            for sharer in sorted(others):
                self.stats.invalidation_msgs += 1
                l1 = self._l1(sharer)
                if l1 is not None:
                    l1.invalidate(ctx, line_addr)
                worst = max(worst, 2 * self.bank_distance(sharer, bank))
            done += worst
        entry.sharers = set()
        entry.owner = core

        done = self._touch_l2(ctx, line_addr, core, now, done)
        return done, LineState.MODIFIED

    def warm_read(self, ctx: int, line_addr: int, core: int) -> None:
        """State-only :meth:`read` for cache warming (``line_addr`` must
        be line-aligned).

        Identical directory/L1/L2-array transitions to a read at cycle
        0, with everything a warming pass ignores dropped: latency
        arithmetic, DRAM timing, and stats.  The sampled-simulation
        shadow (:mod:`repro.sample.shadow`) drives this once per
        fast-forwarded block reference, so the saved work is the
        difference between warming and simulating.
        """
        entry = self._dir_entry(ctx, line_addr)
        owner = entry.owner
        if owner is not None and owner != core:
            owner_bank = self._l1(owner)
            if owner_bank is not None:
                line = owner_bank.probe(ctx, line_addr)
                if line is not None:
                    line.state = LineState.SHARED
            entry.sharers.add(owner)
            entry.owner = None
        self._warm_touch(ctx, line_addr)
        entry.sharers.add(core)

    def warm_write(self, ctx: int, line_addr: int, core: int) -> None:
        """State-only :meth:`write` for cache warming (``line_addr``
        must be line-aligned); see :meth:`warm_read`."""
        entry = self._dir_entry(ctx, line_addr)
        owner = entry.owner
        if entry.sharers or (owner is not None and owner != core):
            for sharer in sorted(entry.sharers):
                if sharer != core:
                    l1 = self._l1(sharer)
                    if l1 is not None:
                        l1.invalidate(ctx, line_addr)
            if owner is not None and owner != core:
                l1 = self._l1(owner)
                if l1 is not None:
                    l1.invalidate(ctx, line_addr)
            entry.sharers = set()
        entry.owner = core
        self._warm_touch(ctx, line_addr)

    def l1_evicted(self, ctx: int, line_addr: int, core: int) -> None:
        """An L1 silently dropped (or wrote back) a line."""
        key = (ctx, line_addr)
        entry = self.directory.get(key)
        if entry is None:
            return
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = None
        if not entry.sharers and entry.owner is None:
            del self.directory[key]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dir_entry(self, ctx: int, line_addr: int) -> SetDirectoryEntry:
        key = (ctx, line_addr)
        entry = self.directory.get(key)
        if entry is None:
            entry = SetDirectoryEntry()
            self.directory[key] = entry
        return entry

    def _l1(self, core: int) -> Optional[LineCacheBank]:
        return self.l1_banks(core) if self.l1_banks is not None else None

    def _warm_touch(self, ctx: int, line_addr: int) -> None:
        """:meth:`_touch_l2` minus DRAM, latency, and stats — the L2
        array transitions (LRU touch, fill, eviction recall) only."""
        bank = self.banks[(line_addr // self.line_size) % self.num_banks]
        try:
            bank._sets[(line_addr // bank.line_size) % bank.num_sets] \
                .move_to_end((ctx, line_addr))
        except KeyError:
            victim = bank.fill(ctx, line_addr)
            if victim is not None:
                self._recall(victim)

    def _touch_l2(self, ctx: int, line_addr: int, core: int, now: int, done: int) -> int:
        """Reference the L2 bank; on a miss, go to DRAM and fill."""
        bank = self.banks[self.bank_of(line_addr)]
        if bank.access(ctx, line_addr):
            self.stats.hits += 1
            return done
        self.stats.misses += 1
        dram_done = self.dram.request(done)
        victim = bank.fill(ctx, line_addr)
        if victim is not None:
            self._recall(victim)
        return dram_done

    def _recall(self, victim) -> None:
        """L2 eviction: recall the line from any L1s holding it."""
        key = (victim.ctx, victim.line_addr)
        entry = self.directory.pop(key, None)
        if entry is None:
            return
        holders = set(entry.sharers)
        if entry.owner is not None:
            holders.add(entry.owner)
        for core in sorted(holders):
            self.stats.recalls += 1
            l1 = self._l1(core)
            if l1 is not None:
                l1.invalidate(victim.ctx, victim.line_addr)
