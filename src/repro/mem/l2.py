"""Shared S-NUCA L2 cache with directory-based L1 coherence.

The chip's L2 (paper sections 4.7 and 5, Table 1) is a 4 MB cache split
into 32 banks connected by a switched mesh; hit latency varies with the
distance between the requesting core and the bank holding the line
(5..27 cycles unloaded).  Coherence among the private L1 data caches
uses an on-chip directory: sharing vectors stored alongside the L2 tags,
treating every L1 bank as an independent coherence unit — which is what
lets compositions change without flushing L1s (the directory forwards or
invalidates stale lines on demand).  Here the sharing vector is an int
bit mask per directory entry, bit *i* standing for core *i*'s L1.

Timing here is computed transactionally: a request arriving at cycle
*now* returns its completion cycle, with directory side effects (L1
invalidations, ownership transfers) applied immediately and their cost
added to the returned latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.mem.cache import CacheBank, LineState
from repro.mem.dram import Dram
from repro.noc.mesh import Topology


@dataclass(slots=True)
class DirectoryEntry:
    """Sharing state for one (ctx, line): which L1s hold it, who owns it."""

    sharers: int = 0              # bit i set: core i's L1 holds the line
    owner: Optional[int] = None   # core id holding the line MODIFIED


def cores_of(mask: int) -> Iterator[int]:
    """The core ids whose bits are set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class L2Stats:
    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    forwards: int = 0          # dirty data forwarded from a remote L1
    invalidation_msgs: int = 0
    recalls: int = 0           # L1 invalidations due to L2 eviction

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class L2System:
    """NUCA L2 array + directory + DRAM behind it.

    Args:
        core_topology: Mesh of the cores (bank distance is measured from
            the requesting core to the bank's position in the adjacent
            L2 array).
        num_banks: L2 bank count (32 in the paper's floorplan).
        bank_bytes: Capacity per bank.
        assoc: L2 associativity.
        tag_latency: Bank access time excluding network hops.
        l1_banks: Callback ``core_id -> CacheBank`` giving the private L1
            D-cache of a core, for directory-initiated invalidations.
        dram: Backing memory model.
    """

    def __init__(self, core_topology: Topology, num_banks: int = 32,
                 bank_bytes: int = 128 * 1024, assoc: int = 8,
                 line_size: int = 64, tag_latency: int = 3,
                 l1_banks: Optional[Callable[[int], CacheBank]] = None,
                 dram: Optional[Dram] = None) -> None:
        self.core_topology = core_topology
        self.num_banks = num_banks
        self.line_size = line_size
        self.tag_latency = tag_latency
        self.l1_banks = l1_banks
        self.dram = dram if dram is not None else Dram()
        self.stats = L2Stats()
        self.banks = [
            CacheBank(bank_bytes, assoc, line_size, name=f"l2b{i}")
            for i in range(num_banks)
        ]
        # Bank grid sits beside the core array (paper figure 1): bank i
        # occupies column (i % 4) of a 4-wide array at the core mesh's
        # right edge, row i // 4.
        self._bank_cols = 4
        self.directory: dict[tuple[int, int], DirectoryEntry] = {}

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
                owner_bank.downgrade(ctx, line_addr)
            entry.sharers |= 1 << entry.owner
            entry.owner = None

        done = self._touch_l2(ctx, line_addr, core, now, done)
        entry.sharers |= 1 << core
        return done, LineState.SHARED

    def write(self, ctx: int, addr: int, core: int, now: int) -> tuple[int, LineState]:
        """L1 write miss or upgrade: obtain the line exclusively."""
        self.stats.writes += 1
        done = now + self.unloaded_latency(core, addr)
        line_addr = addr & ~(self.line_size - 1)
        entry = self._dir_entry(ctx, line_addr)

        others = entry.sharers
        if entry.owner is not None:
            others |= 1 << entry.owner
        others &= ~(1 << core)
        if others:
            # Invalidate every other copy; latency is the farthest
            # invalidation round trip from the home bank.
            bank = self.bank_of(addr)
            worst = 0
            for sharer in cores_of(others):
                self.stats.invalidation_msgs += 1
                l1 = self._l1(sharer)
                if l1 is not None:
                    l1.invalidate(ctx, line_addr)
                worst = max(worst, 2 * self.bank_distance(sharer, bank))
            done += worst
        entry.sharers = 0
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
                owner_bank.downgrade(ctx, line_addr)
            entry.sharers |= 1 << owner
            entry.owner = None
        self._warm_touch(ctx, line_addr)
        entry.sharers |= 1 << core

    def warm_write(self, ctx: int, line_addr: int, core: int) -> None:
        """State-only :meth:`write` for cache warming (``line_addr``
        must be line-aligned); see :meth:`warm_read`."""
        entry = self._dir_entry(ctx, line_addr)
        owner = entry.owner
        if entry.sharers or (owner is not None and owner != core):
            for sharer in cores_of(entry.sharers):
                if sharer != core:
                    l1 = self._l1(sharer)
                    if l1 is not None:
                        l1.invalidate(ctx, line_addr)
            if owner is not None and owner != core:
                l1 = self._l1(owner)
                if l1 is not None:
                    l1.invalidate(ctx, line_addr)
            entry.sharers = 0
        entry.owner = core
        self._warm_touch(ctx, line_addr)

    def l1_evicted(self, ctx: int, line_addr: int, core: int) -> None:
        """An L1 silently dropped (or wrote back) a line."""
        key = (ctx, line_addr)
        entry = self.directory.get(key)
        if entry is None:
            return
        entry.sharers &= ~(1 << core)
        if entry.owner == core:
            entry.owner = None
        if not entry.sharers and entry.owner is None:
            del self.directory[key]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dir_entry(self, ctx: int, line_addr: int) -> DirectoryEntry:
        key = (ctx, line_addr)
        entry = self.directory.get(key)
        if entry is None:
            entry = DirectoryEntry()
            self.directory[key] = entry
        return entry

    def _l1(self, core: int) -> Optional[CacheBank]:
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

    def _recall(self, victim: tuple) -> None:
        """L2 eviction of the line keyed ``victim``: recall it from any
        L1s holding it."""
        entry = self.directory.pop(victim, None)
        if entry is None:
            return
        holders = entry.sharers
        if entry.owner is not None:
            holders |= 1 << entry.owner
        ctx, line_addr = victim
        for core in cores_of(holders):
            self.stats.recalls += 1
            l1 = self._l1(core)
            if l1 is not None:
                l1.invalidate(ctx, line_addr)
