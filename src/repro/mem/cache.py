"""Generic set-associative cache bank (timing/state only).

Caches in this simulator track *presence and coherence state*, not data:
architectural data lives in the per-thread flat memory and moves through
the LSQ/commit path, which keeps functional correctness independent of
timing-model details.  Lines are keyed by ``(ctx, line_address)`` so
multiple programs (address-space contexts) can share the physical
hierarchy, as in the multiprogramming experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.warm import WarmState


class LineState(Enum):
    """MSI coherence state of a cached line."""

    SHARED = "S"
    MODIFIED = "M"


@dataclass(slots=True)
class Line:
    """One resident cache line."""

    ctx: int
    line_addr: int
    state: LineState = LineState.SHARED


@dataclass
class CacheStats:
    reads: int = 0
    read_misses: int = 0
    writes: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _Sets(dict):
    """Set index -> ``OrderedDict[(ctx, line_addr) -> Line]`` (LRU
    first), holding only the sets something has subscripted: a bank is
    built empty and a short run touches a few hundred of a system's
    ~10 000 sets.  An absent set and an empty one are the same state."""

    __slots__ = ()

    def __missing__(self, index: int) -> OrderedDict:
        cache_set = self[index] = OrderedDict()
        return cache_set


class CacheBank(WarmState):
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
        self._sets = _Sets()

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

    # ------------------------------------------------------------------
    # State transfer (sampled-simulation warm-up injection)
    # ------------------------------------------------------------------

    #: The sets move whole, so a swap keeps each set's LRU order (the
    #: eviction victim) and every line in the set it hashes to.
    WARM = ("_sets",)

    def warm_geometry(self) -> tuple:
        return (self.num_sets, self.line_size, self.assoc)

