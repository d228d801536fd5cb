"""One address-interleaved load/store queue bank.

TFlex partitions its LSQ by data address with the same hash as the L1
D-cache banks (paper section 4.5), so every memory access to a given
cache line is disambiguated at a single bank.  Because each bank holds
fewer entries than the worst case (44 per core, versus up to 32 memory
operations x N blocks in flight), a bank can fill up; following
Sethumadhavan et al., overflow is handled with a low-overhead **NACK**:
the access is refused and the issuing core retries.

Global memory order is the pair ``(block gseq, lsq_id)`` — blocks are
totally ordered by the fetch sequence, and LSQ IDs order accesses within
a block.  Loads execute speculatively; a store arriving *after* a
younger overlapping load has executed raises a dependence violation,
which the processor repairs by flushing from the load's block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


@dataclass(slots=True)
class LsqEntry:
    """One in-flight memory operation resident in the bank."""

    gseq: int          # block fetch sequence number (global age)
    lsq_id: int        # program order within the block
    is_store: bool
    addr: int
    size: int
    value: object = None
    fp: bool = False
    ctx: int = 0       # thread context (threads never alias each other)
    #: Global memory order ``(gseq, lsq_id)``; materialized once so the
    #: age-search loops compare tuples without property-call overhead.
    order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.order = (self.gseq, self.lsq_id)

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr < addr + size and addr < self.addr + self.size

    def exact_match(self, addr: int, size: int) -> bool:
        return self.addr == addr and self.size == size


class LsqResult(Enum):
    """Outcome of presenting a memory operation to the bank."""

    OK = "ok"
    NACK = "nack"            # bank full: retry later
    FORWARD = "forward"      # load satisfied by an older in-flight store
    CONFLICT = "conflict"    # inexact overlap with an older store: replay


@dataclass
class LsqStats:
    loads: int = 0
    stores: int = 0
    forwards: int = 0
    nacks: int = 0
    violations: int = 0
    conflicts: int = 0
    searches: int = 0
    peak_occupancy: int = 0


@dataclass(slots=True)
class LoadOutcome:
    """What the bank decided for a load."""

    result: LsqResult
    value: object = None           # forwarded value when result is FORWARD
    conflict_gseq: Optional[int] = None   # older store blocking a CONFLICT
    conflict_lsq: Optional[int] = None


@dataclass(slots=True)
class StoreOutcome:
    """What the bank decided for a store."""

    result: LsqResult
    violation_gseq: Optional[int] = None   # oldest violating load's block
    violation_lsq: Optional[int] = None    # that load's LSQ id (throttle key)


class LsqBank:
    """Fixed-capacity LSQ bank with forwarding and violation detection."""

    def __init__(self, capacity: int = 44, name: str = "lsq") -> None:
        self.capacity = capacity
        self.name = name
        self.stats = LsqStats()
        self._entries: list[LsqEntry] = []

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def _note_occupancy(self) -> None:
        if len(self._entries) > self.stats.peak_occupancy:
            self.stats.peak_occupancy = len(self._entries)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def load(self, gseq: int, lsq_id: int, addr: int, size: int,
             fp: bool = False, ctx: int = 0) -> LoadOutcome:
        """Present a load; inserts it on success.

        FORWARD returns the youngest older store's value for an exact
        address/size match; CONFLICT reports an inexact overlap with an
        older store (the load must be replayed after that store commits).
        Ordering applies within one thread context only (SMT threads
        sharing a bank have disjoint address spaces).
        """
        if self.full:
            self.stats.nacks += 1
            return LoadOutcome(LsqResult.NACK)
        self.stats.loads += 1
        self.stats.searches += 1

        order = (gseq, lsq_id)
        best: Optional[LsqEntry] = None
        for entry in self._entries:
            if entry.ctx != ctx or not entry.is_store or entry.order >= order:
                continue
            if entry.exact_match(addr, size):
                if best is None or entry.order > best.order:
                    best = entry
            elif entry.overlaps(addr, size):
                self.stats.conflicts += 1
                return LoadOutcome(LsqResult.CONFLICT,
                                   conflict_gseq=entry.gseq,
                                   conflict_lsq=entry.lsq_id)

        self._entries.append(LsqEntry(gseq, lsq_id, False, addr, size,
                                      fp=fp, ctx=ctx))
        self._note_occupancy()
        if best is not None:
            if best.fp != fp:
                self.stats.conflicts += 1
                return LoadOutcome(LsqResult.CONFLICT,
                                   conflict_gseq=best.gseq,
                                   conflict_lsq=best.lsq_id)
            self.stats.forwards += 1
            return LoadOutcome(LsqResult.FORWARD, value=best.value)
        return LoadOutcome(LsqResult.OK)

    def store(self, gseq: int, lsq_id: int, addr: int, size: int,
              value: object, fp: bool = False, ctx: int = 0) -> StoreOutcome:
        """Present a store; inserts it on success.

        Detects younger already-executed loads that overlap — a
        dependence violation the processor must repair by flushing from
        the oldest violating load's block.
        """
        if self.full:
            self.stats.nacks += 1
            return StoreOutcome(LsqResult.NACK)
        self.stats.stores += 1
        self.stats.searches += 1

        order = (gseq, lsq_id)
        violator: Optional[LsqEntry] = None
        for entry in self._entries:
            if entry.ctx != ctx or entry.is_store or entry.order <= order:
                continue
            if entry.overlaps(addr, size):
                if violator is None or entry.order < violator.order:
                    violator = entry

        self._entries.append(LsqEntry(gseq, lsq_id, True, addr, size,
                                      value=value, fp=fp, ctx=ctx))
        self._note_occupancy()
        if violator is not None:
            self.stats.violations += 1
            return StoreOutcome(LsqResult.CONFLICT, violation_gseq=violator.gseq,
                                violation_lsq=violator.lsq_id)
        return StoreOutcome(LsqResult.OK)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def stores_of_block(self, gseq: int, ctx: int = 0) -> list[LsqEntry]:
        """This block's stores resident here, in LSQ-ID order (commit drain)."""
        stores = [e for e in self._entries
                  if e.is_store and e.gseq == gseq and e.ctx == ctx]
        stores.sort(key=lambda e: e.lsq_id)
        return stores

    def store_count_of_block(self, gseq: int, ctx: int = 0) -> int:
        """Number of this block's stores resident here (commit-command
        sizing; avoids materializing and sorting the drain list)."""
        count = 0
        for e in self._entries:
            if e.is_store and e.gseq == gseq and e.ctx == ctx:
                count += 1
        return count

    def release_block(self, gseq: int, ctx: int = 0) -> int:
        """Remove all entries of a committed block. Returns count removed."""
        before = len(self._entries)
        self._entries = [e for e in self._entries
                         if e.gseq != gseq or e.ctx != ctx]
        return before - len(self._entries)

    def squash_from(self, gseq: int, ctx: int = 0) -> int:
        """Remove a context's entries for blocks >= gseq (pipeline flush)."""
        before = len(self._entries)
        self._entries = [e for e in self._entries
                         if e.gseq < gseq or e.ctx != ctx]
        return before - len(self._entries)

    def youngest_gseq(self, ctx: int = 0) -> Optional[int]:
        """Age of the youngest same-context block occupying this bank.

        Used by the overflow policy: a NACKed access from an *older*
        block can only make progress if younger occupants are flushed
        (they cannot commit before it).  Other contexts' occupancy
        drains at their own commits, so only the requester's context is
        considered."""
        return max((e.gseq for e in self._entries if e.ctx == ctx),
                   default=None)
