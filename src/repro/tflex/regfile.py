"""Register-file banks with cross-block forwarding.

Registers are address-interleaved across the participating cores
(register number modulo bank count), so register bandwidth and capacity
scale with composition size.  Each bank tracks the *pending writes* of
in-flight blocks — declared when a block is fetched, from its header's
write set — and forwards values to younger blocks' reads as producers
execute, without waiting for commit.

A NULL-resolved write performs no architectural update; readers bound to
it chain to the next older writer (or the architectural value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional


class WriteStatus(Enum):
    PENDING = "pending"
    VALUE = "value"
    NULL = "null"


@dataclass
class PendingWrite:
    """A declared, not-yet-committed register write of one block."""

    gseq: int
    reg: int
    status: WriteStatus = WriteStatus.PENDING
    value: object = None
    subscribers: list[Callable[[], None]] = field(default_factory=list)


@dataclass
class RegfileStats:
    reads: int = 0
    writes: int = 0
    forwards: int = 0       # reads satisfied by an in-flight producer
    stalls: int = 0         # reads that had to wait for a producer


class RegfileBank:
    """One register bank of a composed processor.

    The architectural register values live with the processor (they
    survive recomposition); the bank owns the in-flight forwarding
    state.
    """

    def __init__(self, arch_regs: list, name: str = "rf") -> None:
        self.arch = arch_regs
        self.name = name
        self.stats = RegfileStats()
        # reg -> pending writes ordered oldest..youngest.
        self._pending: dict[int, list[PendingWrite]] = {}

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------

    def declare(self, gseq: int, regs: list[int]) -> None:
        """Register a fetched block's write set (ordering: callers must
        declare blocks in increasing gseq)."""
        for reg in regs:
            writers = self._pending.setdefault(reg, [])
            if writers and writers[-1].gseq >= gseq:
                raise ValueError(f"{self.name}: out-of-order declare for r{reg}")
            writers.append(PendingWrite(gseq=gseq, reg=reg))

    def produce(self, gseq: int, reg: int, value: object, null: bool = False) -> None:
        """A block's write arrived (or resolved NULL); wake subscribers."""
        self.stats.writes += 1
        writer = self._find(gseq, reg)
        writer.status = WriteStatus.NULL if null else WriteStatus.VALUE
        writer.value = value
        subscribers, writer.subscribers = writer.subscribers, []
        for callback in subscribers:
            callback()

    def commit(self, gseq: int, reg: int) -> None:
        """Apply a block's write architecturally and retire the entry."""
        writers = self._pending.get(reg, [])
        for i, writer in enumerate(writers):
            if writer.gseq == gseq:
                if writer.status is WriteStatus.PENDING:
                    raise ValueError(f"{self.name}: committing unresolved r{reg}")
                if writer.status is WriteStatus.VALUE:
                    self.arch[reg] = writer.value
                del writers[i]
                if not writers:
                    del self._pending[reg]
                return
        raise KeyError(f"{self.name}: no pending write r{reg} of block {gseq}")

    def squash_from(self, gseq: int) -> None:
        """Drop pending writes of blocks >= gseq (flush).

        Subscribed readers belong to even younger blocks, which the same
        flush squashes, so their callbacks are simply dropped."""
        for reg in list(self._pending):
            writers = [w for w in self._pending[reg] if w.gseq < gseq]
            if writers:
                self._pending[reg] = writers
            else:
                del self._pending[reg]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(self, gseq: int, reg: int, deliver: Callable[[object], None]) -> bool:
        """Resolve a read for a block against older in-flight writers.

        Calls ``deliver(value)`` immediately if the value is available
        (architectural, or forwarded from a resolved producer); otherwise
        subscribes and delivers later.  Returns True if immediate.
        """
        self.stats.reads += 1
        writer = self._youngest_older_writer(gseq, reg)
        if writer is None:
            deliver(self.arch[reg])
            return True
        if writer.status is WriteStatus.VALUE:
            self.stats.forwards += 1
            deliver(writer.value)
            return True
        if writer.status is WriteStatus.NULL:
            # Chain past the null writer as of *its* age.
            return self.read(writer.gseq, reg, deliver)
        self.stats.stalls += 1
        writer.subscribers.append(lambda: self.read(gseq, reg, deliver))
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _find(self, gseq: int, reg: int) -> PendingWrite:
        for writer in self._pending.get(reg, []):
            if writer.gseq == gseq:
                return writer
        raise KeyError(f"{self.name}: no pending write r{reg} of block {gseq}")

    def _youngest_older_writer(self, gseq: int, reg: int) -> Optional[PendingWrite]:
        best = None
        for writer in self._pending.get(reg, []):
            if writer.gseq < gseq:
                best = writer
            else:
                break
        return best
