"""The distributed return address stack (paper section 4.3).

The RAS is the hardest predictor structure to distribute because it
represents the program call stack — a single logical object.  TFlex
*sequentially partitions* the stack across participating cores: with
two cores and 16 entries each, entries 0..15 live on core 0 and entries
16..31 on core 1.  Pushes and pops are messages to the core holding the
current top; composition therefore deepens the stack linearly.

Mispredicted blocks roll back the RAS from per-prediction checkpoints
(top pointer plus the entry a push overwrote), restored youngest-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.warm import WarmState


@dataclass
class RasCheckpoint:
    """State needed to undo at most one push or pop."""

    top: int
    overwritten_slot: Optional[int] = None
    overwritten_value: int = 0


@dataclass
class RasStats:
    pushes: int = 0
    pops: int = 0
    underflows: int = 0
    overflow_wraps: int = 0


class DistributedRas(WarmState):
    """One logical stack sequentially partitioned across cores."""

    #: Swaps move state between same-capacity stacks only (the stack
    #: length is the geometry); ``resil.recompose.transfer_ras`` re-homes
    #: the live entries when the capacity changes.
    WARM = ("_stack", "_top")

    def __init__(self, num_cores: int, entries_per_core: int = 16) -> None:
        self.num_cores = num_cores
        self.entries_per_core = entries_per_core
        self.capacity = num_cores * entries_per_core
        self._stack = [0] * self.capacity
        self._top = 0          # number of live entries (next free slot)
        self.stats = RasStats()  # stays with its owner across swaps

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def core_of_slot(self, slot: int) -> int:
        """Participating-core index holding a stack slot."""
        return (slot % self.capacity) // self.entries_per_core

    @property
    def top_core(self) -> int:
        """Core holding the current top entry (message destination)."""
        if self._top == 0:
            return 0
        return self.core_of_slot((self._top - 1) % self.capacity)

    @property
    def depth(self) -> int:
        return self._top

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def checkpoint(self) -> RasCheckpoint:
        return RasCheckpoint(top=self._top)

    def push(self, value: int) -> RasCheckpoint:
        """Push a return address; returns the undo checkpoint."""
        slot = self._top % self.capacity
        checkpoint = RasCheckpoint(
            top=self._top,
            overwritten_slot=slot,
            overwritten_value=self._stack[slot],
        )
        if self._top >= self.capacity:
            self.stats.overflow_wraps += 1
        self._stack[slot] = value
        self._top += 1
        self.stats.pushes += 1
        return checkpoint

    def pop(self) -> tuple[int, RasCheckpoint]:
        """Pop the predicted return address; returns (value, checkpoint)."""
        checkpoint = RasCheckpoint(top=self._top)
        if self._top == 0:
            self.stats.underflows += 1
            return 0, checkpoint
        self._top -= 1
        self.stats.pops += 1
        return self._stack[self._top % self.capacity], checkpoint

    def restore(self, checkpoint: RasCheckpoint) -> None:
        """Undo one push/pop (applied youngest-first during a flush)."""
        self._top = checkpoint.top
        if checkpoint.overwritten_slot is not None:
            self._stack[checkpoint.overwritten_slot] = checkpoint.overwritten_value
