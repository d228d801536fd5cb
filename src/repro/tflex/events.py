"""Discrete-event kernel for the cycle-level simulator.

The simulator is event-driven with cycle granularity: components
schedule callbacks at absolute cycles, and idle stretches (cores waiting
on memory, empty pipelines) cost nothing.  Ties are broken by insertion
order, which keeps runs deterministic.

Events of one cycle share a *bucket* (a list in insertion order) and a
heap orders only the distinct cycles, so the common case — several cores
acting on the same cycle — costs one heap operation per cycle rather
than one per event.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.tflex.config import MAX_CYCLES


class EventQueue:
    """A deterministic bucketed scheduler over integer cycles."""

    def __init__(self) -> None:
        self.now = 0
        #: cycle -> events due then, in insertion order.  A bucket being
        #: run has already left this map, so an event scheduled for the
        #: current cycle opens a fresh bucket that is popped next —
        #: exactly ``(cycle, insertion)`` order.
        self._buckets: dict[int, list[Callable[[], None]]] = {}
        self._cycles: list[int] = []     # min-heap of the map's keys
        self.events_processed = 0
        self._stopped = False

    def stop(self) -> None:
        """Request that :meth:`run` return before the next event — the
        one way to stop a run: a handler that detects the stop
        condition (e.g. the last processor halting) flags it once."""
        self._stopped = True

    def clear_stop(self) -> None:
        """Withdraw a stop request (e.g. new work composed mid-run)."""
        self._stopped = False

    def clear(self) -> None:
        """Drop every pending event (``now`` stays where it is)."""
        self._buckets.clear()
        self._cycles.clear()

    def at(self, cycle: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at an absolute cycle (>= now)."""
        if cycle < self.now:
            raise ValueError(f"scheduling into the past: {cycle} < {self.now}")
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [fn]
            heapq.heappush(self._cycles, cycle)
        else:
            bucket.append(fn)

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        self.at(self.now + delay, fn)

    def run(self, max_cycles: int = MAX_CYCLES) -> bool:
        """Process events in order until the queue drains, :meth:`stop`
        is called, or the cycle budget is exceeded.

        Returns True if stopped (normal completion for simulations) or
        on queue drain, False on budget exhaustion — the first event
        past the budget stays queued, so a later ``run`` with a larger
        budget resumes with nothing lost.  The stop check happens
        *before* the next event, so a handler that flags it leaves
        ``now`` at its own cycle and the rest of its bucket queued.
        """
        self._stopped = False
        buckets = self._buckets
        cycles = self._cycles
        events = self.events_processed
        try:
            while cycles:
                if self._stopped:
                    break
                cycle = cycles[0]
                if cycle > max_cycles:
                    return False
                heapq.heappop(cycles)
                bucket = buckets.pop(cycle)
                self.now = cycle
                if len(bucket) == 1:
                    # One event this cycle (serial stretches): skip the
                    # bucket loop's bookkeeping.
                    events += 1
                    bucket[0]()
                    continue
                ran = 0
                for fn in bucket:
                    if ran and self._stopped:
                        # Stopped mid-cycle: the unrun tail goes back in
                        # front of anything scheduled for this cycle
                        # meanwhile.
                        fresh = buckets.get(cycle)
                        if fresh is None:
                            heapq.heappush(cycles, cycle)
                            fresh = ()
                        buckets[cycle] = bucket[ran:] + list(fresh)
                        return True
                    ran += 1
                    events += 1
                    fn()
            return True
        finally:
            self.events_processed = events
