"""Store-set dependence prediction (Chrysos & Emer style, block-keyed).

The baseline recovery for a load/store dependence violation is blunt:
the violating load replays and thereafter waits for *all* older stores
(`ComposedProcessor.older_stores_resolved`).  A store-set predictor
remembers *which* stores a load actually conflicted with and delays the
load only until those specific stores have resolved — preserving memory
parallelism for the independent ones.

Static memory operations are keyed by ``(block label, LSQ id)``; a
load's store set accumulates the keys of stores that violated it.  The
structure is bounded like hardware: at most ``max_set`` stores per load
and ``max_loads`` tracked loads (LRU eviction), so mispredictions decay
instead of accreting forever.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


MemKey = tuple[str, int]    # (block label, LSQ id)


@dataclass
class StoreSetStats:
    violations_recorded: int = 0
    loads_tracked: int = 0
    waits: int = 0
    evictions: int = 0


class StoreSetPredictor:
    """Per-processor dependence predictor over static memory operations."""

    def __init__(self, max_loads: int = 64, max_set: int = 4) -> None:
        self.max_loads = max_loads
        self.max_set = max_set
        self._sets: OrderedDict[MemKey, list[MemKey]] = OrderedDict()
        self.stats = StoreSetStats()

    def record_violation(self, load_key: MemKey, store_key: MemKey) -> None:
        """A store at ``store_key`` violated the load at ``load_key``."""
        self.stats.violations_recorded += 1
        stores = self._sets.get(load_key)
        if stores is None:
            if len(self._sets) >= self.max_loads:
                self._sets.popitem(last=False)
                self.stats.evictions += 1
            stores = []
            self._sets[load_key] = stores
            self.stats.loads_tracked += 1
        self._sets.move_to_end(load_key)
        if store_key not in stores:
            stores.append(store_key)
            del stores[self.max_set:]

    def must_wait(self, load_key: MemKey, load_gseq: int, load_lsq: int,
                  inflight) -> bool:
        """True while a predicted-conflicting store is still unresolved.

        ``inflight`` iterates the processor's active block instances
        (oldest first).  A predicted store blocks the load when it
        belongs to an older point of the program order — an older block,
        or the same block at a lower LSQ id — and its slot has not yet
        resolved (store executed or NULL fired).
        """
        stores = self._sets.get(load_key)
        if not stores:
            return False
        blocking: dict[str, set[int]] = {}
        for label, lsq in stores:
            blocking.setdefault(label, set()).add(lsq)
        for instance in inflight:
            if instance.squashed or instance.gseq > load_gseq:
                continue
            lsqs = blocking.get(instance.block.label)
            if not lsqs:
                continue
            for lsq in lsqs:
                if instance.gseq == load_gseq and lsq >= load_lsq:
                    continue    # not older in program order
                if lsq in instance.block.store_ids and \
                        lsq not in instance.resolved_store_slots:
                    self.stats.waits += 1
                    return True
        return False
