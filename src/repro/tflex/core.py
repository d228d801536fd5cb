"""One physical TFlex core: instruction window, wake-up, and issue.

A core owns the *physical* structures that persist across composition
changes — I-cache, D-cache, LSQ bank, predictor bank — and the transient
issue machinery for whichever composed processor it currently belongs
to.  Issue obeys the paper's core model: up to two integer-class and one
FP-class instruction per cycle (configurable; TRIPS tiles issue one
total), oldest block first.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from repro.tflex.instance import BlockState
from repro.lsq import LsqBank
from repro.mem.cache import CacheBank
from repro.predictor import PredictorBank

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.interp import _PInst
    from repro.tflex.instance import BlockInstance
    from repro.tflex.system import TFlexSystem

#: Hoisted enum member: the issue loop tests it per ready entry.
SQUASHED = BlockState.SQUASHED


class Core:
    """One lightweight processor core."""

    def __init__(self, system: "TFlexSystem", core_id: int) -> None:
        self.system = system
        self.id = core_id
        cfg = system.cfg.core
        self.icache = CacheBank(cfg.icache_bytes, cfg.icache_assoc,
                                system.cfg.line_size, name=f"i{core_id}")
        self.dcache = CacheBank(cfg.dcache_bytes, cfg.dcache_assoc,
                                system.cfg.line_size, name=f"d{core_id}")
        self.lsq = LsqBank(cfg.lsq_entries, name=f"lsq{core_id}")
        self.predictor = PredictorBank(
            local_l1=cfg.local_l1, local_l2=cfg.local_l2,
            global_entries=cfg.global_entries, choice_entries=cfg.choice_entries,
            btype_entries=cfg.btype_entries, btb_entries=cfg.btb_entries,
            ctb_entries=cfg.ctb_entries, latency=cfg.predictor_latency)

        #: Processors currently using this core.  Normally one; several
        #: when threads share a composition SMT-style (the TRIPS SMT
        #: mode the paper describes as the baseline's only flexibility).
        self.procs: list = []
        #: Manufacturing/field fault: a faulty core cannot join any
        #: composition.  Composability turns core-granularity faults
        #: into capacity loss instead of chip loss — the chip keeps
        #: running with every remaining core.
        self.faulty = False
        self._ready: list[tuple[int, int, int, "BlockInstance", "_PInst"]] = []
        self._push_seq = 0                    # heap tie-breaker
        self._issue_scheduled = False
        # Issue widths, resolved once (the config is frozen).
        self._issue_int = cfg.issue_int
        self._issue_fp = cfg.issue_fp
        self._issue_total = (cfg.issue_total if cfg.issue_total is not None
                             else cfg.issue_int + cfg.issue_fp)
        self._queue = system.queue
        #: The issue event, bound once (charged to the ``issue`` phase
        #: when the profiler was enabled before the system was built).
        self._issue_tick = system.obs.profiler.wrap("issue",
                                                    self._do_issue_tick)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    @property
    def proc(self):
        """The sole owner (None when free; ambiguous under sharing)."""
        return self.procs[0] if self.procs else None

    def assign(self, proc, share: bool = False) -> None:
        if self.faulty:
            raise RuntimeError(f"core {self.id} is marked faulty")
        if self.procs and not share:
            raise RuntimeError(
                f"core {self.id} already belongs to {self.procs[0].name}")
        self.procs.append(proc)

    def release(self, proc=None) -> None:
        """Detach a processor (composition change).

        Physical cache and predictor state is deliberately retained —
        the directory protocol handles stale L1 lines (paper 4.7)."""
        if proc is None:
            self.procs.clear()
        elif proc in self.procs:
            self.procs.remove(proc)
        if not self.procs:
            self._ready.clear()
            self._issue_scheduled = False

    # ------------------------------------------------------------------
    # Wake-up and issue
    # ------------------------------------------------------------------

    def wake(self, instance: "BlockInstance", record: "_PInst") -> None:
        """``record`` is dispatched and has every token it waits for
        (``instance.missing`` reached zero): queue it for issue — or, on
        a mismatched predicate, squash it for this instance."""
        pred = record.pred
        if pred is not None and bool(instance.operands[record.base]) != pred:
            instance.missing[record.iid] = -1
            return
        self._push_seq += 1
        heapq.heappush(self._ready, (instance.gseq, record.iid,
                                     self._push_seq, instance, record))
        if not self._issue_scheduled:
            self._issue_scheduled = True
            self._queue.at(self._queue.now + 1, self._issue_tick)

    def _do_issue_tick(self) -> None:
        """Issue up to the per-class widths this cycle, oldest first
        (threads sharing the core compete for the same issue slots)."""
        self._issue_scheduled = False
        if not self.procs:
            self._ready.clear()
            return
        slots_int = self._issue_int
        slots_fp = self._issue_fp
        slots_total = self._issue_total
        deferred: list[tuple[int, int, int, "BlockInstance", "_PInst"]] = []

        ready = self._ready
        pop = heapq.heappop
        while ready and slots_total > 0:
            entry = pop(ready)
            __, iid, __, instance, record = entry
            # A retired count is a second token's duplicate entry.
            if instance.state is SQUASHED or instance.missing[iid]:
                continue
            if record.is_fp:
                if slots_fp == 0:
                    deferred.append(entry)
                    continue
                slots_fp -= 1
            else:
                if slots_int == 0:
                    deferred.append(entry)
                    continue
                slots_int -= 1
            slots_total -= 1
            instance.missing[iid] = -1
            instance.insts_fired_count += 1
            instance.proc.issue(instance, record, self)

        for entry in deferred:
            heapq.heappush(ready, entry)
        if ready and not self._issue_scheduled:
            self._issue_scheduled = True
            self._queue.at(self._queue.now + 1, self._issue_tick)

    def ready_count(self) -> int:
        return len(self._ready)
