"""Dynamic recomposition around failed cores (paper section 3).

The CLP claim this module reproduces: because composed processors share
no physical structures, losing a core costs *one core's capacity*, not
the processor — runtime software re-forms the composition on the
surviving cores and resumes the thread.

Recovery protocol, per victim processor, inside the failure event:

1. **Interrupt** — abandon every in-flight block through the normal
   halt flush, which repairs speculative predictor/RAS state; the
   architectural state sits exactly at the last committed block.
2. **Capture** — registers, the distributed RAS contents, the
   dependence-violation history, and the committed-path resume point
   (``last_commit_next``/``last_commit_ghist``) through the same
   transfer vocabulary sampled simulation uses (``state_dict`` /
   ``load_state``, in-place register copy, shared memory image).
3. **Re-form** — the largest placeable composition (power-of-two
   rectangle) no bigger than the old one, avoiding faulty and occupied
   cores; the new processor reuses the victim's cache context tag, so
   cache lines on surviving cores stay warm and the L2 directory stays
   coherent (caches are timing-only — no architectural data lives in
   a lost core).
4. **Resume** — after a modelled recovery latency (flush penalty +
   round-trip state migration across the mesh + banked register
   refill), the new processor starts at the resume point.

Events ``recompose.start``/``recompose.done``, the ``resil.recoveries``
counter, and a ``recovery`` profiler phase flow through ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.block import NUM_REGS
from repro.tflex.placement import SHAPES, pack


class CompositionLost(RuntimeError):
    """No fault-free region remains to recompose a processor."""


@dataclass
class RecoveryReport:
    """One recomposition: where, what it cost, and what it recovered."""

    cycle: int
    core: int                     # the core that failed
    old_cores: list[int]
    new_cores: list[int]
    recovery_cycles: int
    resumed_at: int
    blocks_lost: int              # in-flight blocks abandoned
    ipc_before: float
    ipc_after: Optional[float] = None   # filled when the run completes

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "core": self.core,
            "old_cores": list(self.old_cores),
            "new_cores": list(self.new_cores),
            "recovery_cycles": self.recovery_cycles,
            "resumed_at": self.resumed_at,
            "blocks_lost": self.blocks_lost,
            "ipc_before": self.ipc_before,
            "ipc_after": self.ipc_after,
        }


def choose_composition(cfg, target: int,
                       unavailable: set[int]) -> Optional[list[int]]:
    """Largest placeable power-of-two rectangle of at most ``target``
    cores that avoids ``unavailable``; None when even one core cannot
    be placed.  Scans sizes descending, origins row-major, so the
    choice is deterministic."""
    for size in sorted(SHAPES, reverse=True):
        if size <= target:
            try:
                return pack(cfg, [size], avoid=unavailable)[0]
            except ValueError:
                continue
    return None


def transfer_ras(old, new) -> None:
    """Move the distributed RAS contents between compositions of
    (possibly) different sizes: the youngest live entries survive, up
    to the new capacity — exactly the entries a deepening call stack
    would consult first."""
    state = old.state_dict()
    top, stack = state["top"], state["stack"]
    old_capacity = len(stack)
    live = min(top, old_capacity)          # overflow wraps clamp at capacity
    keep = min(live, new.capacity)
    new_stack = [0] * new.capacity
    for i in range(keep):
        new_stack[i] = stack[(top - keep + i) % old_capacity]
    new.load_state({"stack": new_stack, "top": keep})


class RecompositionEngine:
    """Rebuilds compositions around failed cores on one system."""

    def __init__(self, system) -> None:
        self.system = system
        self.obs = system.obs
        self.reports: list[RecoveryReport] = []
        #: Interrupted predecessors, oldest first (their stats are the
        #: per-segment record of the run).
        self.segments: list = []
        #: ctx -> live processor currently carrying that thread.
        self._current: dict[int, object] = {}
        #: ctx -> (addr, ghist) to resume from when nothing committed
        #: yet in the current segment.
        self._resume_points: dict[int, tuple[int, int]] = {}

    def register(self, proc) -> None:
        """Track a processor that starts at its program's entry."""
        self._current[proc.ctx] = proc
        self._resume_points[proc.ctx] = (
            proc.program.address_of(proc.program.entry), 0)

    def current(self, ctx: int):
        """The processor currently carrying thread ``ctx``."""
        return self._current[ctx]

    def finalize(self) -> None:
        """Fill post-recovery IPC into the reports (call after the
        run completes): report *i* separates segment *i* from its
        successor."""
        chain = self.segments + [self._current[ctx]
                                 for ctx in sorted(self._current)]
        for i, report in enumerate(self.reports):
            if i + 1 < len(chain):
                report.ipc_after = chain[i + 1].stats.ipc

    # -- failure handling ----------------------------------------------

    def on_core_failure(self, core_id: int) -> None:
        """A core died: recover every composition that used it."""
        victims = [p for p in self.system.procs
                   if not p.halted and core_id in p.core_ids]
        for proc in victims:
            prof = self.obs.profiler
            if prof.enabled:
                with prof.phase("recovery"):
                    self._recover(proc, core_id)
            else:
                self._recover(proc, core_id)

    def _recover(self, proc, core_id: int) -> None:
        system = self.system
        queue = system.queue
        now = queue.now
        obs = self.obs
        if obs.active:
            obs.emit("recompose.start", cycle=now, proc=proc.name,
                     core=core_id, inflight=len(proc.inflight))

        # 1. Interrupt: abandon in-flight blocks, halt at last commit.
        blocks_lost = len(proc.inflight)
        proc.interrupt()

        # 2. Capture architectural state through the transfer surfaces.
        regs = list(proc.regs)
        dependence = set(proc.dependence_set)
        if proc.stats.blocks_committed and proc.last_commit_next is not None:
            addr, ghist = proc.last_commit_next, proc.last_commit_ghist
        else:
            # Nothing committed in this segment yet: restart it.
            addr, ghist = self._resume_points[proc.ctx]
        system.decompose(proc)
        self.segments.append(proc)

        # 3. Re-form on surviving cores (same ctx keeps caches warm).
        unavailable = {c.id for c in system.cores if c.faulty or c.procs}
        cores = choose_composition(system.cfg, len(proc.core_ids),
                                   unavailable)
        if cores is None:
            faulty = sorted(c.id for c in system.cores if c.faulty)
            raise CompositionLost(
                f"no fault-free region left to recompose {proc.name} "
                f"(faulty cores: {faulty})")
        new_proc = system.compose(cores, proc.program, name=proc.name,
                                  ctx=proc.ctx)
        new_proc.memory = proc.memory          # shared committed image
        new_proc.regs[:] = regs                # banks alias the list
        new_proc.dependence_set |= dependence
        transfer_ras(proc.ras, new_proc.ras)
        if proc.store_sets is not None and new_proc.store_sets is not None:
            new_proc.store_sets = proc.store_sets

        # 4. Resume after the modelled recovery latency.
        latency = self._recovery_latency(proc, new_proc)
        resumed_at = now + latency
        report = RecoveryReport(
            cycle=now, core=core_id, old_cores=list(proc.core_ids),
            new_cores=list(cores), recovery_cycles=latency,
            resumed_at=resumed_at, blocks_lost=blocks_lost,
            ipc_before=proc.stats.ipc)
        self.reports.append(report)
        self._current[proc.ctx] = new_proc
        self._resume_points[proc.ctx] = (addr, ghist)
        queue.at(resumed_at, lambda: self._resume(new_proc, addr, ghist))
        if obs.active:
            obs.emit("recompose.done", cycle=now, proc=proc.name,
                     core=core_id, old_cores=list(proc.core_ids),
                     new_cores=list(cores), recovery_cycles=latency,
                     resumed_at=resumed_at, blocks_lost=blocks_lost)
            obs.metrics.inc("resil.recoveries")
            obs.metrics.inc("resil.recovery_cycles", latency)
            obs.metrics.inc("resil.blocks_lost", blocks_lost)

    @staticmethod
    def _resume(proc, addr: int, ghist: int) -> None:
        # A second failure can interrupt the new composition before its
        # resume fires; recovery then re-schedules on yet another
        # composition and this stale wake must do nothing.
        if proc.halted or proc.started:
            return
        proc.start(addr, ghist)

    def _recovery_latency(self, old, new) -> int:
        """Cycles from failure detection to the first new fetch:
        the misprediction-style flush penalty, a round trip of state
        migration across the worst-case old-to-new core distance, and
        the banked architectural-register refill."""
        cfg = self.system.cfg
        topology = self.system.topology
        span = max(topology.distance(a, b)
                   for a in old.core_ids for b in new.core_ids)
        reg_refill = -(-NUM_REGS // new.num_rf_banks)   # ceil division
        return cfg.flush_penalty + 2 * span * cfg.hop_latency + reg_refill
