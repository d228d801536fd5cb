"""The TFlex chip: core array, networks, shared L2, DRAM, and the
composition interface.

A :class:`TFlexSystem` hosts any number of simultaneously running
composed processors on disjoint core subsets (paper figure 1); they
share the S-NUCA L2 and main memory, so multiprogrammed runs see real
cache and bandwidth contention.
"""

from __future__ import annotations

from typing import Optional

import repro.obs as obs_lib
from repro.isa.program import Program
from repro.mem.dram import Dram
from repro.mem.l2 import L2System
from repro.noc import Network, Topology
from repro.tflex.config import MAX_CYCLES, SystemConfig, TFLEX, tflex_config
from repro.tflex.core import Core
from repro.tflex.events import EventQueue
from repro.tflex.placement import rectangle
from repro.tflex.processor import ComposedProcessor


class SimulationDeadlock(Exception):
    """The event queue drained before every processor halted."""


class TFlexSystem:
    """One chip instance."""

    def __init__(self, cfg: SystemConfig = TFLEX,
                 obs: Optional[obs_lib.Observability] = None) -> None:
        cfg.validate()
        self.cfg = cfg
        #: Observability bundle (metrics + trace bus + profiler); the
        #: process-global one unless handed a scoped bundle explicitly.
        self.obs = obs if obs is not None else obs_lib.current()
        self.queue = EventQueue()
        self.topology = Topology(cfg.mesh_width, cfg.mesh_height)
        self.opn = Network(self.topology, channels=cfg.opn_channels,
                           hop_latency=cfg.hop_latency, name="opn",
                           profiler=self.obs.profiler)
        self.control = Network(self.topology, channels=cfg.control_channels,
                               hop_latency=cfg.hop_latency, name="control",
                               profiler=self.obs.profiler)
        self.cores = [Core(self, i) for i in range(cfg.num_cores)]
        self.dram = Dram(latency=cfg.dram_latency, issue_gap=cfg.dram_issue_gap)
        self.l2 = L2System(
            self.topology, num_banks=cfg.l2_banks, bank_bytes=cfg.l2_bank_bytes,
            assoc=cfg.l2_assoc, line_size=cfg.line_size,
            tag_latency=cfg.l2_tag_latency,
            l1_banks=[core.dcache for core in self.cores].__getitem__,
            dram=self.dram)
        #: Composed processors not yet decomposed.
        self.procs: list[ComposedProcessor] = []
        #: Processors composed so far: the next one's ID and default
        #: context tag, never reused after a decomposition.
        self._composed = 0
        #: Count of composed processors that have not halted.  Kept
        #: current by :meth:`compose` and :meth:`note_halted` so the
        #: event loop never polls per-processor state (skip-idle
        #: stepping: the queue stops itself when the count hits zero).
        self._unhalted = 0

    # ------------------------------------------------------------------
    # Composition management
    # ------------------------------------------------------------------

    def compose(self, core_ids: list[int], program: Program,
                name: Optional[str] = None, share_cores: bool = False,
                max_inflight: Optional[int] = None,
                ctx: Optional[int] = None) -> ComposedProcessor:
        """Aggregate cores into a logical processor running ``program``.

        ``ctx`` overrides the cache/LSQ context tag: a processor
        re-formed around a failed core passes its predecessor's tag so
        warm cache lines on surviving cores remain valid (the directory
        keys lines by ``(ctx, addr)``).
        """
        proc = ComposedProcessor(self, proc_id=self._composed,
                                 core_ids=core_ids, program=program, name=name,
                                 share_cores=share_cores,
                                 max_inflight=max_inflight, ctx=ctx)
        self._composed += 1
        self.procs.append(proc)
        self._unhalted += 1
        # A composition arriving mid-run withdraws any pending stop.
        self.queue.clear_stop()
        return proc

    def compose_smt(self, core_ids: list[int], programs: list[Program],
                    names: Optional[list[str]] = None) -> list[ComposedProcessor]:
        """Run several threads on ONE composition, SMT-style.

        The threads share the cores' issue slots, caches, predictors,
        and LSQ capacity, and split the block-frame budget evenly —
        the paper's TRIPS SMT mode generalized to any composition size.
        """
        if not programs:
            raise ValueError("compose_smt needs at least one program")
        frames = max(1, len(core_ids) // len(programs))
        procs = []
        for index, program in enumerate(programs):
            name = names[index] if names else f"smt{index}"
            procs.append(self.compose(core_ids, program, name=name,
                                      share_cores=True, max_inflight=frames))
        return procs

    def compose_rect(self, size: int, program: Program,
                     origin: tuple[int, int] = (0, 0),
                     name: Optional[str] = None) -> ComposedProcessor:
        """Compose a contiguous ``size``-core rectangle at ``origin``."""
        return self.compose(rectangle(self.cfg, size, origin), program, name)

    def decompose(self, proc: ComposedProcessor) -> None:
        """Release a halted processor's cores and drop it from
        :attr:`procs`; the chip then holds no reference to it.

        A halted processor keeps its cores until this call (its caller
        still reads its state).  Core-private cache and predictor state
        is retained; the directory protocol resolves stale L1 lines
        when the cores are reused in a different composition (paper
        section 4.7).
        """
        if not proc.halted:
            raise RuntimeError(f"{proc.name} still running")
        proc.release_cores()
        self.procs.remove(proc)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = MAX_CYCLES) -> int:
        """Run every composed processor to completion.

        Returns the final cycle.  Raises :class:`SimulationDeadlock` if
        forward progress stops, with a per-processor state dump.  A
        completed run leaves no pending event: whatever is still queued
        when the last processor halts belongs to halted processors, so
        the queue drops it and a later run starts from an empty queue.
        """
        for proc in self.procs:
            if not proc.halted and not proc.started:
                proc.start()

        # Event-driven completion: processors report halts through
        # :meth:`note_halted`, and the queue stops itself when the last
        # one halts — no per-event polling of processor state.
        self._unhalted = sum(1 for p in self.procs if not p.halted)
        finished = (self.queue.run(max_cycles=max_cycles)
                    if self._unhalted else True)
        if not finished:
            raise SimulationDeadlock(
                f"cycle budget ({max_cycles}) exhausted\n" + self._dump())
        if not all(p.halted for p in self.procs):
            raise SimulationDeadlock("event queue drained early\n" + self._dump())
        self.queue.clear()
        for proc in self.procs:
            if proc.stats.cycles == 0:
                proc.stats.cycles = self.queue.now - proc.start_cycle
        if self.obs.active:
            for net in (self.opn, self.control):
                net.stats.to_metrics(self.obs.metrics, net=net.name)
            self.obs.emit("sim.done", cycle=self.queue.now,
                          procs=[p.name for p in self.procs])
        return self.queue.now

    def note_halted(self) -> None:
        """A composed processor halted; stop the queue after the last."""
        self._unhalted -= 1
        if self._unhalted <= 0:
            self.queue.stop()

    def _dump(self) -> str:
        return "\n".join(p.debug_state() for p in self.procs)


def run_program(program: Program, num_cores: int = 8,
                cfg: Optional[SystemConfig] = None,
                max_cycles: int = MAX_CYCLES) -> ComposedProcessor:
    """Convenience one-shot: run one program on an N-core composition.

    Builds a chip just large enough when no config is given.
    """
    if cfg is None:
        cfg = tflex_config(max(num_cores, 1))
    system = TFlexSystem(cfg)
    proc = system.compose_rect(num_cores, program)
    system.run(max_cycles=max_cycles)
    return proc
