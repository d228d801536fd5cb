"""A composed processor: N cores acting as one logical processor.

This class holds the per-thread state (architectural registers, flat
memory, register-forwarding banks, distributed RAS, global exit history,
in-flight block window) and the interleaving hash functions of paper
section 4:

* **block starting address** -> owner core (prediction, fetch control,
  completion detection, commit initiation);
* **instruction ID within a block** -> execution core (low-order target
  bits select the core, the rest the window slot);
* **data address** -> D-cache/LSQ bank (XOR-folded cache-line address);
* **register number** -> register-file bank;
* the RAS is sequentially partitioned (handled by
  :class:`repro.predictor.DistributedRas`).

Protocol behaviour comes from :class:`ProtocolMixin`; datapath behaviour
from :class:`DatapathMixin`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.isa.block import NUM_REGS
from repro.isa.program import Program
from repro.mem.flatmem import FlatMemory
from repro.predictor import DistributedRas, PredictorBank
from repro.tflex import interleave
from repro.tflex.datapath import DatapathMixin
from repro.tflex.decode import DecodedBlock
from repro.tflex.instance import BlockInstance
from repro.tflex.protocol import ProtocolMixin
from repro.tflex.regfile import RegfileBank
from repro.tflex.stats import ProcStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.tflex.system import TFlexSystem


class ComposedProcessor(ProtocolMixin, DatapathMixin):
    """One logical processor composed from participating cores."""

    def __init__(self, system: "TFlexSystem", proc_id: int,
                 core_ids: list[int], program: Program,
                 name: Optional[str] = None, share_cores: bool = False,
                 max_inflight: Optional[int] = None,
                 ctx: Optional[int] = None) -> None:
        """Args:
            share_cores: Allow the cores to be shared with other
                processors (SMT-style multithreading of one
                composition).  Threads then compete for issue slots,
                caches, predictors, and LSQ capacity.
            max_inflight: Cap on in-flight blocks (defaults to the
                configuration rule: one per core; SMT threads should
                split the frames, e.g. N/threads each).
            ctx: Cache/LSQ context tag (defaults to ``proc_id``).  A
                processor recomposed after a core failure reuses its
                predecessor's tag so surviving cores' cache lines stay
                valid and the L2 directory stays coherent.
        """
        if not core_ids:
            raise ValueError("a composed processor needs at least one core")
        if len(set(core_ids)) != len(core_ids):
            raise ValueError("duplicate cores in composition")
        program.validate()

        self.system = system
        self.cfg = system.cfg
        self.queue = system.queue
        #: Observability handle; ``enable_block_trace`` replaces it with
        #: a fork carrying this processor's private trace sink.
        self.obs = system.obs
        self.ctx = proc_id if ctx is None else ctx
        self.name = name or f"proc{proc_id}"
        self.program = program
        self.core_ids = list(core_ids)
        self.ncores = len(core_ids)
        self._max_inflight_override = max_inflight
        for core_id in core_ids:
            system.cores[core_id].assign(self, share=share_cores)

        # Per-thread architectural state.
        self.memory = FlatMemory()
        self.memory.load_image(program.data)
        self.regs: list = [0] * NUM_REGS
        for reg, value in program.reg_init.items():
            self.regs[reg] = value

        # Banked structures (bank counts may be overridden — the TRIPS
        # baseline centralizes them on a subset of cores).
        self.num_rf_banks = interleave.num_rf_banks_of(
            self.ncores, self.cfg.regfile_banks)
        self.num_dbanks = interleave.num_dbanks_of(
            self.ncores, self.cfg.dcache_banks)
        self.rf_banks = [RegfileBank(self.regs, name=f"{self.name}.rf{i}")
                         for i in range(self.num_rf_banks)]
        ras_cores = 1 if self.cfg.centralized_predictor else self.ncores
        self.ras = DistributedRas(ras_cores, self.cfg.core.ras_entries)

        # Speculation state: one in-flight block per participating core
        # (each core's 128-entry window holds one block's worth of
        # instructions), unless the configuration pins it (TRIPS: 8) or
        # the composition splits frames between SMT threads.
        if self._max_inflight_override is not None:
            self.max_inflight = max(1, self._max_inflight_override)
        elif self.cfg.max_inflight is not None:
            self.max_inflight = max(1, self.cfg.max_inflight)
        else:
            self.max_inflight = self.ncores
        self.speculative = self.max_inflight > 1
        self.next_gseq = 0
        self.fetch_epoch = 0
        self.inflight: list[BlockInstance] = []
        self.instances: dict[int, BlockInstance] = {}
        self.stalled_fetch: Optional[tuple] = None
        self.deferred_loads: list = []
        self.dependence_set: set[tuple[str, int]] = set()
        if self.cfg.store_sets:
            from repro.lsq.storeset import StoreSetPredictor
            self.store_sets = StoreSetPredictor()
        else:
            self.store_sets = None
        self.halted = False
        self.started = False
        #: True when the processor was halted by :meth:`interrupt`
        #: (fault recovery) rather than by committing a HALT block or
        #: reaching ``commit_limit``.
        self.interrupted = False
        self._last_dealloc = system.queue.now
        self._occupancy_mark = system.queue.now

        # Detailed-window controls for sampled simulation (repro.sample):
        # ``commit_limit`` halts the processor after that many committed
        # blocks; ``measure_after`` snapshots (cycle, insts_committed) at
        # the end of the warm-up prefix.  The commit protocol always
        # tracks the last committed block's successor so a fast-forward
        # engine can resume functionally where the window stopped.
        self.commit_limit: Optional[int] = None
        self.measure_after: Optional[int] = None
        self.measure_mark: Optional[tuple[int, int]] = None
        self.last_commit_next: Optional[int] = None
        self.last_commit_ghist = 0

        self.stats = ProcStats()
        #: Cycle at which this processor was composed; stats.cycles is
        #: relative to it (systems host runs back to back).
        self.start_cycle = system.queue.now

        # ------------------------------------------------------------------
        # Hot-path tables (pure precomputation of the hash functions
        # above; see docs/PERFORMANCE.md).
        # ------------------------------------------------------------------
        #: Energy-event counter, bound once: the datapath increments it
        #: directly instead of going through ``stats.count``.
        self._events = self.stats.energy_events
        self._topology = system.topology
        #: Flat pairwise hop-count table (``a * n + b``), borrowed from
        #: the topology: core IDs are always valid node indices here, so
        #: the delay helpers index it directly.
        self._dist = system.topology._dist
        self._nnodes = system.topology.num_nodes
        self._opn = system.opn
        self._control = system.control
        #: Bank index -> global core ID (``rf_bank_core``/``dbank_core``
        #: are pure functions of the composition).
        self._rf_bank_core_ids = [self.core_of_index(b)
                                  for b in range(self.num_rf_banks)]
        self._dbank_core_ids = [
            self.core_of_index(
                interleave.dbank_core_index(b, self.ncores, self.num_dbanks))
            for b in range(self.num_dbanks)]
        #: Participating-core index -> bank indices resident there (the
        #: commit protocol's drain lookup, inverted once).
        part_of = {cid: i for i, cid in enumerate(self.core_ids)}
        self._rf_banks_at: list[tuple[int, ...]] = [() for __ in core_ids]
        for b, cid in enumerate(self._rf_bank_core_ids):
            self._rf_banks_at[part_of[cid]] += (b,)
        self._dbanks_at: list[tuple[int, ...]] = [() for __ in core_ids]
        for b, cid in enumerate(self._dbank_core_ids):
            self._dbanks_at[part_of[cid]] += (b,)
        #: Placement cache: block label -> where the block runs on this
        #: composition (compiled once, not per fetch).  It belongs to
        #: this processor, so no route outlives ``core_ids``.
        self._decoded: dict[str, DecodedBlock] = {}
        self._broadcasts: dict[int, tuple] = {}   # see control_broadcast
        # Phase hooks, resolved once: the plain handlers unless the
        # profiler was enabled before this processor was composed.
        wrap = self.obs.profiler.wrap
        self.issue = wrap("execute", self._do_issue)
        self._load_arrive = wrap("lsq", self._do_load_arrive)
        self._store_arrive = wrap("lsq", self._do_store_arrive)
        self._fetch_block = wrap("fetch", self._do_fetch_block)
        self._core_fetch_many = wrap("fetch", self._do_core_fetch_many)
        self._start_commit = wrap("commit", self._do_start_commit)
        self._finish_commit = wrap("commit", self._do_finish_commit)

    # ------------------------------------------------------------------
    # Interleaving hash functions (paper section 4)
    # ------------------------------------------------------------------

    def core_of_index(self, index: int) -> int:
        """Global core ID of participating-core ``index``."""
        return self.core_ids[index]

    def owner_index_of(self, addr: int) -> int:
        """Owner core (participating index) of a block address."""
        return interleave.owner_index_of(addr, self.ncores,
                                         self.cfg.centralized_predictor)

    def predictor_bank(self, owner_index: int) -> PredictorBank:
        """The physical predictor bank used for a block's prediction."""
        if self.cfg.centralized_predictor:
            return self.system.cores[self.core_of_index(0)].predictor
        return self.system.cores[self.core_of_index(owner_index)].predictor

    def rf_bank_of(self, reg: int) -> int:
        return interleave.rf_bank_of(reg, self.num_rf_banks)

    def rf_bank_core(self, bank_index: int) -> int:
        """Register banks sit on the first cores of the composition
        (the top row in the TRIPS floorplan)."""
        return self._rf_bank_core_ids[bank_index]

    def dbank_of(self, addr: int) -> int:
        """D-cache/LSQ bank for a data address: XOR-folded line address
        modulo the bank count (paper section 4.5)."""
        return interleave.dbank_of(addr, self.cfg.line_size, self.num_dbanks)

    def dbank_core(self, bank_index: int) -> int:
        """D-cache banks spread down one edge of the composition (the
        left column in the TRIPS floorplan)."""
        return self._dbank_core_ids[bank_index]

    # ------------------------------------------------------------------
    # Decoded-block cache
    # ------------------------------------------------------------------

    def decoded(self, block) -> DecodedBlock:
        """The placement of ``block`` on this composition, compiled on
        first fetch and replayed afterwards."""
        entry = self._decoded.get(block.label)
        if entry is None or entry.block is not block:
            self._decoded[block.label] = entry = DecodedBlock(block, self)
        return entry

    # ------------------------------------------------------------------
    # Network timing
    # ------------------------------------------------------------------

    def operand_delay(self, src: int, dst: int, when: int) -> int:
        """Operand-network delivery time (reserves link bandwidth)."""
        if src == dst:
            return when
        events = self._events
        events["opn_msg"] += 1
        events["opn_hop"] += self._dist[src * self._nnodes + dst]
        return self._opn.delay(src, dst, when)

    def control_delay(self, src: int, dst: int, when: int) -> int:
        """Point-to-point control message delivery (reserves bandwidth);
        free under the ideal-handshake ablation (paper section 6.4)."""
        if src == dst or self.cfg.ideal_handshake:
            return when
        events = self._events
        events["control_msg"] += 1
        events["control_hop"] += self._dist[src * self._nnodes + dst]
        return self._control.delay(src, dst, when)

    def control_broadcast(self, owner_index: int) -> tuple:
        """Static shape of one leg of a broadcast/combining operation
        between an owner and every participating core (fetch commands,
        commit commands, acks, deallocation).  The control network
        replicates these along a multicast tree, so a core's latency is
        its hop distance, not a serialized unicast per destination —
        and it reserves no link, so the whole leg is a function of the
        owner alone: ``(latency per core index, max latency, cores
        grouped by latency in first-arrival order, messages, hops)``.
        Free under the ideal-handshake ablation (paper section 6.4)."""
        plan = self._broadcasts.get(owner_index)
        if plan is None:
            base = self.core_ids[owner_index] * self._nnodes
            hops = [0 if self.cfg.ideal_handshake else self._dist[base + dest]
                    for dest in self.core_ids]
            latency = [d * self._control.hop_latency for d in hops]
            groups: dict[int, list[int]] = {}
            for index, cycles in enumerate(latency):
                groups.setdefault(cycles, []).append(index)
            self._broadcasts[owner_index] = plan = (
                latency, max(latency), tuple(groups.items()),
                sum(1 for d in hops if d), sum(hops))
        return plan

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def enable_block_trace(self) -> None:
        """Record a :class:`repro.tflex.trace.BlockTrace` for every
        committed block (see ``repro.tflex.trace.render_timeline``).

        Implemented as a private sink on a fork of the system's trace
        bus: this processor's ``block.commit`` events feed the list
        without globally enabling tracing, and still reach any global
        sinks (``--trace-out``) when those are configured.
        """
        from repro.obs import CallbackSink

        self.block_trace: list = []
        self.obs = self.obs.fork(
            CallbackSink(self._record_block_trace, kinds=("block.commit",)))

    def _record_block_trace(self, event: dict) -> None:
        from repro.tflex.trace import BlockTrace

        self.block_trace.append(BlockTrace(
            gseq=event["gseq"], label=event["label"],
            owner_index=event["owner_index"],
            fetch_start=event["fetch_start"], fetch_cmd=event["fetch_cmd"],
            complete=event["complete"], commit_start=event["commit_start"],
            committed=event["committed"]))

    def note_occupancy(self) -> None:
        """Accumulate the in-flight-blocks time integral (call before
        any change to the in-flight set)."""
        now = self.queue.now
        self.stats.inflight_integral += len(self.inflight) * (now - self._occupancy_mark)
        self._occupancy_mark = now

    @property
    def done(self) -> bool:
        return self.halted

    def release_cores(self) -> None:
        """Detach from all cores (decomposition / recomposition)."""
        for core_id in self.core_ids:
            self.system.cores[core_id].release(self)

    def debug_state(self) -> str:
        """One-line-per-block snapshot for deadlock diagnostics."""
        lines = [f"{self.name}: halted={self.halted} inflight={len(self.inflight)}"]
        for instance in self.inflight:
            lines.append(
                f"  B{instance.gseq} {instance.block.label} {instance.state.value} "
                f"branch={instance.branch_done} "
                f"writes={instance.writes_done}/{instance.writes_expected} "
                f"stores={instance.stores_done}/{instance.stores_expected} "
                f"fired={instance.insts_fired_count}/{instance.block.size}")
        if self.stalled_fetch is not None:
            lines.append(f"  stalled fetch at {self.stalled_fetch[0]:#x}")
        if self.deferred_loads:
            lines.append(f"  deferred loads: {len(self.deferred_loads)}")
        return "\n".join(lines)
