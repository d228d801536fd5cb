"""Distributed control protocols of a composed processor.

Implements the owner-core protocols of paper section 4: block fetch
(tag access, next-block prediction, control hand-off to the next owner,
fetch-command distribution, per-core dispatch), misprediction and
dependence-violation recovery (flush + predictor/RAS repair), completion
detection by output counting, and the four-phase distributed commit
(commit command, architectural update, acknowledgment, deallocation).

Mixed into :class:`repro.tflex.processor.ComposedProcessor`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.isa.program import BLOCK_STRIDE, HALT_ADDR, ProgramError
from repro.mem.cache import LineState
from repro.predictor.exits import GLOBAL_HISTORY_EXITS, push_history
from repro.predictor.targets import BranchKind
from repro.tflex.instance import BlockInstance, BlockState

#: Hoisted enum member: squash checks guard every hot handler.
SQUASHED = BlockState.SQUASHED


#: Constant front-end latencies (paper figure 9a: the first three fetch
#: components — prediction, I-cache tag access, fetch pipeline — total a
#: constant seven cycles, except that one-core compositions make no
#: prediction).
TAG_LATENCY = 1
FETCH_PIPELINE_LATENCY = 3


class ProtocolMixin:
    """Fetch/flush/commit behaviour of a composed processor.

    ``_fetch_block``, ``_core_fetch_many``, ``_start_commit`` and
    ``_finish_commit`` are the processor's class-level aliases of the
    ``_do_*`` methods below, shadowed per instance by the profiler's
    ``fetch``/``commit`` phases when it is enabled.
    """

    # ------------------------------------------------------------------
    # Fetch chain
    # ------------------------------------------------------------------

    def start(self, addr: Optional[int] = None, ghist: int = 0) -> None:
        """Begin fetching — at the program's entry block by default, or
        at an injected ``(addr, ghist)`` resume point (sampled
        simulation restarts a detailed window mid-program)."""
        if addr is None:
            addr = self.program.address_of(self.program.entry)
        self.started = True
        self._schedule_fetch(addr, ghist=ghist, when=self.queue.now,
                             handoff_lat=0)

    def _schedule_fetch(self, addr: int, ghist: int, when: int,
                        handoff_lat: int) -> None:
        epoch = self.fetch_epoch
        self.queue.at(when, lambda: self._try_fetch(addr, ghist, epoch, handoff_lat))

    def _try_fetch(self, addr: int, ghist: int, epoch: int, handoff_lat: int) -> None:
        if self.halted or epoch != self.fetch_epoch:
            return
        try:
            self.program.label_at(addr)
        except ProgramError:
            # Predicted into space that holds no block (e.g. a BTB alias
            # or a prediction past HALT).  Fetch stalls until the
            # mispredicted branch resolves and redirects.
            return
        if len(self.inflight) >= self.max_inflight:
            self.stalled_fetch = (addr, ghist, epoch, handoff_lat)
            return
        self._fetch_block(addr, ghist, handoff_lat)

    def _do_fetch_block(self, addr: int, ghist: int, handoff_lat: int) -> None:
        self.note_occupancy()
        now = self.queue.now
        block = self.program.block_at(addr)
        decoded = self.decoded(block)
        owner_index = self.owner_index_of(addr)
        instance = BlockInstance(
            gseq=self.next_gseq, block=block, addr=addr,
            owner_index=owner_index, ghist_before=ghist,
            t_fetch_start=now, proc=self, decoded=decoded,
            operands=decoded.operands[:], missing=decoded.missing[:],
        )
        self.next_gseq += 1
        self.inflight.append(instance)
        self.instances[instance.gseq] = instance
        self.stats.blocks_fetched += 1
        self.stats.insts_fetched += block.size
        self._events["icache_tag"] += 1

        owner_core = self.core_of_index(owner_index)
        t_cmd = now + TAG_LATENCY + FETCH_PIPELINE_LATENCY

        prediction_lat = 0
        if self.speculative:
            prediction_lat = self._predict_next(instance, owner_core, now)

        # Declare the block's register-write set to the banks.  This is
        # carried by the fetch command; it is applied here, synchronously
        # and in gseq order, so a younger block's read can never race
        # ahead of an older block's declaration.
        gseq = instance.gseq
        for bank_index, reg in decoded.write_slots:
            self.rf_banks[bank_index].declare(gseq, (reg,))

        # Broadcast the fetch command to every participating core (a
        # multicast on the control network).  Cores whose command
        # arrives on the same cycle share one event: within this
        # handler the scheduled events are consecutive, so folding
        # same-cycle deliveries preserves the global event order
        # exactly (no foreign event can interleave).
        __, distribution, groups, msgs, hops = self.control_broadcast(owner_index)
        if msgs:
            self._events["control_msg"] += msgs
            self._events["control_hop"] += hops
        for latency, group in groups:
            self.queue.at(t_cmd + latency,
                          partial(self._core_fetch_many, instance, group))

        instance.t_fetch_cmd = t_cmd
        instance.fetch_parts = {
            "prediction": prediction_lat,
            "tag": TAG_LATENCY,
            "pipeline": FETCH_PIPELINE_LATENCY,
            "handoff": handoff_lat,
            "distribution": distribution,
            "dispatch": 0,
        }
        instance.state = BlockState.EXECUTING
        obs = self.obs
        if obs.active:
            obs.emit("block.fetch", cycle=now, proc=self.name,
                     gseq=instance.gseq, label=block.label, addr=addr,
                     owner_index=owner_index)

    def _predict_next(self, instance: BlockInstance, owner_core: int,
                      now: int) -> int:
        """Run the owner's next-block predictor; chains the next fetch."""
        bank = self.predictor_bank(instance.owner_index)
        self.stats.count("predictor_access")
        self.stats.predictions += 1
        prediction = bank.predict(instance.addr, instance.ghist_before, self.ras)
        instance.prediction = prediction

        t_pred = now + TAG_LATENCY + bank.latency
        if prediction.ras_core is not None and not self.cfg.ideal_handshake:
            # RAS traffic: a pop must round-trip to the core holding the
            # stack top before the target is known; a push is
            # fire-and-forget.
            ras_core = self.core_of_index(prediction.ras_core % self.ncores)
            if prediction.kind is BranchKind.RETURN:
                t_pred += 2 * self.system.control.zero_load_delay(owner_core, ras_core)

        next_owner = self.core_of_index(self.owner_index_of(prediction.next_addr))
        arrive = self.control_delay(owner_core, next_owner, t_pred)
        self._schedule_fetch(prediction.next_addr, prediction.next_global_history,
                             arrive, handoff_lat=arrive - t_pred)
        return bank.latency

    # ------------------------------------------------------------------
    # Per-core fetch + dispatch
    # ------------------------------------------------------------------

    def _do_core_fetch_many(self, instance: BlockInstance,
                            core_indices: list[int]) -> None:
        """Same-cycle fetch-command arrivals, folded into one event."""
        for core_index in core_indices:
            self._do_core_fetch(instance, core_index)

    def _do_core_fetch(self, instance: BlockInstance, core_index: int) -> None:
        """One participating core fetches and dispatches its interleaved
        slice of the block (plus the register reads banked on it)."""
        if instance.state is SQUASHED:
            return
        now = self.queue.now
        core = self.system.cores[self.core_of_index(core_index)]
        decoded = instance.decoded

        # Register reads banked on this core resolve after header decode.
        my_reads = decoded.reads_by_core[core_index]
        if my_reads:
            self.queue.at(now + 1,
                          partial(self._dispatch_reads, instance, my_reads))

        groups = decoded.groups[core_index]
        if not groups:
            return

        # I-cache: the slice occupies ceil(4*|chunk| / line) lines.  The
        # I-cache is private, so keying lines by block address + offset
        # is unique within this core (different cores cache their own
        # slices under the same keys, which models per-core footprint
        # shrinking as composition grows).
        cfg = self.cfg.core
        events = self._events
        t = now
        for line_no in range(decoded.icache_lines[core_index]):
            line_addr = instance.addr + line_no * self.cfg.line_size
            events["icache_access"] += 1
            t += cfg.icache_hit
            if not core.icache.access(self.ctx, line_addr):
                done, state = self.system.l2.read(self.ctx, line_addr, core.id, t)
                core.icache.fill(self.ctx, line_addr, state)
                events["l2_access"] += 1
                t = done

        # Dispatch in groups of dispatch_width per cycle.
        for g, group in enumerate(groups):
            self.queue.at(t + g + 1,
                          partial(self._dispatch_group, instance, group, core))
        t_done = t + len(groups)
        dispatch_lat = t_done - now
        if dispatch_lat > instance.fetch_parts.get("dispatch", 0):
            instance.fetch_parts["dispatch"] = dispatch_lat

    def _dispatch_reads(self, instance: BlockInstance, reads: tuple) -> None:
        if instance.state is SQUASHED:
            return
        for read in reads:
            self.dispatch_read(instance, read)

    def _dispatch_group(self, instance: BlockInstance, group, core) -> None:
        """Dispatch a packet of instruction records into the window; one
        whose operands all arrived earlier is ready at once."""
        if instance.state is SQUASHED:
            return
        missing = instance.missing
        events = self._events
        for record in group:
            events["window_write"] += 1
            missing[record.iid] -= 1
            if not missing[record.iid]:
                core.wake(instance, record)

    # ------------------------------------------------------------------
    # Branch resolution and misprediction recovery
    # ------------------------------------------------------------------

    def _on_branch_resolved(self, instance: BlockInstance, record,
                            next_addr: int) -> None:
        if instance.state is SQUASHED or instance.branch_done:
            return
        instance.branch_done = True
        instance.actual_exit = record.exit_id
        instance.actual_kind = BranchKind.of_opcode(record.op.name)
        instance.actual_next = next_addr

        prediction = instance.prediction
        if prediction is not None:
            if prediction.next_addr == next_addr:
                self.stats.predictions_correct += 1
            else:
                self._mispredict(instance)
        self._check_complete(instance)

    def _mispredict(self, instance: BlockInstance) -> None:
        """Owner-initiated recovery: flush younger blocks, repair
        speculative predictor and RAS state, redirect fetch."""
        self.stats.mispredictions += 1
        obs = self.obs
        if obs.active:
            obs.emit("block.mispredict", cycle=self.queue.now,
                     proc=self.name, gseq=instance.gseq,
                     predicted=instance.prediction.next_addr,
                     actual=instance.actual_next)
        self.flush_from(instance.gseq + 1, reason="mispredict", refetch=False)

        # Repair this block's own speculative state: push the *actual*
        # exit into its local history, and redo its RAS effect with the
        # actual branch kind.
        prediction = instance.prediction
        bank = self.predictor_bank(instance.owner_index)
        bank.exits.repair(prediction.checkpoint.exit_prediction,
                          actual_exit=instance.actual_exit)
        if prediction.checkpoint.ras_checkpoint is not None:
            self.ras.restore(prediction.checkpoint.ras_checkpoint)
            prediction.checkpoint.ras_checkpoint = None
        if instance.actual_kind is BranchKind.CALL:
            prediction.checkpoint.ras_checkpoint = self.ras.push(
                instance.addr + BLOCK_STRIDE)   # sequential next block
        elif instance.actual_kind is BranchKind.RETURN:
            __, cp = self.ras.pop()
            prediction.checkpoint.ras_checkpoint = cp

        corrected = push_history(instance.ghist_before, instance.actual_exit,
                                 GLOBAL_HISTORY_EXITS)
        self._redirect_fetch(instance.actual_next, corrected,
                             self.queue.now + self.cfg.flush_penalty)

    def _redirect_fetch(self, addr: int, ghist: int, when: int) -> None:
        self.fetch_epoch += 1
        self.stalled_fetch = None
        if addr != HALT_ADDR:
            self._schedule_fetch(addr, ghist, when, handoff_lat=0)

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------

    def flush_from(self, gseq: int, reason: str, refetch: bool = True) -> None:
        """Squash all in-flight blocks with sequence >= gseq.

        Repairs speculative predictor/RAS state youngest-first.  When
        ``refetch`` (dependence violations), fetch restarts at the oldest
        squashed block's address.
        """
        victims = [i for i in self.inflight if i.gseq >= gseq and not i.state is SQUASHED]
        if not victims:
            return
        self.note_occupancy()
        victims.sort(key=lambda i: i.gseq, reverse=True)
        for victim in victims:
            victim.state = BlockState.SQUASHED
            self.stats.blocks_squashed += 1
            if victim.prediction is not None:
                self.predictor_bank(victim.owner_index).repair(
                    victim.prediction, self.ras)
            self.instances.pop(victim.gseq, None)
        cut = victims[-1].gseq
        obs = self.obs
        if obs.active:
            obs.emit("block.squash", cycle=self.queue.now, proc=self.name,
                     reason=reason, count=len(victims), oldest_gseq=cut)
        self.inflight = [i for i in self.inflight if i.gseq < cut]
        for bank in self.rf_banks:
            bank.squash_from(cut)
        for index in range(self.num_dbanks):
            self.system.cores[self.dbank_core(index)].lsq.squash_from(cut, ctx=self.ctx)
        self.deferred_loads = [
            (inst, i, a) for (inst, i, a) in self.deferred_loads if not inst.state is SQUASHED
        ]
        if refetch:
            oldest = victims[-1]
            self._redirect_fetch(oldest.addr, oldest.ghist_before,
                                 self.queue.now + self.cfg.flush_penalty)

    # ------------------------------------------------------------------
    # Completion and commit
    # ------------------------------------------------------------------

    def _on_store_resolved(self, instance: BlockInstance, lsq_id: int) -> None:
        if instance.state is SQUASHED or lsq_id in instance.resolved_store_slots:
            return
        instance.resolved_store_slots.add(lsq_id)
        instance.stores_done += 1
        self._wake_deferred_loads()
        self._check_complete(instance)

    def _on_write_resolved(self, instance: BlockInstance) -> None:
        if instance.state is SQUASHED:
            return
        instance.writes_done += 1
        self._check_complete(instance)

    def _check_complete(self, instance: BlockInstance) -> None:
        if instance.state is not BlockState.EXECUTING:
            return
        if instance.outputs_complete:
            instance.state = BlockState.COMPLETE
            instance.t_complete = self.queue.now
            self._try_commit()

    def _try_commit(self) -> None:
        """Launch commits in order, but pipelined: a complete block may
        start its commit protocol as soon as every older block has
        *started* (not finished) committing — the paper overlaps fetch,
        execution, and commit of consecutive blocks (section 4.1).
        Deallocations still complete in order."""
        for instance in self.inflight:
            if instance.state is BlockState.COMPLETE:
                self._start_commit(instance)
            elif instance.state is not BlockState.COMMITTING:
                break

    def _do_start_commit(self, instance: BlockInstance) -> None:
        """Four-phase distributed commit (paper section 4.6)."""
        instance.state = BlockState.COMMITTING
        now = self.queue.now
        instance.t_commit_start = now

        # Phase 2: commit command to all participating cores.
        # Phase 3: each core updates architectural state (register and
        # store drains proceed in parallel across banks) and acks.
        writes_per_bank = instance.decoded.writes_per_bank
        gseq = instance.gseq
        stores_per_bank = [
            self.system.cores[self._dbank_core_ids[b]].lsq
                .store_count_of_block(gseq, ctx=self.ctx)
            for b in range(self.num_dbanks)
        ]

        latency, max_latency, __, msgs, hops = self.control_broadcast(
            instance.owner_index)
        if msgs:
            self._events["control_msg"] += 3 * msgs
            self._events["control_hop"] += 3 * hops
        t_acks = now
        max_update = 0
        for index in range(self.ncores):
            drain = 0
            for b in self._rf_banks_at[index]:
                if writes_per_bank[b] > drain:
                    drain = writes_per_bank[b]
            for b in self._dbanks_at[index]:
                if stores_per_bank[b] > drain:
                    drain = stores_per_bank[b]
            if drain > max_update:
                max_update = drain
            t_ack = now + 2 * latency[index] + drain   # command out, ack back
            if t_ack > t_acks:
                t_acks = t_ack

        # Phase 4: deallocation broadcast.
        t_dealloc = t_acks + max_latency

        instance.commit_parts = {
            "state_update": max_update,
            "handshake": (t_dealloc - now) - max_update,
        }
        # Deallocations complete in block order even when commits overlap.
        t_dealloc = max(t_dealloc, self._last_dealloc + 1)
        self._last_dealloc = t_dealloc
        self.queue.at(t_dealloc, lambda: self._finish_commit(instance))

    def _do_finish_commit(self, instance: BlockInstance) -> None:
        """Apply architectural effects and free the block's frame."""
        if instance.state is SQUASHED:
            return   # flushed mid-commit (dependence violation upstream)
        self.note_occupancy()
        gseq = instance.gseq
        assert self.inflight and self.inflight[0] is instance, "commit out of order"
        self.inflight.pop(0)
        self.instances.pop(gseq, None)
        instance.state = BlockState.COMMITTED

        # Stores: drain to memory in LSQ-id order, touching the D-cache
        # and directory (post-commit write buffer; timing is off the
        # commit critical path).
        drained = []
        for b in range(self.num_dbanks):
            bank_core = self.dbank_core(b)
            lsq = self.system.cores[bank_core].lsq
            for entry in lsq.stores_of_block(gseq, ctx=self.ctx):
                drained.append((entry, bank_core))
            lsq.release_block(gseq, ctx=self.ctx)
        drained.sort(key=lambda pair: pair[0].lsq_id)
        for entry, bank_core in drained:
            self.memory.store(entry.addr, entry.size, entry.value, fp=entry.fp)
            self._commit_store_to_cache(entry, bank_core)
        self.stats.stores_committed += len(drained)

        # Register writes become architectural.
        events = self._events
        for bank_index, reg in instance.decoded.write_slots:
            self.rf_banks[bank_index].commit(gseq, reg)
            events["commit_write"] += 1

        # Train the predictor with the resolved block.
        if instance.prediction is not None:
            self.predictor_bank(instance.owner_index).update(
                instance.prediction, instance.actual_exit,
                instance.actual_kind, instance.actual_next)

        self.stats.blocks_committed += 1
        self.stats.insts_committed += instance.insts_fired_count
        self.stats.fetch_latency.record(**instance.fetch_parts)
        self.stats.commit_latency.record(**instance.commit_parts)

        # Resume point for a fast-forward engine: the committed path's
        # next block and the architectural global history after it.
        self.last_commit_next = instance.actual_next
        self.last_commit_ghist = push_history(
            instance.ghist_before, instance.actual_exit, GLOBAL_HISTORY_EXITS)
        if self.measure_after is not None \
                and self.stats.blocks_committed == self.measure_after:
            self.measure_mark = (self.queue.now, self.stats.insts_committed)

        # ``enable_block_trace`` consumes this from a private bus fork;
        # ``--trace-out`` sinks see it globally.
        obs = self.obs
        if obs.active:
            obs.emit("block.commit", cycle=self.queue.now, proc=self.name,
                     gseq=gseq, label=instance.block.label,
                     owner_index=instance.owner_index,
                     fetch_start=instance.t_fetch_start,
                     fetch_cmd=instance.t_fetch_cmd,
                     complete=instance.t_complete,
                     commit_start=instance.t_commit_start,
                     committed=self.queue.now,
                     insts=instance.insts_fired_count)

        self._wake_deferred_loads()

        if instance.actual_next == HALT_ADDR:
            self._halt()
            return
        if self.commit_limit is not None \
                and self.stats.blocks_committed >= self.commit_limit:
            # End of a detailed sampling window: stop cleanly (the halt
            # flush repairs all speculative predictor/RAS state, so the
            # structures exported afterwards are architecturally clean).
            self._halt()
            return

        if not self.speculative:
            ghist = push_history(instance.ghist_before, instance.actual_exit,
                                 GLOBAL_HISTORY_EXITS)
            self._schedule_fetch(instance.actual_next, ghist,
                                 self.queue.now, handoff_lat=0)
        elif self.stalled_fetch is not None:
            addr, ghist, epoch, handoff_lat = self.stalled_fetch
            self.stalled_fetch = None
            if epoch == self.fetch_epoch:
                self._schedule_fetch(addr, ghist, self.queue.now, handoff_lat)

        self._try_commit()

    def _commit_store_to_cache(self, entry, bank_core: int) -> None:
        """Write-path coherence for one committed store."""
        core = self.system.cores[bank_core]
        self.stats.count("dcache_write")
        if core.dcache.probe(self.ctx, entry.addr) is LineState.MODIFIED:
            core.dcache.access(self.ctx, entry.addr, write=True)
            return
        # Upgrade or write-allocate through the directory.
        self.stats.count("l2_access")
        __, state = self.system.l2.write(self.ctx, entry.addr, bank_core,
                                         self.queue.now)
        victim = core.dcache.fill(self.ctx, entry.addr, state)
        if victim is not None:
            self.system.l2.l1_evicted(*victim, bank_core)
        core.dcache.access(self.ctx, entry.addr, write=True)

    # ------------------------------------------------------------------
    # Halt
    # ------------------------------------------------------------------

    def _halt(self) -> None:
        self.fetch_epoch += 1
        self.stalled_fetch = None
        if self.inflight:
            self.flush_from(self.inflight[0].gseq, reason="halt", refetch=False)
        self.note_occupancy()
        self.halted = True
        self.system.note_halted()
        self.stats.cycles = self.queue.now - self.start_cycle
        obs = self.obs
        if obs.active:
            self.stats.to_metrics(obs.metrics, proc=self.name)
            obs.emit("proc.halt", cycle=self.queue.now, proc=self.name,
                     cycles=self.stats.cycles,
                     blocks_committed=self.stats.blocks_committed,
                     insts_committed=self.stats.insts_committed,
                     mispredictions=self.stats.mispredictions)

    def interrupt(self) -> None:
        """Abandon all in-flight blocks and halt at the last committed
        block (fault recovery).

        The halt flush repairs speculative predictor/RAS state exactly
        as a clean halt does, so architectural state (registers, memory,
        ``last_commit_next``/``last_commit_ghist``) sits precisely at
        the last committed block and every transferable structure is
        architecturally clean.  No-op on an already-halted processor.
        """
        if self.halted:
            return
        self.interrupted = True
        self._halt()
