"""Datapath behaviour of a composed processor: execution, operand
routing over the operand network, and the distributed memory path
(LSQ banks, D-cache banks, L2).

Mixed into :class:`repro.tflex.processor.ComposedProcessor`; every
method here assumes the state that class establishes.
"""

from __future__ import annotations

from functools import partial

from repro.isa.interp import ALU, BRANCH, LOAD, NULL, _PInst
from repro.lsq.bank import LsqResult
from repro.tflex.instance import BlockInstance, BlockState

#: Hoisted enum member: squash checks guard every hot handler.
SQUASHED = BlockState.SQUASHED


class _NullValue:
    """Operand-network token that nullifies a register write."""

    def __repr__(self) -> str:
        return "NULL"


NULL_VALUE = _NullValue()


def _run_all(fns: list) -> None:
    """Run a batch of same-cycle delivery thunks in order."""
    for fn in fns:
        fn()


class DatapathMixin:
    """Execution-side behaviour of a composed processor.

    Instructions arrive here as the program's records (``_PInst``);
    their routes are the fetching composition's
    (:class:`~repro.tflex.decode.DecodedBlock`).  ``issue``,
    ``_load_arrive`` and ``_store_arrive`` are bound by the processor's
    constructor to the ``_do_*`` methods below (through the profiler's
    ``execute``/``lsq`` phases when it is enabled).
    """

    # ------------------------------------------------------------------
    # Issue (called by Core at issue time)
    # ------------------------------------------------------------------

    def _do_issue(self, instance: BlockInstance, record: _PInst, core) -> None:
        """Execute one instruction; results appear after its latency."""
        queue = self.queue
        now = queue.now
        self._events[record.energy] += 1
        kind = record.kind
        operands = instance.operands
        base = record.base
        if kind == ALU:
            value = record.evalf(operands[base + 1], operands[base + 2])
            queue.at(now + record.latency, partial(
                self._route_result, instance,
                instance.decoded.routes[record.iid], value, core.id))
            return
        done = now + record.latency
        if kind == BRANCH:
            next_addr = record.next_addr
            if next_addr is None:     # RET
                next_addr = int(operands[base + 1])
            arrive = self.control_delay(
                core.id, self.core_ids[instance.owner_index], done)
            queue.at(arrive, partial(self._on_branch_resolved, instance,
                                     record, next_addr))
        elif kind == NULL:
            if record.null_store:
                arrive = self.control_delay(
                    core.id, self.core_ids[instance.owner_index], done)
                queue.at(arrive, partial(self._on_store_resolved, instance,
                                         record.lsq_id))
            if record.targets:
                queue.at(done, partial(self._route_result, instance,
                                       instance.decoded.routes[record.iid],
                                       NULL_VALUE, core.id, True))
        else:
            # Memory: send the access to the bank its address hashes to.
            addr = int(operands[base + 1]) + record.offset
            if addr < 0:
                self._bad_address(instance, record, addr)
                return
            arrive = self.operand_delay(
                core.id, self.dbank_core(self.dbank_of(addr)), done)
            if kind == LOAD:
                queue.at(arrive, partial(self._load_arrive, instance, record,
                                         addr))
            else:
                queue.at(arrive, partial(self._store_arrive, instance, record,
                                         addr, operands[base + 2]))

    # ------------------------------------------------------------------
    # Operand routing
    # ------------------------------------------------------------------

    def _route_result(self, instance: BlockInstance, targets: tuple, value,
                      from_core: int, null: bool = False,
                      fold: bool = True) -> None:
        """Send a produced value along each pre-resolved dataflow route
        (see :func:`repro.tflex.decode._routes`).

        Deliveries landing on the same cycle are folded into one event
        (batched operand delivery) unless ``fold`` is off: the
        per-target ``operand_delay`` calls still run in target order —
        so link reservations and traffic stats are untouched — and
        within this handler the scheduled events are consecutive, so no
        foreign event can interleave; folding preserves the global order
        exactly.
        """
        if instance.state is SQUASHED:
            return
        queue = self.queue
        now = queue.now
        fold = fold and len(targets) > 1
        pending_cycle = -1
        for dest_id, dest, a, b in targets:
            arrive = self.operand_delay(from_core, dest_id, now)
            if dest is None:
                fn = partial(self._on_write_arrive, instance, a, value, null, b)
            else:
                fn = partial(self._deliver_operand, instance, a, b, value, dest)
            if not fold:
                queue.at(arrive, fn)
            elif arrive == pending_cycle:
                pending.append(fn)
            else:
                pending = [fn]
                pending_cycle = arrive
                queue.at(arrive, partial(_run_all, pending))

    def _deliver_operand(self, instance: BlockInstance, consumer: _PInst,
                         index: int, value, core) -> None:
        """An operand token reached its consumer's core: buffer it (it
        may precede dispatch) and wake the consumer if that was the last
        thing it waited for.  A second token for a slot overwrites the
        first without being counted again, so one arriving after the
        consumer fired is ignored."""
        if instance.state is SQUASHED:
            return
        self._events["window_write"] += 1
        operands = instance.operands
        missing = instance.missing
        if operands[index] is None:
            missing[consumer.iid] -= 1
        operands[index] = value
        if not missing[consumer.iid]:
            core.wake(instance, consumer)

    def _on_write_arrive(self, instance: BlockInstance, reg: int, value,
                         null: bool, bank_index: int) -> None:
        """A register write (or NULL) reached its register bank."""
        if instance.state is SQUASHED:
            return
        self._events["regfile_write"] += 1
        self.rf_banks[bank_index].produce(instance.gseq, reg, value, null=null)
        # The bank notifies the owner for completion counting.
        owner = self.core_of_index(instance.owner_index)
        bank_core = self._rf_bank_core_ids[bank_index]
        arrive = self.control_delay(bank_core, owner, self.queue.now)
        self.queue.at(arrive, partial(self._on_write_resolved, instance))

    # ------------------------------------------------------------------
    # Register reads (dispatched at the register bank's core)
    # ------------------------------------------------------------------

    def dispatch_read(self, instance: BlockInstance, read: tuple) -> None:
        """Resolve one compiled read slot against the bank's forwarding
        state; each target gets its own delivery event."""
        if instance.state is SQUASHED:
            return
        reg, bank_index, bank_core, targets = read
        self._events["regfile_read"] += 1
        self.rf_banks[bank_index].read(instance.gseq, reg, lambda value: (
            self._route_result(instance, targets, value, bank_core,
                               fold=False)))

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def _load_must_wait(self, instance: BlockInstance, record: _PInst) -> bool:
        """Dependence throttle for previously-violating loads: either
        the blunt all-older-stores rule or the store-set predictor."""
        key = record.dep_key
        if self.store_sets is not None:
            return self.store_sets.must_wait(key, instance.gseq, record.lsq_id,
                                             self.inflight)
        return key in self.dependence_set and not self.older_stores_resolved(
            instance.gseq, record.lsq_id)

    def _record_conflict(self, load_key: tuple, store_gseq, store_lsq) -> None:
        """Remember a load/store dependence for future throttling."""
        self.dependence_set.add(load_key)
        if self.store_sets is not None and store_gseq is not None:
            store_instance = self.instances.get(store_gseq)
            if store_instance is not None:
                self.store_sets.record_violation(
                    load_key, (store_instance.block.label, store_lsq))

    def _do_load_arrive(self, instance: BlockInstance, record: _PInst,
                        addr: int, parked: bool = False) -> None:
        """A load reached its LSQ/D-cache bank.  ``parked`` marks a
        throttled load re-presented by :meth:`_wake_deferred_loads`
        (which made the two checks below) and its NACK retries: its
        dependence is already on record."""
        if not parked:
            if instance.state is SQUASHED:
                return
            if self._load_must_wait(instance, record):
                # Throttled after an earlier violation.
                self.deferred_loads.append((instance, record, addr))
                return

        bank_index = self.dbank_of(addr)
        bank_core = self.dbank_core(bank_index)
        lsq = self.system.cores[bank_core].lsq
        self._events["lsq_search"] += 1
        outcome = lsq.load(instance.gseq, record.lsq_id, addr, record.size,
                           fp=record.fp, ctx=self.ctx)

        if outcome.result is LsqResult.NACK:
            self._handle_nack(instance, lsq)
            self.queue.after(self.cfg.nack_retry, partial(
                self._load_arrive, instance, record, addr, parked))
            return
        if outcome.result is LsqResult.CONFLICT:
            # Inexact overlap with an older in-flight store.  The bank
            # refused the load before it read anything, so no flush is
            # needed: record the dependence and park until the store
            # drains at commit.
            if not parked:
                self.stats.replays += 1
                self._record_conflict(record.dep_key, outcome.conflict_gseq,
                                      outcome.conflict_lsq)
            self.deferred_loads.append((instance, record, addr))
            return

        if outcome.result is LsqResult.FORWARD:
            self.queue.after(self.cfg.core.lsq_search, partial(
                self._finish_load, instance, record, outcome.value, bank_core))
            return

        # LsqResult.OK: go to the D-cache.
        now = self.queue.now
        dcache = self.system.cores[bank_core].dcache
        self._events["dcache_read"] += 1
        done = now + self.cfg.core.lsq_search + self.cfg.core.dcache_hit
        if not dcache.access(self.ctx, addr):
            # Miss: fetch the line from L2 (which may go to DRAM).
            self._events["l2_access"] += 1
            done, state = self.system.l2.read(self.ctx, addr, bank_core, done)
            victim = dcache.fill(self.ctx, addr, state)
            if victim is not None:
                self.system.l2.l1_evicted(victim.ctx, victim.line_addr, bank_core)
        self.queue.at(done, partial(self._finish_load_from_memory, instance,
                                    record, addr, bank_core))

    def _finish_load_from_memory(self, instance: BlockInstance,
                                 record: _PInst, addr: int,
                                 bank_core: int) -> None:
        """Read the architectural value at reply time (committed state)."""
        if instance.state is SQUASHED:
            return
        value = self.memory.load(addr, record.size, fp=record.fp)
        self._finish_load(instance, record, value, bank_core)

    def _finish_load(self, instance: BlockInstance, record: _PInst,
                     value, bank_core: int) -> None:
        if instance.state is SQUASHED:
            return
        self.stats.loads_executed += 1
        self._route_result(instance, instance.decoded.routes[record.iid],
                           value, bank_core)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def _do_store_arrive(self, instance: BlockInstance, record: _PInst,
                         addr: int, value) -> None:
        if instance.state is SQUASHED:
            return
        bank_core = self.dbank_core(self.dbank_of(addr))
        lsq = self.system.cores[bank_core].lsq
        self._events["lsq_search"] += 1
        outcome = lsq.store(instance.gseq, record.lsq_id, addr, record.size,
                            value, fp=record.fp, ctx=self.ctx)

        if outcome.result is LsqResult.NACK:
            self._handle_nack(instance, lsq)
            self.queue.after(self.cfg.nack_retry, partial(
                self._store_arrive, instance, record, addr, value))
            return

        if outcome.result is LsqResult.CONFLICT:
            # Dependence violation: a younger load already executed.
            self.stats.violations += 1
            victim = self.instances.get(outcome.violation_gseq)
            if victim is not None and outcome.violation_lsq is not None:
                self._record_conflict(
                    (victim.block.label, outcome.violation_lsq),
                    instance.gseq, record.lsq_id)
            self.flush_from(outcome.violation_gseq, reason="violation")
            if instance.state is SQUASHED:
                return   # the store's own block was the violator's block

        # Store accepted: notify the owner that this slot resolved.
        owner = self.core_of_index(instance.owner_index)
        done = self.queue.now + self.cfg.core.lsq_search
        arrive = self.control_delay(bank_core, owner, done)
        self.queue.at(arrive, partial(self._on_store_resolved, instance,
                                      record.lsq_id))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _bad_address(self, instance: BlockInstance, record: _PInst,
                     addr: int) -> None:
        """Drop an access to a garbage address (wrong-path speculation
        can compute anything).  The issuing block never completes; a
        correct-path occurrence therefore surfaces as a simulation
        deadlock diagnostic rather than silent corruption."""
        self.stats.count("bad_address")

    def _handle_nack(self, instance: BlockInstance, lsq) -> None:
        """LSQ overflow policy (paper section 4.5, NACK mechanism).

        A NACKed access retries after a delay.  If the bank is occupied
        by *younger* blocks than the requester, retrying alone livelocks
        — the younger blocks cannot commit before the requester — so the
        youngest occupant (and everything younger) is flushed to free
        entries; occupancy by older blocks drains naturally at commit.
        """
        self.stats.nacks += 1
        if not self.inflight or self.inflight[0] is not instance:
            return   # younger requesters wait: older blocks drain at commit
        youngest = lsq.youngest_gseq(ctx=self.ctx)
        if youngest is not None and youngest > instance.gseq:
            self.stats.count("lsq_overflow_flush")
            self.flush_from(youngest, reason="lsq-overflow")

    def older_stores_resolved(self, gseq: int, lsq_id: int) -> bool:
        """True when every store older than (gseq, lsq_id) has resolved
        (executed, nullified, or its block committed/squashed)."""
        for other in self.inflight:
            if other.state is SQUASHED or other.gseq > gseq:
                continue
            if other.gseq == gseq:
                if any(slot < lsq_id and slot not in other.resolved_store_slots
                       for slot in other.block.store_ids):
                    return False
            elif other.stores_done < other.stores_expected:
                return False
        return True

    def _wake_deferred_loads(self) -> None:
        if not self.deferred_loads:
            return
        pending, self.deferred_loads = self.deferred_loads, []
        for instance, record, addr in pending:
            if instance.state is SQUASHED:
                continue
            if not self._load_must_wait(instance, record):
                # Re-present to the bank (charging a fresh LSQ search).
                self._do_load_arrive(instance, record, addr, parked=True)
            else:
                self.deferred_loads.append((instance, record, addr))
