"""Unit tests for simulator components: event queue, config, placement,
register-file banks, block instances, stats."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import BlockBuilder, Program
from repro.isa.instruction import OperandSlot
from repro.isa.interp import prepare_block
from repro.tflex import (TFLEX, BlockState, EventQueue, TFlexSystem, pack,
                         rectangle, tflex_config, trips_config)
from repro.tflex.instance import BlockInstance
from repro.tflex.regfile import RegfileBank
from repro.tflex.stats import LatencyBreakdown, ProcStats


class TestEventQueue:
    def test_ordering(self):
        q = EventQueue()
        order = []
        q.at(5, lambda: order.append("b"))
        q.at(3, lambda: order.append("a"))
        q.at(5, lambda: order.append("c"))   # same cycle: insertion order
        q.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.at(7, lambda: seen.append(q.now))
        q.run()
        assert seen == [7]

    def test_after_is_relative(self):
        q = EventQueue()
        seen = []
        q.at(10, lambda: q.after(5, lambda: seen.append(q.now)))
        q.run()
        assert seen == [15]

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.at(10, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.at(5, lambda: None)

    def test_max_cycles(self):
        q = EventQueue()

        def tick():
            q.after(1, tick)

        q.at(0, tick)
        assert q.run(max_cycles=100) is False

    def test_budget_exhaustion_keeps_the_next_event(self):
        """The first event past the budget must stay queued, not be
        popped and dropped: a resumed run executes it."""
        q = EventQueue()
        ran = []
        for cycle in (5, 200, 300):
            q.at(cycle, lambda cycle=cycle: ran.append(cycle))
        assert q.run(max_cycles=100) is False
        assert ran == [5] and q.events_processed == 1
        assert sum(map(len, q._buckets.values())) == 2
        assert q.run(max_cycles=1000) is True
        assert ran == [5, 200, 300] and q.events_processed == 3


class TestConfig:
    def test_default_is_paper_table1(self):
        core = TFLEX.core
        assert core.window_entries == 128
        assert core.issue_int == 2 and core.issue_fp == 1
        assert core.icache_bytes == 8 * 1024
        assert core.dcache_bytes == 8 * 1024
        assert core.dcache_hit == 2
        assert core.lsq_entries == 44
        assert core.predictor_latency == 3
        assert core.local_l1 == 64 and core.local_l2 == 128
        assert core.global_entries == 512 and core.choice_entries == 512
        assert core.ras_entries == 16 and core.ctb_entries == 16
        assert core.btb_entries == 128 and core.btype_entries == 256
        assert TFLEX.num_cores == 32
        assert TFLEX.l2_banks * TFLEX.l2_bank_bytes == 4 * 1024 * 1024
        assert TFLEX.dram_latency == 150
        assert TFLEX.opn_channels == 2

    def test_trips_mode(self):
        cfg = trips_config()
        assert cfg.num_cores == 16
        assert cfg.core.issue_total == 1
        assert cfg.opn_channels == 1
        assert cfg.centralized_predictor
        assert cfg.dcache_banks == 4
        assert cfg.regfile_banks == 4
        assert cfg.max_inflight == 8
        cfg.validate()

    def test_sized_configs(self):
        for n in (1, 2, 4, 8, 16, 32):
            cfg = tflex_config(n)
            assert cfg.num_cores == n
            cfg.validate()
        with pytest.raises(ValueError):
            tflex_config(3)

    def test_validate_rejects_bad_mesh(self):
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(TFLEX, num_cores=30).validate()


class TestPlacement:
    @pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32])
    def test_rectangle_sizes(self, size):
        cores = rectangle(TFLEX, size)
        assert len(cores) == size
        assert len(set(cores)) == size
        assert all(0 <= c < 32 for c in cores)

    def test_rectangle_is_contiguous(self):
        cores = rectangle(TFLEX, 4, (2, 3))
        assert cores == [14, 15, 18, 19]

    def test_rectangle_out_of_bounds(self):
        with pytest.raises(ValueError):
            rectangle(TFLEX, 32, (1, 0))

    def test_pack_disjoint(self):
        groups = pack(TFLEX, [8, 8, 4, 4, 2, 2, 1, 1])
        seen = set()
        for group in groups:
            assert not (seen & set(group))
            seen |= set(group)
        assert len(seen) == 30

    def test_pack_full_chip(self):
        groups = pack(TFLEX, [16, 8, 4, 2, 2])
        assert sum(len(g) for g in groups) == 32

    def test_pack_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack(TFLEX, [16, 16, 8])

    @given(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=8))
    def test_pack_property(self, sizes):
        if sum(sizes) > 32:
            return
        groups = pack(TFLEX, sizes)
        flat = [c for g in groups for c in g]
        assert len(flat) == len(set(flat)) == sum(sizes)


class TestRegfileBank:
    def test_architectural_read(self):
        regs = [0] * 128
        regs[5] = 99
        bank = RegfileBank(regs)
        got = []
        assert bank.read(gseq=0, reg=5, deliver=got.append)
        assert got == [99]

    def test_forward_from_resolved_writer(self):
        bank = RegfileBank([0] * 128)
        bank.declare(1, [5])
        bank.produce(1, 5, 42)
        got = []
        assert bank.read(gseq=2, reg=5, deliver=got.append)
        assert got == [42]
        assert bank.stats.forwards == 1

    def test_read_waits_for_pending_writer(self):
        bank = RegfileBank([0] * 128)
        bank.declare(1, [5])
        got = []
        assert not bank.read(gseq=2, reg=5, deliver=got.append)
        assert got == []
        bank.produce(1, 5, 7)
        assert got == [7]
        assert bank.stats.stalls == 1

    def test_read_ignores_younger_writers(self):
        regs = [0] * 128
        regs[5] = 11
        bank = RegfileBank(regs)
        bank.declare(3, [5])
        got = []
        assert bank.read(gseq=2, reg=5, deliver=got.append)
        assert got == [11]

    def test_null_write_chains_to_older(self):
        regs = [0] * 128
        regs[5] = 11
        bank = RegfileBank(regs)
        bank.declare(1, [5])
        bank.declare(2, [5])
        bank.produce(1, 5, 22)
        bank.produce(2, 5, None, null=True)
        got = []
        assert bank.read(gseq=3, reg=5, deliver=got.append)
        assert got == [22]

    def test_null_write_chains_to_architectural(self):
        regs = [0] * 128
        regs[5] = 11
        bank = RegfileBank(regs)
        bank.declare(1, [5])
        bank.produce(1, 5, None, null=True)
        got = []
        assert bank.read(gseq=2, reg=5, deliver=got.append)
        assert got == [11]

    def test_commit_applies_value(self):
        regs = [0] * 128
        bank = RegfileBank(regs)
        bank.declare(1, [5])
        bank.produce(1, 5, 42)
        bank.commit(1, 5)
        assert regs[5] == 42
        assert sum(map(len, bank._pending.values())) == 0

    def test_commit_null_leaves_register(self):
        regs = [0] * 128
        regs[5] = 11
        bank = RegfileBank(regs)
        bank.declare(1, [5])
        bank.produce(1, 5, None, null=True)
        bank.commit(1, 5)
        assert regs[5] == 11

    def test_commit_unresolved_rejected(self):
        bank = RegfileBank([0] * 128)
        bank.declare(1, [5])
        with pytest.raises(ValueError):
            bank.commit(1, 5)

    def test_squash_drops_pending(self):
        bank = RegfileBank([0] * 128)
        bank.declare(1, [5])
        bank.declare(2, [5])
        bank.squash_from(2)
        assert sum(map(len, bank._pending.values())) == 1
        bank.squash_from(0)
        assert sum(map(len, bank._pending.values())) == 0

    def test_out_of_order_declare_rejected(self):
        bank = RegfileBank([0] * 128)
        bank.declare(2, [5])
        with pytest.raises(ValueError):
            bank.declare(1, [5])

    def test_chained_stall_through_null(self):
        """Reader waits on a pending writer that resolves NULL; value
        must chain to the next older resolved writer."""
        bank = RegfileBank([0] * 128)
        bank.declare(1, [5])
        bank.declare(2, [5])
        bank.produce(1, 5, 33)
        got = []
        bank.read(gseq=3, reg=5, deliver=got.append)
        assert got == []
        bank.produce(2, 5, None, null=True)
        assert got == [33]


class TestBlockInstance:
    """The readiness step on a fetched (not yet run) instance: operand
    arrival (``_deliver_operand``) and dispatch (``_dispatch_group``)
    count ``missing`` down; ``Core.wake`` queues or squashes at zero."""

    def _instance(self):
        b = BlockBuilder("t")
        x = b.read(1)
        y = b.op("ADDI", x, imm=1)
        p = b.op("TLTI", y, imm=10)
        b.op("ADDI", y, imm=2, pred=(p, True))
        b.write(1, y)
        b.branch("HALT", exit_id=0)
        block = b.build()
        program = Program(entry="t", name="unit")
        program.add_block(block)
        system = TFlexSystem(tflex_config(1))
        proc = system.compose([0], program)
        decoded = proc.decoded(block)
        instance = BlockInstance(
            gseq=0, block=block, addr=0x10000, owner_index=0, ghist_before=0,
            proc=proc, decoded=decoded, operands=decoded.operands[:],
            missing=decoded.missing[:])
        return instance, block

    @staticmethod
    def _deliver(instance, iid, slot, value):
        proc = instance.proc
        record = prepare_block(proc.program, instance.block).insts[iid]
        proc._deliver_operand(instance, record, iid << 2 | slot, value,
                              proc.system.cores[0])

    @staticmethod
    def _dispatch(instance, iid):
        proc = instance.proc
        record = prepare_block(proc.program, instance.block).insts[iid]
        proc._dispatch_group(instance, (record,), proc.system.cores[0])

    def test_not_ready_before_dispatch(self):
        instance, block = self._instance()
        core = instance.proc.system.cores[0]
        add = block.insts[1]
        self._deliver(instance, add.iid, OperandSlot.OP0, 5)
        assert len(core._ready) == 0
        assert instance.missing[add.iid] == 1     # dispatch only
        self._dispatch(instance, add.iid)
        assert len(core._ready) == 1
        assert instance.missing[add.iid] == 0

    def test_predicate_mismatch_squashes(self):
        instance, block = self._instance()
        core = instance.proc.system.cores[0]
        predicated = next(i for i in block.insts if i.pred is not None)
        self._dispatch(instance, predicated.iid)
        self._deliver(instance, predicated.iid, OperandSlot.OP0, 5)
        self._deliver(instance, predicated.iid, OperandSlot.PRED, 0)  # needs 1
        assert len(core._ready) == 0
        assert instance.missing[predicated.iid] == -1    # retired

    def test_second_token_after_fire_ignored(self):
        instance, block = self._instance()
        core = instance.proc.system.cores[0]
        add = block.insts[1]
        self._dispatch(instance, add.iid)
        self._deliver(instance, add.iid, OperandSlot.OP0, 5)
        core._do_issue_tick()
        assert instance.insts_fired_count == 1
        assert instance.missing[add.iid] == -1
        self._deliver(instance, add.iid, OperandSlot.OP0, 7)
        assert len(core._ready) == 0
        assert instance.missing[add.iid] == -1

    def test_outputs_complete(self):
        instance, __ = self._instance()
        assert not instance.outputs_complete
        instance.branch_done = True
        assert not instance.outputs_complete
        instance.writes_done = 1
        assert instance.outputs_complete  # no stores declared


class TestStats:
    def test_latency_breakdown_means(self):
        lb = LatencyBreakdown()
        lb.record(a=2, b=4)
        lb.record(a=4, b=0)
        assert lb.mean("a") == 3
        assert lb.means() == {"a": 3.0, "b": 2.0}

    def test_empty_breakdown(self):
        lb = LatencyBreakdown()
        assert lb.mean("x") == 0.0
        assert lb.means() == {}

    def test_proc_stats_properties(self):
        stats = ProcStats()
        assert stats.ipc == 0.0
        assert stats.prediction_accuracy == 0.0
        assert stats.speculation_waste == 0.0
        stats.cycles = 100
        stats.insts_committed = 250
        assert stats.ipc == 2.5
        stats.count("alu_op", 5)
        assert stats.energy_events["alu_op"] == 5
