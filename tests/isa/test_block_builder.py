"""Unit tests for Target encoding, Block validation, and BlockBuilder."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    Block,
    BlockBuilder,
    BlockError,
    BlockTooLarge,
    Instruction,
    OperandSlot,
    Target,
    TargetKind,
    MAX_TARGETS,
    MAX_LSQ_IDS,
    MAX_READS,
    MAX_WRITES,
)
from repro.isa.opcodes import OPCODES


class TestTargetEncoding:
    @pytest.mark.parametrize("target", [
        Target(TargetKind.INST, 0, OperandSlot.PRED),
        Target(TargetKind.INST, 127, OperandSlot.OP0),
        Target(TargetKind.INST, 64, OperandSlot.OP1),
        Target(TargetKind.WRITE, 0),
        Target(TargetKind.WRITE, 31),
    ])
    def test_roundtrip(self, target):
        bits = target.encode()
        assert 0 <= bits < 512  # nine bits, as the paper states
        decoded = Target.decode(bits)
        assert decoded.kind == target.kind
        assert decoded.index == target.index
        if target.kind is TargetKind.INST:
            assert decoded.slot == target.slot

    @given(st.integers(min_value=0, max_value=127),
           st.sampled_from(list(OperandSlot)))
    def test_roundtrip_property(self, index, slot):
        t = Target(TargetKind.INST, index, slot)
        assert Target.decode(t.encode()) == t

    def test_distinct_encodings(self):
        seen = set()
        for index in range(128):
            for slot in OperandSlot:
                seen.add(Target(TargetKind.INST, index, slot).encode())
        for index in range(32):
            seen.add(Target(TargetKind.WRITE, index).encode())
        assert len(seen) == 128 * 3 + 32


def _minimal_block() -> Block:
    b = BlockBuilder("t")
    b.branch("HALT", exit_id=0)
    return b.build()


class TestBuilderBasics:
    def test_minimal_block_valid(self):
        block = _minimal_block()
        assert block.size == 1
        assert block.branches[0].op.name == "HALT"

    def test_iids_sequential(self):
        b = BlockBuilder("t")
        x = b.movi(1)
        y = b.op("ADDI", x, imm=2)
        b.write(5, y)
        b.branch("HALT", exit_id=0)
        block = b.build()
        assert [i.iid for i in block.insts] == list(range(block.size))

    def test_read_deduplication(self):
        b = BlockBuilder("t")
        a = b.read(4)
        c = b.read(4)
        assert a == c
        b.write(5, b.op("ADD", a, c))
        b.branch("HALT", exit_id=0)
        block = b.build()
        assert len(block.reads) == 1
        assert block.reads[0].reg == 4

    def test_write_slots_merge_by_register(self):
        b = BlockBuilder("t")
        p = b.op("TEQI", b.movi(1), imm=1)
        b.write(7, b.movi(10, pred=(p, True)))
        b.write(7, b.movi(20, pred=(p, False)))
        b.branch("HALT", exit_id=0)
        block = b.build()
        assert len(block.writes) == 1

    def test_lsq_ids_in_program_order(self):
        b = BlockBuilder("t")
        addr = b.movi(0x1000)
        v = b.movi(1)
        first = b.store(addr, v)
        __ = b.load(addr)
        second = b.store(addr, v, offset=8)
        b.branch("HALT", exit_id=0)
        block = b.build()
        assert first.lsq_id == 0
        assert second.lsq_id == 2
        loads = [i for i in block.insts if i.is_load]
        assert loads[0].lsq_id == 1

    def test_null_store_shares_lsq_id(self):
        b = BlockBuilder("t")
        p = b.op("TEQI", b.movi(0), imm=1)
        addr = b.movi(0x1000, pred=(p, True))
        v = b.movi(1, pred=(p, True))
        handle = b.store(addr, v, pred=(p, True))
        b.null_store(handle, pred=(p, False))
        b.branch("HALT", exit_id=0)
        block = b.build()
        nulls = [i for i in block.insts if i.is_null and i.null_store]
        assert len(nulls) == 1
        assert nulls[0].lsq_id == handle.lsq_id
        assert block.store_ids == frozenset({handle.lsq_id})

    def test_builder_single_use(self):
        b = BlockBuilder("t")
        b.branch("HALT", exit_id=0)
        b.build()
        with pytest.raises(BlockError):
            b.build()


class TestFanoutLegalization:
    @pytest.mark.parametrize("fanout", [1, 2, 3, 4, 7, 16, 40])
    def test_mov_tree_inserted(self, fanout):
        b = BlockBuilder("t")
        seed = b.movi(5)
        acc = None
        for __ in range(fanout):
            term = b.op("ADDI", seed, imm=1)
            acc = term if acc is None else b.op("ADD", acc, term)
        b.write(10, acc)
        b.branch("HALT", exit_id=0)
        block = b.build()  # validation checks every operand has a producer
        for inst in block.insts:
            assert len(inst.targets) <= MAX_TARGETS
        for read in block.reads:
            assert len(read.targets) <= MAX_TARGETS

    def test_read_fanout_legalized(self):
        b = BlockBuilder("t")
        v = b.read(3)
        acc = b.op("ADDI", v, imm=0)
        for k in range(10):
            acc = b.op("ADD", acc, v)
        b.write(10, acc)
        b.branch("HALT", exit_id=0)
        block = b.build()
        assert all(len(r.targets) <= MAX_TARGETS for r in block.reads)

    @pytest.mark.parametrize("fanout", [1, 2, 3, 4, 7, 16, 40])
    def test_legalized_size_predicts_build_exactly(self, fanout):
        b = BlockBuilder("t")
        seed = b.movi(5)
        acc = None
        for __ in range(fanout):
            term = b.op("ADDI", seed, imm=1)
            acc = term if acc is None else b.op("ADD", acc, term)
        b.write(10, acc)
        b.branch("HALT", exit_id=0)
        predicted = b.legalized_size
        assert predicted >= b.size
        block = b.build()
        assert block.size == predicted

    def test_legalized_size_counts_read_fanout(self):
        b = BlockBuilder("t")
        v = b.read(3)
        acc = b.op("ADDI", v, imm=0)
        for __ in range(10):
            acc = b.op("ADD", acc, v)
        b.write(10, acc)
        b.branch("HALT", exit_id=0)
        predicted = b.legalized_size
        assert predicted > b.size          # the read owes MOV-tree nodes
        assert b.build().size == predicted

    def test_too_many_insts_rejected(self):
        b = BlockBuilder("t")
        x = b.movi(0)
        for __ in range(130):
            x = b.op("ADDI", x, imm=1)
        b.write(10, x)
        b.branch("HALT", exit_id=0)
        with pytest.raises(BlockTooLarge):
            b.build()

    def test_too_many_memory_ops_rejected(self):
        b = BlockBuilder("t")
        addr = b.movi(0x1000)
        with pytest.raises(BlockTooLarge):
            for k in range(MAX_LSQ_IDS + 1):
                b.load(addr, offset=8 * k)

    def test_too_many_reads_rejected(self):
        b = BlockBuilder("t")
        with pytest.raises(BlockTooLarge):
            for reg in range(MAX_READS + 1):
                b.read(reg)

    def test_too_many_writes_rejected(self):
        b = BlockBuilder("t")
        v = b.movi(1)
        with pytest.raises(BlockTooLarge):
            for reg in range(MAX_WRITES + 1):
                b.write(reg, v)


class TestBuilderErrors:
    def test_unknown_opcode(self):
        b = BlockBuilder("t")
        with pytest.raises(BlockError):
            b.op("FROB")

    def test_wrong_operand_count(self):
        b = BlockBuilder("t")
        x = b.movi(1)
        with pytest.raises(BlockError):
            b.op("ADD", x)

    def test_missing_immediate(self):
        b = BlockBuilder("t")
        x = b.movi(1)
        with pytest.raises(BlockError):
            b.op("ADDI", x)

    def test_unexpected_immediate(self):
        b = BlockBuilder("t")
        x = b.movi(1)
        with pytest.raises(BlockError):
            b.op("ADD", x, x, imm=3)

    def test_memory_op_via_op_rejected(self):
        b = BlockBuilder("t")
        x = b.movi(1)
        with pytest.raises(BlockError):
            b.op("LDD", x, imm=0)

    def test_duplicate_exit_id(self):
        b = BlockBuilder("t")
        p = b.op("TEQI", b.movi(1), imm=1)
        b.branch("BRO", target="a", exit_id=0, pred=(p, True))
        with pytest.raises(BlockError):
            b.branch("BRO", target="b", exit_id=0, pred=(p, False))

    def test_ret_requires_addr(self):
        b = BlockBuilder("t")
        with pytest.raises(BlockError):
            b.branch("RET", exit_id=0)

    def test_null_store_requires_pred(self):
        b = BlockBuilder("t")
        addr = b.movi(0)
        handle = b.store(addr, addr)
        with pytest.raises(BlockError):
            b.null_store(handle, pred=None)


class TestBlockValidation:
    def test_missing_operand_producer(self):
        # Hand-construct an invalid block: ADD with no producers.
        add = Instruction(iid=0, op=OPCODES["ADD"])
        halt = Instruction(iid=1, op=OPCODES["HALT"], exit_id=0)
        block = Block(label="bad", insts=[add, halt])
        with pytest.raises(BlockError):
            block.validate()

    def test_no_branch_rejected(self):
        movi = Instruction(iid=0, op=OPCODES["MOVI"], imm=1)
        block = Block(label="bad", insts=[movi])
        with pytest.raises(BlockError):
            block.validate()

    def test_multiple_unpredicated_branches_rejected(self):
        b1 = Instruction(iid=0, op=OPCODES["HALT"], exit_id=0)
        b2 = Instruction(iid=1, op=OPCODES["HALT"], exit_id=1)
        block = Block(label="bad", insts=[b1, b2])
        with pytest.raises(BlockError):
            block.validate()

    def test_target_out_of_range(self):
        movi = Instruction(iid=0, op=OPCODES["MOVI"], imm=1,
                           targets=(Target(TargetKind.INST, 5, OperandSlot.OP0),))
        halt = Instruction(iid=1, op=OPCODES["HALT"], exit_id=0)
        block = Block(label="bad", insts=[movi, halt])
        with pytest.raises(BlockError):
            block.validate()

    def test_disassemble_smoke(self):
        b = BlockBuilder("demo", comment="smoke test")
        x = b.read(2)
        b.write(3, b.op("ADDI", x, imm=1))
        b.branch("HALT", exit_id=0)
        text = b.build().disassemble()
        assert "demo" in text
        assert "ADDI" in text
        assert "read" in text

    def test_insts_for_core_partition(self):
        b = BlockBuilder("t")
        x = b.movi(0)
        for __ in range(15):
            x = b.op("ADDI", x, imm=1)
        b.write(10, x)
        b.branch("HALT", exit_id=0)
        block = b.build()
        # Instructions are stored in ID order, so the simulator's slice
        # ``insts[core::N]`` is exactly the IDs ``i mod N == core``.
        for ncores in (1, 2, 4, 8):
            seen = []
            for core in range(ncores):
                chunk = block.insts[core::ncores]
                assert all(i.iid % ncores == core for i in chunk)
                seen += [i.iid for i in chunk]
            assert sorted(seen) == list(range(block.size))
