"""Unit tests for Program: layout, addressing, data segment, validation."""

import pytest

from repro.isa import BlockBuilder, Program, ProgramError
from repro.isa.program import BLOCK_STRIDE, CODE_BASE, DATA_BASE


def two_block_program() -> Program:
    prog = Program(entry="a", name="t")
    b = BlockBuilder("a")
    b.branch("BRO", target="b", exit_id=0)
    prog.add_block(b.build())
    b = BlockBuilder("b")
    b.branch("HALT", exit_id=0)
    prog.add_block(b.build())
    return prog


class TestAddressing:
    def test_block_addresses_strided(self):
        prog = two_block_program()
        assert prog.address_of("a") == CODE_BASE
        assert prog.address_of("b") == CODE_BASE + BLOCK_STRIDE

    def test_label_at_roundtrip(self):
        prog = two_block_program()
        for label in prog.order:
            assert prog.label_at(prog.address_of(label)) == label

    def test_label_at_rejects_misaligned(self):
        prog = two_block_program()
        with pytest.raises(ProgramError):
            prog.label_at(CODE_BASE + 4)
        with pytest.raises(ProgramError):
            prog.label_at(CODE_BASE + 5 * BLOCK_STRIDE)

    def test_unknown_label_rejected(self):
        prog = two_block_program()
        with pytest.raises(ProgramError):
            prog.address_of("ghost")

    def test_sequential_next(self):
        prog = two_block_program()
        # The call-return continuation is the next block in layout.
        assert prog.label_at(prog.address_of("a") + BLOCK_STRIDE) == "b"
        with pytest.raises(ProgramError):
            prog.label_at(prog.address_of("b") + BLOCK_STRIDE)

    def test_duplicate_label_rejected(self):
        prog = two_block_program()
        b = BlockBuilder("a")
        b.branch("HALT", exit_id=0)
        with pytest.raises(ProgramError):
            prog.add_block(b.build())


class TestDataSegment:
    def test_alloc_is_aligned_and_disjoint(self):
        prog = Program(entry="x")
        first = prog.alloc_data(12)
        second = prog.alloc_data(8)
        assert first >= DATA_BASE
        assert first % 8 == 0 and second % 8 == 0
        assert second >= first + 12

    def test_add_words_signed(self):
        prog = Program(entry="x")
        addr = prog.add_words([-5, 7])
        raw = prog.data[addr]
        assert int.from_bytes(raw[:8], "little", signed=True) == -5
        assert int.from_bytes(raw[8:], "little", signed=True) == 7

    def test_add_doubles(self):
        import struct
        prog = Program(entry="x")
        addr = prog.add_doubles([1.5])
        assert struct.unpack("<d", prog.data[addr])[0] == 1.5

    def test_add_bytes(self):
        prog = Program(entry="x")
        addr = prog.alloc_data(3)
        prog.data[addr] = b"abc"
        assert prog.alloc_data(8) == addr + 8      # aligned past it


class TestValidation:
    def test_missing_entry(self):
        prog = two_block_program()
        prog.entry = "ghost"
        with pytest.raises(ProgramError):
            prog.validate()

    def test_bad_reg_init(self):
        prog = two_block_program()
        prog.reg_init = {200: 1}
        with pytest.raises(ProgramError):
            prog.validate()

    def test_total_instructions(self):
        prog = two_block_program()
        assert sum(b.size for b in prog.blocks.values()) == 2

    def test_disassemble_includes_all_blocks(self):
        text = two_block_program().disassemble()
        assert "block a" in text and "block b" in text
