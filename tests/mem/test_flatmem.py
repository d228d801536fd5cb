"""Unit tests for the flat paged memory."""

import struct

from hypothesis import given, strategies as st

from repro.isa.opcodes import INT_MAX, INT_MIN
from repro.mem import FlatMemory


class TestRawAccess:
    def test_zero_initialized(self):
        mem = FlatMemory()
        assert mem.read_bytes(0x1234, 8) == b"\x00" * 8

    def test_write_read_roundtrip(self):
        mem = FlatMemory()
        mem.write_bytes(0x100, b"hello world")
        assert mem.read_bytes(0x100, 11) == b"hello world"

    def test_cross_page_access(self):
        mem = FlatMemory()
        addr = 4096 - 3
        mem.write_bytes(addr, b"abcdef")
        assert mem.read_bytes(addr, 6) == b"abcdef"
        assert len(mem._pages) == 2

    @given(st.integers(0, 1 << 20), st.binary(min_size=1, max_size=64))
    def test_roundtrip_property(self, addr, raw):
        mem = FlatMemory()
        mem.write_bytes(addr, raw)
        assert mem.read_bytes(addr, len(raw)) == raw


class TestTypedAccess:
    @given(st.integers(INT_MIN, INT_MAX))
    def test_int64_roundtrip(self, value):
        mem = FlatMemory()
        mem.store(0x200, 8, value)
        assert mem.load(0x200, 8) == value

    def test_small_sizes_zero_extend(self):
        mem = FlatMemory()
        mem.store(0x300, 1, -1)        # 0xFF
        assert mem.load(0x300, 1) == 0xFF
        mem.store(0x310, 4, -1)
        assert mem.load(0x310, 4) == 0xFFFFFFFF

    def test_truncation(self):
        mem = FlatMemory()
        mem.store(0x400, 1, 0x1FF)
        assert mem.load(0x400, 1) == 0xFF

    @given(st.floats(allow_nan=False))
    def test_double_roundtrip(self, value):
        mem = FlatMemory()
        mem.store(0x500, 8, value, fp=True)
        assert mem.load(0x500, 8, fp=True) == value

    def test_int_float_bitcast(self):
        mem = FlatMemory()
        mem.store(0x600, 8, 1.5, fp=True)
        bits = mem.load(0x600, 8)
        expected = struct.unpack("<q", struct.pack("<d", 1.5))[0]
        assert bits == expected

    def test_load_image_and_read_words(self):
        mem = FlatMemory()
        raw = struct.pack("<3q", 10, -20, 30)
        mem.load_image({0x700: raw})
        assert [mem.load(0x700 + 8 * i, 8) for i in range(3)] == \
            [10, -20, 30]
