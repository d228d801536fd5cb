"""Byte-addressable flat memory backing both the interpreter and the simulator.

Pages are allocated lazily so sparse address spaces (separate code, data,
and stack regions) stay cheap.  Values cross the memory interface as raw
little-endian bytes; typed helpers convert to/from the EDGE value model
(64-bit two's-complement integers and IEEE-754 doubles).
"""

from __future__ import annotations

import struct

from repro.util import wrap64


PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

_DOUBLE = struct.Struct("<d")


class FlatMemory:
    """Sparse, paged, byte-addressable memory."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def _page(self, addr: int) -> bytearray:
        number = addr >> PAGE_SHIFT
        page = self._pages.get(number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[number] = page
        return page

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read ``size`` raw bytes starting at ``addr``."""
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        out = bytearray()
        while size > 0:
            offset = addr & PAGE_MASK
            chunk = min(size, PAGE_SIZE - offset)
            out += self._page(addr)[offset:offset + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, raw: bytes) -> None:
        """Write raw bytes starting at ``addr``: one slice assignment
        when they stay inside one page, page by page otherwise."""
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        offset = addr & PAGE_MASK
        if offset + len(raw) <= PAGE_SIZE:
            self._page(addr)[offset:offset + len(raw)] = raw
            return
        pos = 0
        while pos < len(raw):
            offset = addr & PAGE_MASK
            chunk = min(len(raw) - pos, PAGE_SIZE - offset)
            self._page(addr)[offset:offset + chunk] = raw[pos:pos + chunk]
            addr += chunk
            pos += chunk

    # ------------------------------------------------------------------
    # Typed access used by LD*/ST* opcodes
    # ------------------------------------------------------------------

    def load(self, addr: int, size: int, fp: bool = False):
        """Load a value: zero-extended for sizes < 8, signed 64-bit for
        size 8, IEEE double when ``fp``."""
        raw = self.read_bytes(addr, size)
        if fp:
            return struct.unpack("<d", raw)[0]
        value = int.from_bytes(raw, "little", signed=False)
        if size == 8:
            return wrap64(value)
        return value

    def store(self, addr: int, size: int, value, fp: bool = False) -> None:
        """Store a value, truncating integers to ``size`` bytes; a store
        inside one page is one slice assignment (the interpreter's
        commits are all but never anything else)."""
        if fp:
            raw = _DOUBLE.pack(float(value))
        else:
            mask = (1 << (size * 8)) - 1
            raw = (int(value) & mask).to_bytes(size, "little")
        offset = addr & PAGE_MASK
        stop = offset + len(raw)
        if stop <= PAGE_SIZE and addr >= 0:
            self._page(addr)[offset:stop] = raw
        else:
            self.write_bytes(addr, raw)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def load_image(self, data: dict[int, bytes]) -> None:
        """Install an initial data segment (Program.data)."""
        for addr, raw in data.items():
            self.write_bytes(addr, raw)
