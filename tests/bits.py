"""Bit-exact state for the differential oracles.

``-0.0 == 0.0``, ``1 == 1.0`` and ``nan != nan``: an oracle that compares
registers by value misses a lost sign, a lost type or a changed NaN
payload, and fails on a NaN that did not change.  :func:`exact` maps a
value to what the machine holds — its type and, for a float, its
double's 8 bytes — through lists, tuples and dicts, and
:func:`memory_bytes` reads memory as raw bytes, so every oracle leg
(interpreter, 1-core, N-core, co-run, sampled record and replay)
compares bits.
"""

import struct

_DOUBLE = struct.Struct("<d")

#: The signed 64-bit range ``repro.util.wrap64`` folds into.
INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1


def exact(value):
    """``value`` bit for bit: ``(type, value)`` for a scalar, with a
    float's value its 8 little-endian bytes; containers item by item."""
    if type(value) is float:
        return float, _DOUBLE.pack(value)
    if isinstance(value, (list, tuple)):
        return type(value), [exact(item) for item in value]
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    return type(value), value


def memory_bytes(memory, ranges) -> list:
    """The raw bytes of each ``(address, size)`` range of ``memory``."""
    return [bytes(memory.read_bytes(addr, size)) for addr, size in ranges]
