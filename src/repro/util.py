"""Small shared utilities with no intra-package dependencies."""

from __future__ import annotations

_WRAP = 1 << 64


def wrap64(value: int) -> int:
    """Wrap an integer to signed 64-bit two's complement range."""
    return (value + (1 << 63)) % _WRAP - (1 << 63)
