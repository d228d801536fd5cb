"""Benchmark registry, categories, and output verification."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.compiler import KernelProgram, compile_edge, compile_risc
from repro.isa.program import Program
from repro.risc.isa import RiscProgram
from repro.workloads.catalog import CATALOG, SETS
from repro.workloads.hand import HAND_OPTIMIZED
from repro.workloads.spec import SPEC_FP, SPEC_INT


@dataclass(frozen=True)
class Benchmark:
    """One suite entry.

    ``category`` is ``hand``/``spec_int``/``spec_fp`` (paper Table 1);
    ``ilp`` is the coarse high/low classification the paper uses to
    order figure 6's x-axis.
    """

    name: str
    category: str
    ilp: str
    factory: Callable[..., tuple[KernelProgram, dict]]

    def build(self, scale: int = 1) -> tuple[KernelProgram, dict]:
        """(kernel, expected-output map) at a given data scale."""
        return self.factory(scale)

    def edge_program(self, scale: int = 1) -> tuple[Program, dict, KernelProgram]:
        kernel, expected = self.build(scale)
        return compile_edge(kernel), expected, kernel

    def risc_program(self, scale: int = 1) -> tuple[RiscProgram, dict, KernelProgram]:
        kernel, expected = self.build(scale)
        return compile_risc(kernel), expected, kernel


def _registry() -> dict[str, Benchmark]:
    """The catalog's names joined to their factories — in catalog order,
    and only if both sides list the same names in the same order."""
    factories = {"hand": HAND_OPTIMIZED, "spec_int": SPEC_INT,
                 "spec_fp": SPEC_FP}
    for category, table in factories.items():
        if tuple(table) != SETS[category]:
            raise ImportError(
                f"repro.workloads.catalog and the {category} factories "
                f"disagree: catalog {SETS[category]}, factories "
                f"{tuple(table)}")
    return {name: Benchmark(name, entry.category, entry.ilp,
                            factories[entry.category][name])
            for name, entry in CATALOG.items()}


#: All 26 benchmarks by name.
BENCHMARKS: dict[str, Benchmark] = _registry()


# ----------------------------------------------------------------------
# Output verification
# ----------------------------------------------------------------------

DATA_BASE = 0x10_0000


def _array_slot(kernel: KernelProgram, array_name: str) -> tuple:
    """``(base_address, array)`` for one array in the deterministic
    layout both backends use: arrays are placed consecutively from the
    data base in declaration order."""
    offset = DATA_BASE
    for arr in kernel.arrays:
        if arr.name == array_name:
            return offset, arr
        offset += arr.size * arr.elem_size
    raise KeyError(f"{kernel.name}: no array {array_name!r}")


def verify_edge_run(kernel: KernelProgram, memory, expected: dict,
                    rel_tol: float = 1e-9) -> None:
    """Assert that a simulator/interpreter ``FlatMemory`` matches the
    reference.

    ``expected`` maps array names to value prefixes (shorter lists check
    only the written prefix).  Each prefix is one ranged read and one
    unpack: ``<q`` is ``FlatMemory.load``'s size-8 int (two's-complement
    signed 64-bit) and ``<d`` its IEEE double."""
    for array_name, values in expected.items():
        n = len(values)
        offset, arr = _array_slot(kernel, array_name)
        got = struct.unpack(("<%dd" if arr.elem == "float" else "<%dq") % n,
                            memory.read_bytes(offset, 8 * n))
        for i, reference in enumerate(values):
            actual = got[i]
            if isinstance(reference, float):
                tol = max(abs(reference) * rel_tol, 1e-12)
                if abs(actual - reference) > tol:
                    raise AssertionError(
                        f"{kernel.name}.{array_name}[{i}]: {actual!r} != {reference!r}")
            elif actual != reference:
                raise AssertionError(
                    f"{kernel.name}.{array_name}[{i}]: {actual!r} != {reference!r}")
