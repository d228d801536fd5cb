"""The live fast-forward commits exactly what ``execute_block`` ->
``commit`` commits.

``repro.sample.engine.interpret`` reads the compiled segments' buffers
straight into the registers and the interval's columns and lands each
store from the bytes it encodes.  Its definition is the loop it
replaced, ``tests.references.interpret_interval``: every block through
a ``BlockOutcome``, ``Interpreter.commit`` and ``FlatMemory.store``.
Each case runs both on interpreters of their own, the live loop first
(so its dataflow fallback is the one that learns each new path), in
intervals of several sizes until the program halts; after every
interval the fifteen columns must be byte-identical, and so must every
memory page, the registers (``tests.bits.exact``) and ``finished``.
"""

import math
import struct
from itertools import cycle

import pytest
from hypothesis import given, settings

from repro.isa import BlockBuilder, Interpreter, Program
from repro.sample.engine import interpret
from repro.sample.trace import _COLUMNS
from tests.bits import exact
from tests.generated_programs import selector_loops
from tests.references import interpret_interval
from tests.tflex.test_random_programs import (
    SEEDED_CASES, SeededSource, build_random_program, random_program)


def assert_live_loop_exact(program: Program, sizes=(1, 3, 17, 1000)):
    """Both loops over ``program`` from its entry; returns the intervals
    each produced."""
    live, reference = Interpreter(program), Interpreter(program)
    addr = program.address_of(program.entry)
    prepared: dict = {}
    intervals = []
    for n_blocks in cycle(sizes):
        got = interpret(live, addr, n_blocks, prepared)
        want = interpret_interval(reference, addr, n_blocks)
        for name, __ in _COLUMNS:
            column, expected = getattr(got, name), getattr(want, name)
            assert type(column) is type(expected), name
            assert getattr(column, "typecode", None) \
                == getattr(expected, "typecode", None), name
            assert bytes(column) == bytes(expected), name
        assert got.finished == want.finished
        assert live.mem._pages == reference.mem._pages
        assert exact(live.regs) == exact(reference.regs)
        intervals.append(got)
        if got.finished:
            return intervals
        addr = got.nexts[-1]


@settings(max_examples=40, deadline=None)
@given(random_program())
def test_generated_programs(program):
    assert_live_loop_exact(program)


@pytest.mark.parametrize("seed", [seed for seed, __ in SEEDED_CASES])
def test_seeded_generated_programs(seed):
    assert_live_loop_exact(build_random_program(SeededSource(seed)),
                           sizes=(1, 2))


@settings(max_examples=40, deadline=None)
@given(selector_loops())
def test_selector_loops(program):
    assert_live_loop_exact(program, sizes=(2, 5, 1000))


@pytest.mark.parametrize("bench", ["conv", "gzip"])
def test_benchmarks_at_scale_8(bench):
    from repro.harness.simulate import cached_program

    program, __, __ = cached_program("edge", bench, 8)
    assert len(assert_live_loop_exact(program, sizes=(300, 1000))) >= 2


#: A signalling NaN with the sign set and payload 1.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF0_0000_0000_0001))[0]
DATA = 0x20_0000


def edge_program(iterations=6, switch=3) -> Program:
    """A one-block loop over the store edges: fp stores of -0.0 and of
    a NaN with a payload, an 8-byte store across a page boundary, byte
    and half-word stores among non-zero data, and a predicate whose
    outcome flips at iteration ``switch`` — a path no execution took
    from that point, so the compiled walk falls back mid-block — then a
    HALT block."""
    program = Program(entry="body", name="edges")
    program.reg_init = {6: -0.0, 7: NAN_PAYLOAD}
    program.data[DATA] = (bytes(range(1, 256)) * 33)[:2 * 4096]

    b = BlockBuilder("body")
    i = b.read(10)
    early = b.op("TLTI", i, imm=switch)
    for offset, reg, pred in ((16, 6, True), (24, 7, False)):
        addr = b.movi(DATA + offset, pred=(early, pred))
        handle = b.store(addr, b.read(reg), op="STF", pred=(early, pred))
        b.null_store(handle, pred=(early, not pred))
    b.store(b.movi(DATA + 4092), i)
    b.store(b.movi(DATA + 40), b.op("ADDI", i, imm=200), op="STB")
    b.store(b.op("ADDI", b.op("SHLI", i, imm=1), imm=DATA + 64),
            b.op("SUBI", i, imm=3), op="STH")
    after = b.op("ADDI", i, imm=1)
    b.write(10, after)
    done = b.op("TGEI", after, imm=iterations)
    b.branch("BRO", target="body", exit_id=0, pred=(done, False))
    b.branch("BRO", target="halt", exit_id=1, pred=(done, True))
    program.add_block(b.build())

    b = BlockBuilder("halt")
    b.branch("HALT", exit_id=0)
    program.add_block(b.build())
    program.validate()
    return program


def test_store_edges_and_a_late_path(monkeypatch):
    """-0.0 and NaN-payload stores keep their bits, a page-straddling
    store lands on both pages, sub-word stores leave their neighbours,
    an unseen predicate outcome falls back to the dataflow loop from a
    guard, and a HALT inside an interval ends it."""
    guards = []
    real = Interpreter._dataflow

    def dataflow(self, pb, guard):
        guards.append(guard)
        return real(self, pb, guard)

    monkeypatch.setattr(Interpreter, "_dataflow", dataflow)
    intervals = assert_live_loop_exact(edge_program(), sizes=(2, 3, 100))
    assert intervals[-1].finished and len(intervals) == 3
    # Root, the late path (from a guard), then the HALT block; the
    # reference reran none of them.
    assert guards[0] is None and any(g is not None for g in guards)

    live = Interpreter(edge_program())
    interpret(live, live.program.address_of("body"), 100, {})
    memory = live.mem
    assert memory.read_bytes(DATA + 16, 8) == struct.pack("<d", -0.0)
    assert memory.read_bytes(DATA + 24, 8) == struct.pack("<d", NAN_PAYLOAD)
    assert math.isnan(NAN_PAYLOAD)
    assert memory.read_bytes(DATA + 4092, 8) == (5).to_bytes(8, "little")
    assert memory.read_bytes(DATA + 40, 2) == bytes((205, 42))
