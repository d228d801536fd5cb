"""Path-memoised block execution is exactly the dataflow loop.

``Interpreter.execute_block`` walks a per-block tree of compiled fire
orders and only runs the dataflow loop for a predicate outcome it has
not seen.  The claim under test: which instructions fire, in which
order, and every structural contract check depend only on the static
block and the truth of each value delivered to a predicate slot — so an
interpreter that forgets its paths before every block (always the
dataflow loop) and one that keeps them are indistinguishable: equal
``BlockOutcome``s field by field (``load_addrs`` order included), equal
final state, equal ``InterpError`` text.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import repro.isa.interp as interp_mod
from repro.harness.runner import cached_program
from repro.isa import BlockBuilder, Interpreter, InterpError, Program
from repro.isa.program import DATA_BASE, HALT_ADDR
from repro.workloads import BENCHMARKS

from tests.generated_programs import selector_loop, selector_loops
from tests.sample_programs import ALL_SAMPLES


def _forgetful(interp, block):
    """``execute_block`` with the block's learnt paths out of sight (the
    private cache is poked; there is no knob)."""
    pb = interp.prepare(block)
    saved = pb.path, pb.tails
    pb.path, pb.tails = None, 0
    try:
        return interp.execute_block(block)
    finally:
        pb.path, pb.tails = saved


def _step(interp, block, execute):
    try:
        return execute(interp, block), None
    except InterpError as exc:
        return None, str(exc)


def lockstep(program, max_blocks=100_000):
    """Run a forgetful and a memoising interpreter side by side; returns
    the shared error text (``None``: ran to HALT)."""
    plain, memo = Interpreter(program), Interpreter(program)
    addr = program.address_of(program.entry)
    for __ in range(max_blocks):
        if addr == HALT_ADDR:
            break
        block = program.block_at(addr)
        want, want_error = _step(plain, block, _forgetful)
        got, got_error = _step(memo, block, Interpreter.execute_block)
        assert got_error == want_error
        if want_error is not None:
            return want_error
        # repr: 1 and 1.0 and True must not compare equal here.
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
        plain.commit(want)
        memo.commit(got)
        addr = want.next_addr
    else:
        raise AssertionError("block budget exhausted")
    assert repr(memo.regs) == repr(plain.regs)
    assert memo.mem._pages == plain.mem._pages
    return None


def _count_dataflow(monkeypatch):
    """Tally ``Interpreter._dataflow`` calls by block label."""
    calls: dict[str, int] = {}
    original = Interpreter._dataflow

    def counted(self, pb, guard):
        calls[pb.label] = calls.get(pb.label, 0) + 1
        return original(self, pb, guard)

    monkeypatch.setattr(Interpreter, "_dataflow", counted)
    return calls


# ----------------------------------------------------------------------
# Fixed programs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL_SAMPLES))
def test_sample_programs_agree(name):
    program, __ = ALL_SAMPLES[name]()
    assert lockstep(program) is None


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_catalog_agrees_at_scale_1(bench):
    program, __, __ = cached_program("edge", bench, 1)
    assert lockstep(program) is None


def test_whole_program_run_matches_after_relearning():
    """``run()`` on a program whose paths are already learnt equals the
    run that learnt them."""
    program, check = ALL_SAMPLES["predicated_classify"]()
    first, second = Interpreter(program), Interpreter(program)
    a = first.run(record_path=True)
    b = second.run(record_path=True)
    assert a == b and first.regs == second.regs
    assert first.mem._pages == second.mem._pages


# ----------------------------------------------------------------------
# Generated predicated load/store blocks
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(program=selector_loops())
def test_generated_predicated_blocks_agree(program):
    assert lockstep(program) is None


# ----------------------------------------------------------------------
# Learning
# ----------------------------------------------------------------------

def test_late_path_is_learnt_then_served_without_the_dataflow_loop(
        monkeypatch):
    calls = _count_dataflow(monkeypatch)
    selectors = [0, 0, 0, 1, 0, 1, 1, 0, 1, 0]
    program = selector_loop(selectors, npreds=1, store_slots=[0],
                            load_slots=[0, 1], nested=False)
    Interpreter(program).run()
    # First execution, the path bit 0 selects (first seen at the fourth
    # iteration), and the final iteration's exit: three dataflow runs
    # of ten executions.
    assert calls == {"init": 1, "body": 3, "done": 1}
    pb = program._prepared["body"]
    assert pb.tails == 3

    calls.clear()
    again = Interpreter(program)
    again.run()
    assert calls == {}
    assert lockstep(program) is None


def test_tail_cap_holds(monkeypatch):
    """A block with more live paths than the cap stops learning and
    keeps computing the right thing through the dataflow loop."""
    calls = _count_dataflow(monkeypatch)
    npreds = 7
    program = selector_loop(list(range(1 << npreds)) * 2, npreds=npreds,
                            store_slots=list(range(npreds)),
                            load_slots=[0], nested=False)
    assert lockstep(program) is None
    pb = program._prepared["body"]
    assert pb.tails == interp_mod.MAX_PATH_TAILS < 1 << npreds
    calls.clear()
    Interpreter(program).run()
    assert 0 < calls["body"] < 2 << npreds      # some served, some not


# ----------------------------------------------------------------------
# Errors: same text on first and on repeated execution
# ----------------------------------------------------------------------

def _bad_store():
    prog = Program(entry="bad", name="bad_store")
    b = BlockBuilder("bad")
    p = b.op("TEQI", b.movi(0), imm=1)
    b.store(b.movi(0x2000, pred=(p, True)), b.movi(5, pred=(p, True)),
            pred=(p, True))
    b.branch("HALT", exit_id=0)
    prog.add_block(b.build())
    return prog, "store slots"


def _bad_write():
    prog = Program(entry="bad", name="bad_write")
    b = BlockBuilder("bad")
    p = b.op("TEQI", b.movi(0), imm=1)
    b.write(9, b.movi(5, pred=(p, True)))
    b.branch("HALT", exit_id=0)
    prog.add_block(b.build())
    return prog, "write slots"


def _two_branches():
    prog = Program(entry="bad", name="two_branches")
    b = BlockBuilder("bad")
    p = b.op("TEQI", b.movi(1), imm=1)
    q = b.op("TEQI", b.movi(2), imm=2)
    b.branch("HALT", exit_id=0, pred=(p, True))
    b.branch("HALT", exit_id=1, pred=(q, True))
    prog.add_block(b.build())
    return prog, "second branch"


def _no_branch():
    prog = Program(entry="bad", name="no_branch")
    b = BlockBuilder("bad")
    p = b.op("TEQI", b.movi(0), imm=1)
    b.branch("HALT", exit_id=0, pred=(p, True))
    prog.add_block(b.build())
    return prog, "without a branch"


@pytest.mark.parametrize("make", [_bad_store, _bad_write, _two_branches,
                                  _no_branch])
def test_contract_violation_text_is_stable(make):
    program, needle = make()
    texts = []
    for __ in range(3):                 # same Program: the cache persists
        with pytest.raises(InterpError, match=needle) as caught:
            Interpreter(program).run()
        texts.append(str(caught.value))
    assert len(set(texts)) == 1
    assert lockstep(make()[0]) == texts[0]


def _violating_late(selectors):
    """A loop whose selected path leaves a write slot unresolved."""
    prog = Program(entry="init", name="late_violation")
    table = prog.add_words(selectors)
    b = BlockBuilder("init")
    b.write(10, b.movi(0))
    b.branch("BRO", target="body", exit_id=0)
    prog.add_block(b.build())
    b = BlockBuilder("body")
    i = b.read(10)
    sel = b.load(b.op("ADDI", b.op("SHLI", i, imm=3), imm=table))
    p = b.op("TNEI", sel, imm=0)
    b.write(11, b.movi(1, pred=(p, False)))     # no NULL when p is true
    b.write(10, b.op("ADDI", i, imm=1))
    b.branch("BRO", target="body", exit_id=0)
    prog.add_block(b.build())
    return prog


def test_violation_on_a_late_path_matches():
    program = _violating_late([0, 0, 0, 1])
    text = lockstep(program)
    assert text is not None and "write slots" in text
    for __ in range(2):                 # and again, paths now learnt
        with pytest.raises(InterpError) as caught:
            Interpreter(program).run()
        assert str(caught.value) == text


def _aliasing(offsets, load_op="LDW", store_op="STD"):
    """Iteration ``i`` stores 8 bytes at ``scratch`` and loads at
    ``scratch + offsets[i]``: the same fire order every time, but what
    the load does with the older store depends on the address."""
    prog = Program(entry="init", name="aliasing")
    table = prog.add_words(offsets)
    scratch = prog.add_words([0] * 8)
    b = BlockBuilder("init")
    b.write(10, b.movi(0))
    b.branch("BRO", target="body", exit_id=0)
    prog.add_block(b.build())
    b = BlockBuilder("body")
    i = b.read(10)
    offset = b.load(b.op("ADDI", b.op("SHLI", i, imm=3), imm=table))
    b.store(b.movi(scratch), b.op("ADDI", i, imm=40), op=store_op)
    b.write(11, b.load(b.op("ADDI", offset, imm=scratch), op=load_op))
    new_i = b.op("ADDI", i, imm=1)
    b.write(10, new_i)
    done = b.op("TGEI", new_i, imm=len(offsets))
    b.branch("BRO", target="body", exit_id=0, pred=(done, False))
    b.branch("HALT", exit_id=1, pred=(done, True))
    prog.add_block(b.build())
    return prog


@pytest.mark.parametrize("offsets, kwargs, needle", [
    ([16, 32, 4], {}, "partially overlaps"),
    ([16, 32, 0], {"load_op": "LDF", "store_op": "STD"}, "int/fp"),
])
def test_dynamic_forwarding_errors_stay_dynamic(offsets, kwargs, needle):
    """The memoised walk raises the forwarding errors the dataflow loop
    raises, with the same text, on a path it has served before."""
    text = lockstep(_aliasing(offsets, **kwargs))
    assert text is not None and needle in text
    assert lockstep(_aliasing([16, 0, 32], load_op="LDD")) is None


# ----------------------------------------------------------------------
# Compiled paths: operand types, where a wrong elision would show
# ----------------------------------------------------------------------

def _loop(name, table_values, body, reg_init=None):
    """``init -> body* -> HALT``: ``body(b, prog, i, entry)`` fills one
    iteration's block given the loop counter and this iteration's table
    word; the loop runs once per table entry."""
    prog = Program(entry="init", name=name)
    prog.reg_init = dict(reg_init or {})
    table = prog.add_words(table_values, signed=False)
    b = BlockBuilder("init")
    b.write(10, b.movi(0))
    b.branch("BRO", target="body", exit_id=0)
    prog.add_block(b.build())
    b = BlockBuilder("body")
    i = b.read(10)
    entry = b.load(b.op("ADDI", b.op("SHLI", i, imm=3), imm=table))
    body(b, prog, i, entry)
    new_i = b.op("ADDI", i, imm=1)
    b.write(10, new_i)
    done = b.op("TGEI", new_i, imm=len(table_values))
    b.branch("BRO", target="body", exit_id=0, pred=(done, False))
    b.branch("HALT", exit_id=1, pred=(done, True))
    prog.add_block(b.build())
    return prog


def _typed_body(b, prog, i, sel):
    scratch = prog.add_words([0, 0])
    fr, ir = b.read(20), b.read(21)             # 2.5 and 7
    p = b.op("TNEI", b.op("ANDI", sel, imm=1), imm=0)
    q = b.op("TNEI", b.op("ANDI", sel, imm=2), imm=0)
    # A float in a register, read by an int op.
    b.write(11, b.op("ADD", fr, ir))
    # MOV/MOVI chains: int, float, unknown.
    ci = b.mov(b.mov(b.movi(3)))
    cf = b.mov(b.movi(2.5))
    cu = b.mov(fr)
    b.write(12, b.op("ADD", ci, cf))
    b.write(13, b.op("FMUL", ci, ci))
    b.write(14, b.op("FADD", cf, cu))
    b.write(15, b.op("SUB", cu, ci))
    # ITOF -> FADD -> FTOI.
    b.write(16, b.op("FTOI", b.op("FADD", b.op("ITOF", i), cf)))
    # A float STD forwarded to an LDD feeding ADD.
    b.store(b.movi(scratch), cf)
    b.write(17, b.op("ADD", b.load(b.movi(scratch)), i))
    # Produced under one predicate (an int on one side, a float on the
    # other), consumed under the other: whichever guard comes first,
    # one consumer sits in a tail of a tail and reads a slot an earlier
    # segment wrote — with a type the root never saw there.
    for reg, (first, second) in ((18, (p, q)), (19, (q, p))):
        merged = b.phi(first, ci, cf)
        b.write(reg, b.op("ADDI", merged, imm=1, pred=(second, True)))
        b.null_write(reg, pred=(second, False))


@pytest.mark.parametrize("selectors", [
    [1, 1, 0, 0, 2, 2, 2, 3, 3, 0, 1, 2, 3],
    [2, 2, 0, 0, 1, 1, 1, 3, 3, 3, 0, 2, 1],
    [0, 0, 0, 3, 3, 3, 1, 2, 1, 2],
])
def test_operand_types_on_compiled_paths(selectors):
    program = _loop("typed", selectors, _typed_body,
                    reg_init={20: 2.5, 21: 7})
    assert lockstep(program) is None
    interp = Interpreter(program)               # every path now compiled
    interp.run()
    last = len(selectors) - 1
    want = [9, 5, 9.0, 5.0, -1, int(last + 2.5), 2 + last]
    assert repr(interp.regs[11:18]) == repr(want)
    r18 = r19 = 0           # ADDI(phi(first, 3, 2.5), 1) when second holds
    for sel in selectors:
        p, q = sel & 1, sel >> 1
        r18 = (4 if p else 3) if q else r18
        r19 = (4 if q else 3) if p else r19
    assert repr(interp.regs[18:20]) == repr([r18, r19])


def _same_error_every_run(program, kind, runs=3):
    """The error text of ``runs`` whole-program runs over one Program
    (the first learns, later ones run compiled paths up to the fault)."""
    texts = []
    for __ in range(runs):
        with pytest.raises(kind) as caught:
            Interpreter(program).run()
        texts.append(f"{type(caught.value).__name__}: {caught.value}")
    assert len(set(texts)) == 1
    return texts[0]


def test_null_token_at_a_coerced_operand_raises_the_same_every_time():
    from repro.isa.builder import Port
    from repro.isa.opcodes import OPCODES

    def body(b, prog, i, sel):
        p = b.op("TNEI", sel, imm=0)
        null = Port("inst", b._emit(OPCODES["NULL"], pred=(p, True)))
        b.write(11, b.op("ADD", b.phi(p, null, i), i))

    text = _same_error_every_run(_loop("null_operand", [0, 0, 0, 1], body),
                                 TypeError)
    assert "_NullToken" in text


def test_value_dependent_error_on_a_compiled_path():
    """The third iteration's NaN reaches ``int()`` inside compiled code
    (the path was learnt by the first and compiled by the second): the
    error, and the state up to it, are the dataflow loop's."""
    def body(b, prog, i, v):                    # sqrt(2 - v) + i
        root = b.op("FSQRT", b.op("ITOF", b.op("SUB", b.movi(2), v)))
        b.write(11, b.op("ADD", root, i))

    program = _loop("nan", [1, 2, 3, 4], body)
    assert "NaN" in _same_error_every_run(program, ValueError)
    body_block = program.block_at(program.address_of("body"))
    plain, memo = Interpreter(program), Interpreter(program)
    for interp, execute in ((plain, _forgetful),
                            (memo, Interpreter.execute_block)):
        interp.commit(interp.execute_block(program.block_at(
            program.address_of("init"))))
        for __ in range(2):
            interp.commit(execute(interp, body_block))
        with pytest.raises(ValueError, match="NaN"):
            execute(interp, body_block)
    assert repr(plain.regs) == repr(memo.regs)


# ----------------------------------------------------------------------
# Compiled paths: the inline load and its fall-backs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("op, size, signed", [
    ("LDB", 1, False), ("LDH", 2, False), ("LDW", 4, False),
    ("LDD", 8, True), ("LDF", 8, None)])
def test_loads_on_a_compiled_path(op, size, signed):
    """Every access size, from resident pages (a value >= 2**63 is a
    negative ``LDD``), across a page boundary and from a page nothing
    has touched — equal to the dataflow loop and to ``FlatMemory.load``."""
    import struct

    boundary = 0x30_1000
    untouched = 0x7000_0000

    def body(b, prog, i, addr):
        b.write(11, b.load(addr, op=op))

    words = [0xFFFF_FFFF_FFFF_FFF0, 0x8000_0000_0000_0000,
             0x0123_4567_89AB_CDEF]
    program = _loop("loads", [0] * 9, body)
    base = program.add_words(words, signed=False)
    program.data[boundary - 4] = bytes(range(0xF1, 0xF9))
    straddling = boundary - max(size // 2, 1)       # (one byte cannot)
    addrs = [base, base + 8, base + 16, base, straddling, untouched,
             base + 8, boundary - size, base]
    program.data[DATA_BASE] = b"".join(struct.pack("<Q", a) for a in addrs)

    assert lockstep(program) is None
    reference = Interpreter(program).mem
    interp = Interpreter(program)
    block = program.block_at(program.address_of("body"))
    interp.commit(interp.execute_block(program.block_at(
        program.address_of("init"))))
    for addr in addrs:
        outcome = interp.execute_block(block)
        interp.commit(outcome)
        want = reference.load(addr, size, fp=signed is None)
        assert repr(interp.regs[11]) == repr(want)
        assert outcome.load_addrs[-1] == addr
    if op == "LDD":
        interp = Interpreter(program)
        block_outcomes = [interp.execute_block(block) for __ in range(3)]
        assert [o.writes[11] for o in block_outcomes] == [-16] * 3
