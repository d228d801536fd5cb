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
from repro.isa.program import HALT_ADDR
from repro.workloads import BENCHMARKS

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
    assert memo.mem.snapshot() == plain.mem.snapshot()
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
    assert first.mem.snapshot() == second.mem.snapshot()


# ----------------------------------------------------------------------
# Generated predicated load/store blocks
# ----------------------------------------------------------------------

def selector_loop(selectors, npreds, store_slots, load_slots, nested,
                  store_op="STD", load_op="LDD"):
    """A one-block loop whose iteration ``i`` takes the predicate path
    ``selectors[i]`` selects: per predicate a store/NULL pair into a
    scratch slot, loads that forward from those stores or read memory
    (and must wait for every older store slot to resolve), phi-merged
    and NULL-resolved register writes, optionally a predicate computed
    only under another predicate."""
    prog = Program(entry="init", name="selector_loop")
    table = prog.add_words(selectors)
    scratch = prog.add_words([100 + k for k in range(8)])

    b = BlockBuilder("init")
    b.write(10, b.movi(0))
    b.write(12, b.movi(0))
    b.branch("BRO", target="body", exit_id=0)
    prog.add_block(b.build())

    b = BlockBuilder("body")
    i = b.read(10)
    acc = b.read(12)
    sel = b.load(b.op("ADDI", b.op("SHLI", i, imm=3), imm=table))
    preds = [b.op("TNEI", b.op("ANDI", sel, imm=1 << k), imm=0)
             for k in range(npreds)]
    for k, pred in enumerate(preds):
        addr = b.movi(scratch + 8 * store_slots[k], pred=(pred, True))
        data = b.op("ADDI", i, imm=k + 1, pred=(pred, True))
        handle = b.store(addr, data, op=store_op, pred=(pred, True))
        b.null_store(handle, pred=(pred, False))
    total = acc
    for slot in load_slots:
        total = b.op("ADD", total,
                     b.load(b.movi(scratch + 8 * slot), op=load_op))
    b.write(12, b.phi(preds[0], total, b.op("SUB", total, i)))
    if nested:
        inner = b.op("TNEI", b.op("ANDI", sel, imm=1 << npreds), imm=0,
                     pred=(preds[0], True))
        b.write(13, b.op("ADDI", total, imm=7, pred=(inner, True)))
        b.null_write(13, pred=(inner, False))
        b.null_write(13, pred=(preds[0], False))
    new_i = b.op("ADDI", i, imm=1)
    b.write(10, new_i)
    done = b.op("TGEI", new_i, imm=len(selectors))
    b.branch("BRO", target="body", exit_id=0, pred=(done, False))
    b.branch("BRO", target="done", exit_id=1, pred=(done, True))
    prog.add_block(b.build())

    b = BlockBuilder("done")
    b.branch("HALT", exit_id=0)
    prog.add_block(b.build())
    return prog


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_predicated_blocks_agree(data):
    npreds = data.draw(st.integers(1, 3))
    slots = st.integers(0, 3)
    program = selector_loop(
        selectors=data.draw(st.lists(st.integers(0, 15), min_size=1,
                                     max_size=12)),
        npreds=npreds,
        store_slots=data.draw(st.lists(slots, min_size=npreds,
                                       max_size=npreds, unique=True)),
        load_slots=data.draw(st.lists(slots, min_size=1, max_size=3)),
        nested=data.draw(st.booleans()))
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
