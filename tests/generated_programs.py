"""Program generators shared by the differential suites.

``selector_loop`` builds predicated load/store *loops*: one block
re-executed (and, on the timing model, re-fetched) once per entry of a
selector table, each iteration taking the predicate path its entry
selects.  ``tests/isa/test_path_memo.py`` runs them against the
interpreter's dataflow loop, ``tests/tflex/test_random_programs.py``
against 1-core and N-core compositions.
"""

from hypothesis import strategies as st

from repro.isa import BlockBuilder, Program


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


@st.composite
def selector_loops(draw, max_iterations=12):
    """Hypothesis strategy over :func:`selector_loop` programs."""
    npreds = draw(st.integers(1, 3))
    slots = st.integers(0, 3)
    return selector_loop(
        selectors=draw(st.lists(st.integers(0, 15), min_size=1,
                                max_size=max_iterations)),
        npreds=npreds,
        store_slots=draw(st.lists(slots, min_size=npreds, max_size=npreds,
                                  unique=True)),
        load_slots=draw(st.lists(slots, min_size=1, max_size=3)),
        nested=draw(st.booleans()))
