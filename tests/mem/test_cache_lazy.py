"""A cache bank builds a set when something first subscripts it.

The reference is the same class with every set touched up front — what
the constructor used to do — so any difference a lazily absent set
could make (snapshot shape, iteration order, a victim, a stat) shows as
an inequality between the two.  Plus the places an absent set meets the
transfer surface: swaps between banks that touched different sets, and
snapshots that name sets the target never built.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import CacheBank, LineState


def _eager(*geometry):
    bank = CacheBank(*geometry)
    for index in range(bank.num_sets):
        bank._sets[index]
    return bank


def _line(line):
    return line and (line.ctx, line.line_addr, line.state)


def _apply(bank, op, ctx, addr):
    """One operation's observable answer."""
    if op == "read":
        return bank.access(ctx, addr)
    if op == "write":
        return bank.access(ctx, addr, write=True)
    if op == "probe":
        return _line(bank.probe(ctx, addr))
    if op == "fill":
        return _line(bank.fill(ctx, addr))
    if op == "fill-m":
        return _line(bank.fill(ctx, addr, LineState.MODIFIED))
    if op == "invalidate":
        return _line(bank.invalidate(ctx, addr))
    try:
        return bank.upgrade(ctx, addr)
    except KeyError as exc:
        return str(exc)


def _observe(bank):
    return (bank.state_dict(), [_line(line) for line in bank.iter_lines()],
            bank.resident_lines(), dataclasses.asdict(bank.stats))


_ops = st.lists(st.tuples(
    st.sampled_from(["read", "write", "probe", "fill", "fill-m",
                     "invalidate", "upgrade"]),
    st.integers(0, 2),                       # ctx
    st.integers(0, 4095)), max_size=120)     # 64 lines over 8 or 16 sets
_geometries = st.sampled_from([(1024, 2, 64), (2048, 1, 64), (4096, 4, 64)])


@settings(max_examples=150, deadline=None)
@given(geometry=_geometries, ops=_ops)
def test_lazy_bank_equals_pretouched_bank(geometry, ops):
    lazy, eager = CacheBank(*geometry), _eager(*geometry)
    assert _observe(lazy) == _observe(eager)
    for op, ctx, addr in ops:
        assert _apply(lazy, op, ctx, addr) == _apply(eager, op, ctx, addr)
    assert _observe(lazy) == _observe(eager)
    assert len(lazy.state_dict()["sets"]) == lazy.num_sets
    # ... and a snapshot of either loads into the other kind.
    state = json.loads(json.dumps(lazy.state_dict()))
    fresh_lazy, fresh_eager = CacheBank(*geometry), _eager(*geometry)
    fresh_lazy.load_state(state)
    fresh_eager.load_state(state)
    assert fresh_lazy.state_dict() == fresh_eager.state_dict() == state


def test_iter_lines_is_in_set_order_whatever_the_touch_order():
    bank = CacheBank(1024, 2, 64)                # 8 sets
    for addr in (5 * 64, 1 * 64, 7 * 64, 1 * 64 + 512, 0):
        bank.fill(0, addr)
    assert [(line.line_addr // 64) % 8 for line in bank.iter_lines()] \
        == [0, 1, 1, 5, 7]


def test_swap_between_banks_with_disjoint_touched_sets():
    a, b = CacheBank(1024, 2, 64, name="a"), CacheBank(1024, 2, 64, name="b")
    for index in (0, 1, 2):
        a.fill(0, index * 64)
    for index in (5, 6):
        b.fill(1, index * 64, LineState.MODIFIED)
    state_a, state_b = a.state_dict(), b.state_dict()
    a.swap_state(b)
    assert (a.state_dict(), b.state_dict()) == (state_b, state_a)
    # Each bank now answers for the other's lines, and builds the sets
    # it still lacks on demand.
    assert a.probe(1, 5 * 64).state is LineState.MODIFIED
    assert a.probe(0, 0) is None and b.probe(0, 0) is not None
    assert b.fill(0, 7 * 64) is None
    assert a.resident_lines() == 2 and b.resident_lines() == 4


@pytest.mark.parametrize("damage", [
    lambda sets: sets[3].extend([[0, 0xC0 + 0x200 * n, "S"] for n in range(3)]),
    lambda sets: sets[3].append([0, 0x40, "S"]),
    lambda sets: sets.pop(),
    lambda sets: sets.append([]),
], ids=["oversize", "misfiled", "too-few-sets", "too-many-sets"])
def test_bad_snapshot_into_a_never_touched_bank_is_rejected(damage):
    """``check_warm`` reads the decoded snapshot, not the bank's sets:
    a bank that has built none of its sets still refuses."""
    bank = CacheBank(1024, 2, 64, name="t")
    snapshot = bank.state_dict()
    damage(snapshot["sets"])
    with pytest.raises(ValueError):
        bank.load_state(snapshot)
    assert bank.resident_lines() == 0
    assert bank.state_dict() == CacheBank(1024, 2, 64).state_dict()

