"""A cache bank builds a set when something first subscripts it.

The reference is the same class with every set touched up front — what
the constructor used to do — so any difference a lazily absent set
could make (warm fields, iteration order, a victim, a stat) shows as an
inequality between the two.  Plus the place an absent set meets the
transfer surface: swaps between banks that touched different sets.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.mem.cache import CacheBank, LineState
from tests.warm_fields import fields


def _eager(*geometry):
    bank = CacheBank(*geometry)
    for index in range(bank.num_sets):
        bank._sets[index]
    return bank


def _apply(bank, op, ctx, addr):
    """One operation's observable answer."""
    if op == "read":
        return bank.access(ctx, addr)
    if op == "write":
        return bank.access(ctx, addr, write=True)
    if op == "probe":
        return bank.probe(ctx, addr)
    if op == "fill":
        return bank.fill(ctx, addr)
    if op == "fill-m":
        return bank.fill(ctx, addr, LineState.MODIFIED)
    return bank.invalidate(ctx, addr)


def _observe(bank):
    return (fields(bank), list(bank.iter_lines()),
            bank.resident_lines(), dataclasses.asdict(bank.stats))


_ops = st.lists(st.tuples(
    st.sampled_from(["read", "write", "probe", "fill", "fill-m",
                     "invalidate"]),
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


def test_iter_lines_is_in_set_order_whatever_the_touch_order():
    bank = CacheBank(1024, 2, 64)                # 8 sets
    for addr in (5 * 64, 1 * 64, 7 * 64, 1 * 64 + 512, 0):
        bank.fill(0, addr)
    assert [(line // 64) % 8 for (__, line), __ in bank.iter_lines()] \
        == [0, 1, 1, 5, 7]


def test_swap_between_banks_with_disjoint_touched_sets():
    a, b = CacheBank(1024, 2, 64, name="a"), CacheBank(1024, 2, 64, name="b")
    for index in (0, 1, 2):
        a.fill(0, index * 64)
    for index in (5, 6):
        b.fill(1, index * 64, LineState.MODIFIED)
    state_a, state_b = fields(a), fields(b)
    a.swap_state(b)
    assert (fields(a), fields(b)) == (state_b, state_a)
    # Each bank now answers for the other's lines, and builds the sets
    # it still lacks on demand.
    assert a.probe(1, 5 * 64) is LineState.MODIFIED
    assert a.probe(0, 0) is None and b.probe(0, 0) is not None
    assert b.fill(0, 7 * 64) is None
    assert a.resident_lines() == 2 and b.resident_lines() == 4

