"""The compact coherence state is exactly the object one.

``CacheBank`` holds a bare ``LineState`` per resident line and
``L2System``'s directory a sharer bit mask per entry.  The references
(``tests.references.LineCacheBank`` and ``SetL2System``) are the same
hierarchy with a ``Line`` object per line and a ``set`` of sharers.
Random request streams on up to 32 cores — demand reads and writes,
warm-up reads and writes, L1 evictions, hits, and fills that evict from
an L1 or recall from the L2 — must leave both with equal sets (order
and state), equal directory entries, equal stats, and the same L1s told
to invalidate in the same order.
"""

from hypothesis import example, given, settings, strategies as st

from repro.mem.cache import CacheBank, LineState
from repro.mem.dram import Dram
from repro.mem.l2 import L2System
from repro.noc.mesh import Topology
from tests.references import LineCacheBank, SetL2System

LINE = 64
#: Tiny geometries, so L1 fills evict and L2 fills recall: L1s of 2
#: sets x 2 ways, an L2 of two banks of 2 sets x 4 ways.  An L2 bank
#: uses only the sets of its own parity, so the L2 holds 8 lines, 4 of
#: each L1 set's: an L1 evicts before the L2 recalls.
L1_BYTES, L1_ASSOC = 4 * LINE, 2
L2_BANKS, L2_BANK_BYTES, L2_ASSOC = 2, 8 * LINE, 4

OPS = ("read", "write", "warm_read", "warm_write", "l1_evicted", "hit")


def _system(l2_class, bank_class, ncores):
    """An L2 and its L1s; the L2 logs each L1 it reaches, in order."""
    l1s = [bank_class(L1_BYTES, L1_ASSOC, LINE, name=f"l1d{core}")
           for core in range(ncores)]
    reached: list = []

    def l1_bank(core):
        reached.append(core)
        return l1s[core]

    l2 = l2_class(Topology(4, 8), num_banks=L2_BANKS,
                  bank_bytes=L2_BANK_BYTES, assoc=L2_ASSOC, line_size=LINE,
                  l1_banks=l1_bank, dram=Dram(latency=20))
    return l2, l1s, reached


def _victim(victim):
    """A victim as ``(ctx, line_addr)``, whichever bank returned it."""
    if victim is None or type(victim) is tuple:
        return victim
    return victim.ctx, victim.line_addr


def _step(l2, l1s, op, core, ctx, addr, now):
    """One request through the hierarchy, as the timing model and the
    shadow warm-up issue it; returns what the caller sees."""
    l1 = l1s[core]
    line_addr = addr & ~(LINE - 1)
    if op == "hit":
        return l1.access(ctx, addr, write=bool(now & 1))
    if op == "l1_evicted":
        state = l1.invalidate(ctx, addr)
        l2.l1_evicted(ctx, line_addr, core)
        return getattr(state, "state", state)
    if op in ("read", "write"):
        done, state = getattr(l2, op)(ctx, addr, core, now)
    else:
        getattr(l2, op)(ctx, line_addr, core)
        done, state = None, (LineState.SHARED if op == "warm_read"
                             else LineState.MODIFIED)
    victim = _victim(l1.fill(ctx, addr, state))
    if victim is not None:
        l2.l1_evicted(*victim, core)
    return done, state, victim


def _sets(bank) -> dict:
    """Set index -> ``[((ctx, line_addr), state), ...]``, LRU first."""
    return {index: [(key, getattr(line, "state", line))
                    for key, line in cache_set.items()]
            for index, cache_set in sorted(bank._sets.items()) if cache_set}


def _directory(l2) -> list:
    """``[(key, owner, sharer mask), ...]`` in the directory's order."""
    return [(key, entry.owner, entry.sharers if type(entry.sharers) is int
             else sum(1 << core for core in entry.sharers))
            for key, entry in l2.directory.items()]


def _observe(l2, l1s, reached):
    return ([_sets(bank) for bank in (*l2.banks, *l1s)], _directory(l2),
            l2.stats, [l1.stats for l1 in l1s], reached)


_requests = st.lists(st.tuples(
    st.sampled_from(OPS),
    st.integers(0, 31),                    # core, mod the core count
    st.integers(0, 1),                     # ctx
    st.integers(0, 24 * LINE - 1)),        # 24 lines, unaligned
    max_size=80)


@settings(max_examples=200, deadline=None)
@given(ncores=st.integers(1, 32), requests=_requests)
@example(ncores=32, requests=[
    # Three sharers, a writer, two readers the owner forwards to ...
    ("read", 5, 0, 0), ("read", 31, 0, 8), ("read", 2, 0, 16),
    ("write", 9, 0, 24), ("read", 5, 0, 0), ("read", 31, 0, 0),
    # ... an L1 eviction (core 7's set 0), then a recall of line 0.
    *(("read", 7, 0, n * 2 * LINE) for n in range(1, 5))])
def test_compact_state_equals_object_state(ncores, requests):
    compact = _system(L2System, CacheBank, ncores)
    objects = _system(SetL2System, LineCacheBank, ncores)
    for now, (op, core, ctx, addr) in enumerate(requests):
        core %= ncores
        assert _step(*compact[:2], op, core, ctx, addr, now) \
            == _step(*objects[:2], op, core, ctx, addr, now)
        assert _observe(*compact) == _observe(*objects)
