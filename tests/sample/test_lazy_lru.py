"""The shadow's warm-up is exactly the eager per-block one.

``ShadowUarch.warm`` runs an interval as three passes, resolves each
block's I-cache footprint to set objects once per transfer, skips loop
periods at fixed points, replays the I-cache passes' L2 reads in the
D-cache pass and touches a load's line once while it stays MRU.  The
reference below touches every line of every fetched block on the spot,
through the public ``CacheBank``/``L2System`` calls the per-block
warm-up was written with; random streams — tiny I-caches that evict,
one address fetched at several sizes, unaligned addresses, comparisons
and state transfers at random points — must leave both with equal warm
fields (``tests.warm_fields``) and equal directories.
"""

from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.isa.program import BLOCK_STRIDE
from repro.mem.cache import CacheBank, LineState
from repro.predictor.exits import GLOBAL_HISTORY_EXITS, push_history
from repro.predictor.targets import BranchKind
from repro.sample.shadow import ShadowUarch
from repro.tflex import interleave
from repro.tflex.config import tflex_config
from tests.sample.intervals import interval_of_blocks
from tests.warm_fields import fields

OPS = ("BRO", "CALLO", "RET", "HALT")


def make_shadow(ncores, icache_bytes):
    cfg = tflex_config(ncores)
    return ShadowUarch(replace(cfg, core=replace(
        cfg.core, icache_bytes=icache_bytes, dcache_bytes=512)), ncores)


def eager_block(shadow, ghist, addr, size, exit_id, next_addr, op,
                loads, stores):
    """One committed block, every cache line touched immediately."""
    ctx, l2, line = shadow.ctx, shadow.l2, shadow.line_size
    ncores = shadow.ncores
    if shadow.speculative:
        owner = 0 if shadow.cfg.centralized_predictor \
            else (addr // BLOCK_STRIDE) % ncores
        ghist, __ = shadow.pred_banks[owner].observe_commit(
            addr, ghist, shadow.ras, exit_id, BranchKind.of_opcode(op),
            next_addr)
    else:
        ghist = push_history(ghist, exit_id, GLOBAL_HISTORY_EXITS)

    for core in range(ncores):
        chunk = len(range(core, size, ncores))      # instructions i = core mod N
        if not chunk:
            continue
        icache = shadow.icaches[core]
        for n in range(max(1, -(-chunk * 4 // line))):
            la = icache.line_addr(addr + n * line)
            if not icache.access(ctx, la):
                l2.warm_read(ctx, la, core)
                icache.fill(ctx, la, LineState.SHARED)

    def bank_of(data_addr):
        b = interleave.dbank_of(data_addr, line, shadow.num_dbanks)
        return shadow.dcaches[b], interleave.dbank_core_index(
            b, ncores, shadow.num_dbanks)

    for laddr in loads:
        dcache, core = bank_of(laddr)
        if not dcache.access(ctx, laddr):
            l2.warm_read(ctx, dcache.line_addr(laddr), core)
            victim = dcache.fill(ctx, laddr, LineState.SHARED)
            if victim is not None:
                l2.l1_evicted(victim.ctx, victim.line_addr, core)
    for saddr in stores:
        dcache, core = bank_of(saddr)
        present = dcache.probe(ctx, saddr)
        if present is not None and present.state is LineState.MODIFIED:
            dcache.access(ctx, saddr, write=True)
            continue
        l2.warm_write(ctx, dcache.line_addr(saddr), core)
        victim = dcache.fill(ctx, saddr, LineState.MODIFIED)
        if victim is not None:
            l2.l1_evicted(victim.ctx, victim.line_addr, core)
    return ghist


def directory(shadow):
    return {key: (entry.owner, sorted(entry.sharers))
            for key, entry in shadow.l2.directory.items()}


def same(shadow, eager):
    return (fields(shadow) == fields(eager)
            and directory(shadow) == directory(eager))


def transfer(shadow, kind):
    """What can move a shadow's state between intervals."""
    if kind == "directory":
        shadow.rebuild_directory()
    else:                               # window hand-off: out, run, back in
        shadow.settle()
        spare = [CacheBank(bank.num_sets * bank.assoc * bank.line_size,
                           bank.assoc, bank.line_size)
                 for bank in shadow.icaches]
        for bank, other in zip(shadow.icaches, spare):
            bank.swap_state(other)
        for bank, other in zip(shadow.icaches, spare):
            other.fill(shadow.ctx, 7 * BLOCK_STRIDE)    # the window ran
            bank.swap_state(other)
        shadow.rebuild_directory()


_block = st.tuples(
    st.integers(0, 11),                          # block number
    st.sampled_from([0, 0, 0, 64, 200]),         # misalignment
    st.sampled_from([1, 3, 8, 40, 128]),         # size
    st.integers(0, 7), st.integers(0, 11), st.sampled_from(OPS),
    st.lists(st.integers(0, 1 << 13), max_size=3),       # load addresses
    st.lists(st.integers(0, 1 << 13), max_size=2))       # store addresses

_events = st.lists(st.one_of(
    st.lists(_block, min_size=1, max_size=30),           # one interval
    st.sampled_from(["snapshot", "directory", "window"])),
    min_size=1, max_size=12)


def drive(ncores, icache_bytes, events, check_each=False):
    shadow = make_shadow(ncores, icache_bytes)
    eager = make_shadow(ncores, icache_bytes)
    ghist = eager_ghist = 0
    for event in events:
        if event == "snapshot":
            assert same(shadow, eager)
        elif isinstance(event, str):
            transfer(shadow, event)
            transfer(eager, event)
        else:
            sizes = {}
            rows = []
            for number, skew, size, exit_id, nxt, op, loads, stores in event:
                addr = number * BLOCK_STRIDE + skew
                # One interval sees one size per address (a program's
                # blocks do not change); across intervals it may differ.
                size = sizes.setdefault(addr, size)
                rows.append((addr, exit_id, nxt * BLOCK_STRIDE, op, 1,
                             len(loads), loads,
                             [f for s in stores for f in (s, 8, 0, 0)]))
                eager_ghist = eager_block(
                    eager, eager_ghist, addr, size, exit_id,
                    nxt * BLOCK_STRIDE, op, loads, stores)
            interval = interval_of_blocks(rows[0][0],
                                          [list(c) for c in zip(*rows)])
            ghist = shadow.warm(interval, ghist,
                              lambda a: SimpleNamespace(size=sizes[a]))
            assert ghist == eager_ghist
            if check_each:
                assert same(shadow, eager)
    assert same(shadow, eager)


@settings(max_examples=120, deadline=None)
@given(ncores=st.sampled_from([1, 2, 4, 8]),
       icache_bytes=st.sampled_from([256, 512, 8192]), events=_events)
def test_lazy_shadow_equals_eager_reference(ncores, icache_bytes, events):
    drive(ncores, icache_bytes, events)


# Loads drawn from ten lines (the 512 B D-cache holds eight), so a block
# often touches one line several times running and the next block often
# starts on the line the last one ended on — with I-cache misses (tiny
# I-caches) reaching the L2 in between.
_line_loads = st.lists(
    st.builds(lambda line, offset: line * 64 + offset,
              st.integers(0, 9), st.integers(0, 63)), max_size=8)
_repeating = st.lists(st.lists(st.tuples(
    st.integers(0, 11), st.just(0), st.sampled_from([8, 40, 128]),
    st.integers(0, 7), st.integers(0, 11), st.sampled_from(OPS),
    _line_loads, st.lists(st.integers(0, 639), max_size=2)),
    min_size=1, max_size=20), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(ncores=st.sampled_from([1, 2, 8]),
       icache_bytes=st.sampled_from([256, 8192]), intervals=_repeating)
def test_repeated_load_lines_equal_eager_reference(ncores, icache_bytes,
                                                   intervals):
    """``warm`` skips a load of the line the block's previous load
    touched; every bank and the L2 equal the eager reference after each
    interval."""
    drive(ncores, icache_bytes, intervals, check_each=True)


def test_repeat_skip_is_not_carried_across_blocks():
    """Two blocks loading one line with a store to its set in between:
    the second load is a real LRU touch."""
    def block(loads, stores):
        return (0, 0, 8, 0, 0, "BRO", loads, stores)
    drive(1, 8192, [[block([0, 8], [256]), block([16], [])]], check_each=True)


def test_loop_nest_defers_and_settles():
    """A cached loop's repeats are skipped in the I-cache pass from its
    second period on, their L2 reads deferred to the D-cache pass, and
    exact across snapshots and transfers; ``settle`` drops the resolved
    footprints."""
    loop = [(n, 0, 40, 0, (n + 1) % 3, "BRO", [], []) for n in range(3)] * 20
    drive(4, 8192, [loop, "snapshot", loop, "window", loop, "directory", loop])
    shadow = make_shadow(4, 8192)
    rows = [(n * BLOCK_STRIDE, 0, 0, "BRO", 1, 0, [], []) for n in range(3)] * 5
    interval = interval_of_blocks(0, [list(c) for c in zip(*rows)])
    shadow.warm(interval, 0, lambda a: SimpleNamespace(size=40))
    assert shadow.skipped[1] == 9
    assert shadow._ic_touches
    shadow.settle()
    assert not shadow._ic_touches


def test_thrashing_set_does_not_flush_unrelated_blocks():
    """Blocks that evict each other in one set leave the line of a block
    in another set cached (and the result exact)."""
    # 8 KB, 2-way, 64 B lines: 64 sets, and blocks sit 16 lines apart,
    # so blocks 0, 4 and 8 collide in set 0 (3 lines, 2 ways) while
    # block 1 sits alone in set 16.
    cycle = [(n, 0, 3, 0, 0, "BRO", [], []) for n in (0, 1, 4, 1, 8, 1)] * 6
    drive(1, 8192, [cycle, "snapshot", cycle])

    shadow = make_shadow(1, 8192)
    rows = [(n * BLOCK_STRIDE, 0, 0, "BRO", 1, 0, [], [])
            for n in (0, 1, 4, 1, 8, 1) * 6 + (0,)]
    interval = interval_of_blocks(0, [list(c) for c in zip(*rows)])
    shadow.warm(interval, 0, lambda a: SimpleNamespace(size=3))
    icache = shadow.icaches[0]
    assert icache.probe(shadow.ctx, BLOCK_STRIDE) is not None
    assert icache.probe(shadow.ctx, 4 * BLOCK_STRIDE) is None  # evicted by 0
    assert icache.probe(shadow.ctx, 8 * BLOCK_STRIDE) is not None
