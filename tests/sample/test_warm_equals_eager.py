"""The shadow's warm-up is exactly the eager per-block one.

``ShadowUarch.warm`` runs an interval as three passes, resolves each
block's I-cache footprint to set objects once per transfer, skips loop
periods at fixed points, and walks the D-caches as one op stream per
interval (``FFInterval.dcache_ops``: a block's load lines, then its
store lines, an op on the line the one before it in its block touched
kept once), stopping only to replay the I-cache pass's L2 reads before
the block that made them.  The reference (``tests.references.
eager_block``) touches every line of every fetched block on the spot,
through the public ``CacheBank``/``L2System`` calls the per-block
warm-up was written with; random streams — tiny I-caches that evict,
one address fetched at several sizes, unaligned addresses, comparisons
and state transfers at random points — and the op stream's edge cases
must leave both with equal warm fields (``tests.warm_fields``) and
equal directories.
"""

from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.isa.program import BLOCK_STRIDE
from repro.mem.cache import CacheBank
from repro.sample.shadow import ShadowUarch
from repro.tflex.config import tflex_config
from tests.references import eager_block
from tests.sample.intervals import interval_of_blocks
from tests.warm_fields import fields

OPS = ("BRO", "CALLO", "RET", "HALT")


def make_shadow(ncores, icache_bytes, l2_bytes=None):
    cfg = tflex_config(ncores)
    cfg = replace(cfg, core=replace(
        cfg.core, icache_bytes=icache_bytes, dcache_bytes=512))
    if l2_bytes is not None:
        cfg = replace(cfg, l2_bank_bytes=l2_bytes)
    return ShadowUarch(cfg, ncores)


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


def drive(ncores, icache_bytes, events, check_each=False, l2_bytes=None):
    shadow = make_shadow(ncores, icache_bytes, l2_bytes)
    eager = make_shadow(ncores, icache_bytes, l2_bytes)
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
def test_shadow_equals_eager_reference(ncores, icache_bytes, events):
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


# The op stream's edges: the walk keeps a block's load lines, then its
# store lines, and stops only before a block with I-cache L2 reads.

def _block(number, loads, stores, size=8):
    """A block of one stream that falls through to the next number."""
    return (number, 0, size, 0, number + 1, "BRO", loads, stores)


def test_dcache_op_stream_layout():
    """Per block its load lines, then its store lines, an op repeating
    the one before it in its block kept once — never across blocks, and
    never a store after a load of its line."""
    interval = interval_of_blocks(0, [
        [0, BLOCK_STRIDE, 2 * BLOCK_STRIDE], [0] * 3, [0] * 3,
        ["BRO"] * 3, [1] * 3, [4, 0, 1],
        [[64, 72, 128, 64], [], [128]],
        [[64, 8, 0, 0, 72, 8, 0, 0, 200, 8, 0, 0], [], [136, 8, 0, 0]]])
    lines, ops, ends = interval.dcache_ops(64)
    assert list(lines) == [1, 2, 3]
    assert [(lines[op >> 1], op & 1) for op in ops] == [
        (1, 0), (2, 0), (1, 0), (1, 1), (3, 1), (2, 0), (2, 1)]
    assert list(ends) == [5, 5, 7]
    assert interval.dcache_ops(64) is interval.dcache_ops(64)
    lines, ops, ends = interval.dcache_ops(128)
    assert [(lines[op >> 1], op & 1) for op in ops] == [
        (0, 0), (1, 0), (0, 0), (0, 1), (1, 1), (1, 0), (1, 1)]
    assert list(ends) == [5, 5, 7]


def test_store_to_a_line_its_own_block_loaded():
    """S -> M: a block loads a line and then stores to it, twice running
    and after another line; the next blocks load and store it again."""
    drive(2, 8192, [
        [_block(0, [64, 72], [80])],
        [_block(1, [64, 320], [64, 88, 320]), _block(2, [], [64, 64, 128]),
         _block(3, [128], [])],
        "snapshot",
        [_block(0, [128, 64], [72, 128])]], check_each=True)


def test_icache_reads_between_store_only_blocks():
    """Blocks that store and never load, to their own code line and to
    the next block's, under an I-cache too small to keep any of them:
    every block's I-cache L2 read falls between the previous block's
    stores, which leave its line owned by a D-cache, and its own, which
    must find the I-cache's core among the sharers."""
    def cycle(numbers):
        return [(n, 0, 8, 0, 0, "BRO", [],
                 [n * BLOCK_STRIDE,
                  numbers[(at + 1) % len(numbers)] * BLOCK_STRIDE])
                for at, n in enumerate(numbers)]

    for ncores in (1, 2):
        drive(ncores, 256, [cycle([0, 1, 2]) * 3, "snapshot",
                            cycle([2, 4]) * 2], check_each=True)


def test_blocks_without_loads_or_stores():
    """Blocks with no D-cache op — first in an interval, between blocks
    that have some, last, and with I-cache misses of their own — put
    nothing in the op stream and move no stop of the walk."""
    code = 3 * BLOCK_STRIDE
    drive(2, 256, [
        [_block(0, [], []), _block(1, [], [], size=40),
         _block(2, [64], [code]), _block(3, [], []),
         _block(4, [code + 8], [], size=128), _block(5, [], [])],
        [_block(6, [], [])],
        [_block(3, [], [code]), _block(7, [], []), _block(3, [], [])]],
        check_each=True)


def test_load_kept_once_only_within_its_block():
    """Every block loads line 0 and nothing else, and fetches a block of
    its own through a one-line I-cache miss; with 8-line L2 banks those
    code lines share line 0's bank and push it out, recalling it from
    the D-cache, so the next block's load of it misses again — a load
    kept once across blocks would leave it out."""
    blocks = [(2 * n, 0, 8, 0, 2 * n + 2, "BRO", [0], []) for n in range(24)]
    drive(1, 256, [blocks, "snapshot", blocks[:12]], check_each=True,
          l2_bytes=512)
