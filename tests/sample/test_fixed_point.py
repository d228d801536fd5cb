"""Skipping a loop's fixed point in the warm-up is exact.

``ShadowUarch.warm`` runs the predictor/RAS pass and the I-cache pass
ahead of the D-caches, skips each loop period that repeats one which
left its structure unchanged, and replays the skipped periods' I-cache
L2 reads in place.  The reference is ``test_lazy_lru``'s eager
per-block loop — one block at a time, every line touched on the spot,
nothing split, deferred or skipped.  Every stream below must leave both
with equal ``state_dict()``s (the L2's LRU order included), equal live
and rebuilt directories, and equal global histories.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.program import BLOCK_STRIDE
from repro.sample.shadow import MAX_LOOP_PERIOD, ShadowUarch
from repro.tflex.config import tflex_config
from tests.sample.intervals import interval_of_blocks
from tests.sample.test_lazy_lru import directory, eager_block, transfer

#: A conv-like loop: with 8 KB 2-way I-caches, blocks 0, 4 and 8 map to
#: one set and evict each other on every iteration.
CONV = list(range(9))


def make_shadow(ncores, icache_bytes=8192, ras_entries=16, l2_bytes=None,
                speculative=True, centralized=False):
    cfg = tflex_config(ncores)
    cfg = replace(cfg, core=replace(
        cfg.core, icache_bytes=icache_bytes, dcache_bytes=512,
        ras_entries=ras_entries), centralized_predictor=centralized)
    if l2_bytes is not None:
        cfg = replace(cfg, l2_bank_bytes=l2_bytes)
    if not speculative:
        cfg = replace(cfg, max_inflight=1)
    return ShadowUarch(cfg, ncores)


def run(ncores, intervals, ops=None, sizes=None, loads=None, stores=None,
        exits=None, skews=None, transfers=(), **geometry):
    """Warm a skipping and an eager shadow on ``intervals`` (lists of
    block numbers) and check they agree; returns ``skipped`` per
    interval.  Block ``n`` sits at ``n * BLOCK_STRIDE`` plus its skew.
    A block's successor is the next block of the stream; its exit is a
    function of both unless ``exits`` fixes it, its op, size, loads and
    stores are the block's alone.  ``transfers`` names the interval
    boundaries where a window hand-off happens."""
    ops, sizes, exits = ops or {}, sizes or {}, exits or {}
    loads, stores, skews = loads or {}, stores or {}, skews or {}
    lazy = make_shadow(ncores, **geometry)
    eager = make_shadow(ncores, **geometry)
    stream = [number for interval in intervals for number in interval]
    successors = iter(stream[1:] + [0])
    ghist = eager_ghist = 0
    skipped = []
    for index, interval in enumerate(intervals):
        if index in transfers:
            transfer(lazy, "window")
            transfer(eager, "window")
        rows = []
        for number in interval:
            after = next(successors)
            addr = number * BLOCK_STRIDE + skews.get(number, 0)
            next_addr = after * BLOCK_STRIDE + skews.get(after, 0)
            exit_id = exits.get(number, (number * 5 + after) % 8)
            op = ops.get(number, "BRO")
            block_loads = loads.get(number, [])
            block_stores = stores.get(number, [])
            rows.append((addr, exit_id, next_addr, op, 1, len(block_loads),
                         block_loads,
                         [f for s in block_stores for f in (s, 8, 0, 0)]))
            eager_ghist = eager_block(
                eager, eager_ghist, addr, sizes.get(number, 40), exit_id,
                next_addr, op, block_loads, block_stores)
        if not rows:
            continue
        ghist = lazy.warm(
            interval_of_blocks(rows[0][0], [list(c) for c in zip(*rows)]),
            ghist,
            lambda a: SimpleNamespace(size=sizes.get(a // BLOCK_STRIDE, 40)))
        assert ghist == eager_ghist
        skipped.append(lazy.skipped)
    assert directory(lazy) == directory(eager)
    assert lazy.state_dict() == eager.state_dict()
    lazy.rebuild_directory()
    eager.rebuild_directory()
    assert directory(lazy) == directory(eager)
    return skipped


def total(skipped):
    return tuple(map(sum, zip(*skipped)))


def test_skip_engages_on_a_nine_block_loop():
    pred, icache = total(run(4, [CONV * 40]))
    assert pred >= 20 * 9 and icache >= 35 * 9


def test_skip_engages_on_a_one_block_loop():
    pred, icache = total(run(4, [[5] * 300]))
    assert pred >= 290 and icache >= 290


def test_one_core_has_no_predictor_pass_to_skip():
    """One block in flight: the predictor is never consulted, only the
    global history is kept.  The I-cache pass misses on the first block
    and finds its fixed point on the second."""
    assert run(1, [[5] * 300]) == [(0, 298)]


@pytest.mark.parametrize("ncores", [1, 4, 32])
def test_thrashing_sets(ncores):
    """Blocks 0, 4 and 8 miss on every iteration, so every skipped
    period replays L2 reads, on each core's slice."""
    __, icache = total(run(ncores, [CONV * 30, CONV * 30],
                           sizes={n: 128 for n in CONV}))
    assert icache >= 50 * 9


def test_loop_leaving_mid_period():
    run(4, [CONV * 20 + [0, 1, 2, 3, 20, 21]])
    run(4, [CONV * 20 + [0, 1, 2, 3], [30, 31] + CONV * 5])


def test_nested_loops():
    inner = [1, 2]
    run(2, [([*inner * 5, 3, 4]) * 8, ([*inner * 3, 3] + [7] * 4) * 10])


@pytest.mark.parametrize("ncores", [2, 4])
def test_call_return_bodies_around_the_ras(ncores):
    """Seven nested calls and their returns on a RAS of two entries per
    core — 4 entries, which the calls wrap, or 8: block 2k calls 2k+2
    and is returned to at 2k+1, its address plus ``BLOCK_STRIDE``.  Each
    call leaves by its own exit, so no two share a call-target entry;
    without the wrap, the loop settles with the RAS top back where it
    was after every iteration.  (Wrapped, each iteration overwrites a
    slot with two return addresses in turn, so no period counts as a
    fixed point although it ends where it began.)"""
    depth = 7
    calls = [2 * k for k in range(depth)]
    leaf = [2 * depth]
    returns = [2 * k + 1 for k in reversed(range(depth))]
    ops = {**{n: "CALLO" for n in calls}, **{n: "RET" for n in leaf},
           **{n: "RET" for n in returns[:-1]}}
    body = calls + leaf + returns
    pred, __ = total(run(ncores, [body * 20, body * 10], ops=ops,
                         exits={n: k for k, n in enumerate(calls)},
                         ras_entries=2))
    if ncores * 2 > depth:
        assert pred >= 15 * len(body)


def test_aperiodic_stream_skips_nothing():
    """Forty blocks in random order, none twice in a row."""
    rng = random.Random(7)
    stream = []
    while len(stream) < 400:
        number = rng.randrange(40)
        if not stream or stream[-1] != number:
            stream.append(number)
    assert run(4, [stream[:200], stream[200:]]) == [(0, 0), (0, 0)]


def test_period_above_the_cap_is_not_skipped():
    body = list(range(MAX_LOOP_PERIOD + 6))
    assert run(1, [body * 4], sizes={n: 8 for n in body}) == [(0, 0)]


def test_interval_shorter_than_two_periods():
    assert run(4, [CONV + CONV[:6]] * 3, transfers={1}) == [(0, 0)] * 3


@pytest.mark.parametrize("code_line", [0, 4 * BLOCK_STRIDE])
def test_store_to_a_code_line(code_line):
    """A store to a line the I-caches keep missing on makes a D-cache
    bank's core its directory owner: the replayed reads must downgrade
    it — the first reader being the owner (core 0 holds line 0's bank)
    or not."""
    __, icache = total(run(4, [CONV * 25], stores={2: [code_line]},
                           loads={6: [code_line + 8]}))
    assert icache >= 20 * 9


_program = st.lists(st.tuples(
    st.lists(st.integers(0, 11), min_size=1, max_size=12),    # loop body
    st.integers(1, 25)),                                       # trips
    min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(program=_program, seed=st.integers(0, 2 ** 16),
       ncores=st.sampled_from([1, 2, 4, 32]),
       icache_bytes=st.sampled_from([256, 1024, 8192]),
       l2_bytes=st.sampled_from([None, 1024]),
       speculative=st.booleans(), centralized=st.booleans(),
       cuts=st.lists(st.integers(0, 1500), max_size=3),
       transfers=st.sets(st.integers(1, 3)))
def test_generated_loop_programs(program, seed, ncores, icache_bytes,
                                 l2_bytes, speculative, centralized, cuts,
                                 transfers):
    """Loops of random bodies and trip counts, cut into intervals at
    random points with window hand-offs between some; per block a
    fixed op, size, skew (an unaligned block is never resident), loads
    and stores (some of them to code lines); sometimes a tiny L2 that
    recalls lines from the D-caches."""
    rng = random.Random(seed)
    stream = [number for body, trips in program for __ in range(trips)
              for number in body]
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    intervals = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    lines = [n * 64 for n in range(12)] + [BLOCK_STRIDE * n for n in (0, 4)]
    run(ncores, intervals,
        ops={n: rng.choice(["BRO", "BRO", "CALLO", "RET"]) for n in range(12)},
        sizes={n: rng.choice([1, 8, 40, 128]) for n in range(12)},
        skews={n: rng.choice([0, 0, 0, 64, 200]) for n in range(12)},
        loads={n: rng.sample(lines, rng.randrange(3)) for n in range(12)},
        stores={n: rng.sample(lines, rng.randrange(2)) for n in range(12)},
        transfers=transfers, icache_bytes=icache_bytes, l2_bytes=l2_bytes,
        speculative=speculative, centralized=centralized)
