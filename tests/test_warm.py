"""The state-transfer contract, once, for every warm structure.

Every structure that owns warm microarchitectural state speaks one
vocabulary — ``state_dict``/``load_state``/``swap_state`` — derived from
its ``WARM`` field declaration (:mod:`repro.warm`); the two composites
(``PredictorBank``, ``ShadowUarch``) delegate in the same vocabulary.
This suite states the contract once and runs it over all of them, at
default and non-default geometries, on hypothesis-generated contents:

* a snapshot survives JSON and loads back to an equal snapshot;
* a composite's snapshot carries every warm part reachable from it;
* ``swap_state`` lands on exactly the state a ``load_state(state_dict())``
  in each direction lands on — container order (LRU, hence the eviction
  victim) and the structure's next observable answers included;
* stats stay with their owner through loads and swaps;
* a geometry mismatch raises ``ValueError`` and changes neither side —
  in a composite too, whichever part it is in.
"""

import dataclasses
import json
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.program import BLOCK_STRIDE
from repro.mem.cache import CacheBank, LineState
from repro.predictor.bank import PredictorBank
from repro.predictor.exits import ExitPredictor, push_history
from repro.predictor.ras import DistributedRas
from repro.predictor.targets import BranchKind, TargetPredictor
from repro.sample.shadow import ShadowUarch
from repro.tflex.config import tflex_config
from repro.warm import WarmState
from tests.sample.intervals import interval_of_blocks

#: Contents are driven by a list of integers each trainer interprets.
_streams = st.lists(st.integers(0, (1 << 20) - 1), max_size=60)


def _json(obj):
    return json.loads(json.dumps(obj))


# ----------------------------------------------------------------------
# Trainers (stream of ints -> warm contents) and probes (the structure's
# next observable answers, which depend on everything a transfer moves)
# ----------------------------------------------------------------------

def _train_cache(bank, stream):
    for n in stream:
        addr = ((n >> 3) & 255) * bank.line_size
        if n & 4:
            bank.access(n & 3, addr)                       # LRU touch
        else:
            bank.fill(n & 3, addr, LineState.MODIFIED if n & (1 << 11)
                      else LineState.SHARED)


def _probe_cache(bank):
    """The eviction victim of every set under one more fill."""
    victims = [bank.fill(9, index * bank.line_size)
               for index in range(bank.num_sets)]
    return [v and (v.ctx, v.line_addr, v.state) for v in victims]


def _train_ras(ras, stream):
    for n in stream:
        if n & 1:
            ras.push(n)
        else:
            ras.pop()


def _probe_ras(ras):
    return [ras.pop()[0] for __ in range(ras.capacity + 1)]


def _train_exits(exits, stream):
    ghist = 0
    for n in stream:
        prediction = exits.predict(n & 63, ghist)
        exits.update(n & 63, prediction, (n >> 6) & 7)
        ghist = push_history(ghist, (n >> 6) & 7, 4)


def _probe_exits(exits):
    return [exits.predict(num, num * 5).exit_id for num in range(64)]


def _train_targets(targets, stream):
    for n in stream:
        targets.update((n & 63) * BLOCK_STRIDE, (n >> 6) & 7,
                       BranchKind((n >> 9) & 3),
                       ((n >> 11) & 63) * BLOCK_STRIDE)


def _probe_targets(targets):
    return [targets.predict(num * BLOCK_STRIDE, exit_id)
            for num in range(64) for exit_id in range(8)]


def _train_bank(bank, stream):
    ras = DistributedRas(4)
    ghist = 0
    for n in stream:
        prediction = bank.predict((n & 63) * BLOCK_STRIDE, ghist, ras)
        bank.update(prediction, (n >> 6) & 7, BranchKind((n >> 9) & 3),
                    ((n >> 11) & 63) * BLOCK_STRIDE)
        ghist = prediction.next_global_history


def _probe_bank(bank):
    ras = DistributedRas(4)
    return [bank.predict(num * BLOCK_STRIDE, num * 5, ras).next_addr
            for num in range(64)]


def _train_shadow(shadow, stream):
    """One-block intervals through the batched warm-up."""
    ghist = 0
    for n in stream:
        addr = (n & 63) * BLOCK_STRIDE
        interval = interval_of_blocks(addr, (
            [addr], [(n >> 6) & 7], [((n >> 9) & 63) * BLOCK_STRIDE],
            [("BRO", "CALLO", "RET")[(n >> 15) % 3]], [1], [2],
            [[(n >> 2) * 8, n * 64]],
            [[(n >> 4) * 8, 8, n, 0] if n & 8 else []]))
        size = SimpleNamespace(size=1 + (n & 127))
        ghist = shadow.warm(interval, ghist, lambda __: size)


def _probe_shadow(shadow):
    shadow.settle()
    return ([_probe_bank(bank) for bank in shadow.pred_banks],
            _probe_ras(shadow.ras),
            [_probe_cache(bank) for bank in
             shadow.icaches + shadow.dcaches + shadow.l2.banks])


def _leaf_stats(structure):
    return [structure.stats]


def _bank_stats(bank):
    return [bank.exits.stats, bank.targets.stats]


def _shadow_stats(shadow):
    return ([s for bank in shadow.pred_banks for s in _bank_stats(bank)]
            + [shadow.ras.stats]
            + [bank.stats for bank in
               shadow.icaches + shadow.dcaches + shadow.l2.banks])


@dataclasses.dataclass
class Case:
    make: object                 # () -> a fresh structure
    train: object
    probe: object
    stats: object = _leaf_stats
    #: Factories of structures this one must refuse to swap with /
    #: refuse snapshots from.
    swap_mismatch: tuple = ()
    load_mismatch: tuple = ()


def _shadow(ncores, **core):
    cfg = tflex_config(ncores)
    return ShadowUarch(replace(cfg, core=replace(cfg.core, **core)), ncores)


_EXIT_MISMATCH = (lambda: ExitPredictor(local_l1=32),
                  lambda: ExitPredictor(local_l2=64),
                  lambda: ExitPredictor(global_entries=256),
                  lambda: ExitPredictor(choice_entries=256))
_TARGET_MISMATCH = (lambda: TargetPredictor(btype_entries=128),
                    lambda: TargetPredictor(btb_entries=64),
                    lambda: TargetPredictor(ctb_entries=8))

CASES = {
    "cache": Case(
        lambda: CacheBank(1024, 2, 64, name="t"), _train_cache, _probe_cache,
        swap_mismatch=(lambda: CacheBank(512, 2, 64),       # set count
                       lambda: CacheBank(2048, 4, 64),      # assoc only
                       lambda: CacheBank(512, 2, 32)),      # line size only
        load_mismatch=(lambda: CacheBank(512, 2, 64),)),
    "cache-4way-32B": Case(
        lambda: CacheBank(4096, 4, 32, name="t"), _train_cache, _probe_cache,
        swap_mismatch=(lambda: CacheBank(4096, 4, 64),),
        load_mismatch=(lambda: CacheBank(4096, 4, 64),)),
    "ras": Case(
        lambda: DistributedRas(2), _train_ras, _probe_ras,
        swap_mismatch=(lambda: DistributedRas(4),),
        load_mismatch=(lambda: DistributedRas(4),)),
    "ras-4x4": Case(                 # capacity 16: long streams wrap
        lambda: DistributedRas(4, 4), _train_ras, _probe_ras,
        swap_mismatch=(lambda: DistributedRas(2, 4),),
        load_mismatch=(lambda: DistributedRas(4, 2),)),
    "exits": Case(
        ExitPredictor, _train_exits, _probe_exits,
        swap_mismatch=_EXIT_MISMATCH, load_mismatch=_EXIT_MISMATCH),
    "exits-small": Case(
        lambda: ExitPredictor(16, 32, 64, 128), _train_exits, _probe_exits,
        swap_mismatch=(ExitPredictor,), load_mismatch=(ExitPredictor,)),
    "targets": Case(
        TargetPredictor, _train_targets, _probe_targets,
        swap_mismatch=_TARGET_MISMATCH, load_mismatch=_TARGET_MISMATCH),
    "targets-small": Case(
        lambda: TargetPredictor(64, 32, 4), _train_targets, _probe_targets,
        swap_mismatch=(TargetPredictor,), load_mismatch=(TargetPredictor,)),
    "predictor-bank": Case(
        PredictorBank, _train_bank, _probe_bank, stats=_bank_stats,
        # A composite checks every part before moving any: a mismatch in
        # its last part (the target tables) leaves the first untouched.
        swap_mismatch=(lambda: PredictorBank(local_l1=32),
                       lambda: PredictorBank(btb_entries=64)),
        load_mismatch=(lambda: PredictorBank(local_l1=32),
                       lambda: PredictorBank(ctb_entries=8))),
    "predictor-bank-small": Case(
        lambda: PredictorBank(16, 32, 64, 128, 64, 32, 4),
        _train_bank, _probe_bank, stats=_bank_stats,
        swap_mismatch=(PredictorBank,), load_mismatch=(PredictorBank,)),
    # The shadow has no swap of its own: the sampled engine pairs its
    # parts with a window system's (tests/sample/test_engine.py).
    "shadow-2": Case(
        lambda: _shadow(2), _train_shadow, _probe_shadow, stats=_shadow_stats,
        # Same bank counts, so only the D-cache banks — staged after the
        # RAS, the predictors and the I-caches — can refuse.
        load_mismatch=(lambda: _shadow(4),
                       lambda: _shadow(2, dcache_bytes=4096))),
    "shadow-4-small-l1": Case(
        lambda: _shadow(4, icache_bytes=2048, dcache_bytes=4096, btb_entries=64),
        _train_shadow, _probe_shadow, stats=_shadow_stats,
        load_mismatch=(lambda: _shadow(8),)),
}

ALL = pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
SWAPPING = pytest.mark.parametrize(
    "case", [c for c in CASES.values() if c.swap_mismatch],
    ids=[k for k, c in CASES.items() if c.swap_mismatch])
_COMPOSITES = {k: c for k, c in CASES.items()
               if not isinstance(c.make(), WarmState)}
COMPOSITE = pytest.mark.parametrize("case", _COMPOSITES.values(),
                                    ids=_COMPOSITES.keys())

_fast = settings(max_examples=25, deadline=None)


def _trained(case, stream):
    structure = case.make()
    case.train(structure, stream)
    return structure


def _stats_values(case, structure):
    return [dataclasses.asdict(s) for s in case.stats(structure)]


def _warm_parts(obj, path=()):
    """Every ``WarmState`` reachable from ``obj`` through ``vars()`` of
    repro objects and through lists, with the path that reaches it."""
    if isinstance(obj, WarmState):
        yield path, obj
    elif isinstance(obj, list):
        for index, item in enumerate(obj):
            yield from _warm_parts(item, path + (index,))
    elif type(obj).__module__.startswith("repro.") \
            and hasattr(obj, "__dict__"):
        for name, value in vars(obj).items():
            yield from _warm_parts(value, path + (name,))


def test_every_warm_structure_has_a_case():
    """A new ``WarmState`` subclass must join the contract suite."""
    def leaves(cls):
        return {cls} | {leaf for sub in cls.__subclasses__()
                        for leaf in leaves(sub)}
    covered = {type(case.make()) for case in CASES.values()}
    assert leaves(WarmState) - {WarmState} <= covered
    assert {PredictorBank, ShadowUarch} <= covered


@ALL
@_fast
@given(stream=_streams)
def test_snapshot_survives_json_and_loads_back_equal(case, stream):
    source = _trained(case, stream)
    snapshot = source.state_dict()
    assert _json(snapshot) == snapshot            # JSON-safe, losslessly
    fresh = case.make()
    fresh.load_state(_json(snapshot))
    assert fresh.state_dict() == snapshot
    assert case.probe(fresh) == case.probe(source)


@COMPOSITE
@_fast
@given(stream=_streams)
def test_load_moves_every_reachable_warm_part(case, stream):
    """A part a composite warms but leaves off its snapshot stays
    behind on a load, even where no probe reads it."""
    def parts(composite):
        return {path: part.state_dict()
                for path, part in _warm_parts(composite)}

    source = _trained(case, stream)
    fresh = case.make()
    fresh.load_state(_json(source.state_dict()))
    assert parts(fresh) == parts(source)


@ALL
@_fast
@given(stream=_streams, prior=_streams)
def test_load_replaces_prior_contents_and_keeps_stats(case, stream, prior):
    source = _trained(case, stream)
    target = _trained(case, prior)
    stats, values = case.stats(target), _stats_values(case, target)
    target.load_state(_json(source.state_dict()))
    assert target.state_dict() == source.state_dict()
    assert all(a is b for a, b in zip(case.stats(target), stats))
    assert _stats_values(case, target) == values


@SWAPPING
@_fast
@given(first=_streams, second=_streams)
def test_swap_equals_load_roundtrip_both_ways(case, first, second):
    a, b = _trained(case, first), _trained(case, second)
    state_a, state_b = a.state_dict(), b.state_dict()
    via_load_a, via_load_b = case.make(), case.make()
    via_load_a.load_state(_json(state_b))         # what a should become
    via_load_b.load_state(_json(state_a))         # what b should become

    a.swap_state(b)
    assert a.state_dict() == state_b == via_load_a.state_dict()
    assert b.state_dict() == state_a == via_load_b.state_dict()
    a.swap_state(b)                               # and back again
    assert (a.state_dict(), b.state_dict()) == (state_a, state_b)

    a.swap_state(b)
    assert case.probe(a) == case.probe(via_load_a)
    assert case.probe(b) == case.probe(via_load_b)


@SWAPPING
@_fast
@given(stream=_streams)
def test_swap_leaves_stats_with_their_owner(case, stream):
    a, b = _trained(case, stream), case.make()
    stats_a, stats_b = case.stats(a), case.stats(b)
    values_a, values_b = _stats_values(case, a), _stats_values(case, b)
    a.swap_state(b)
    assert all(x is y for x, y in zip(case.stats(a), stats_a))
    assert all(x is y for x, y in zip(case.stats(b), stats_b))
    assert _stats_values(case, a) == values_a
    assert _stats_values(case, b) == values_b


@SWAPPING
def test_swap_geometry_mismatch_raises_and_changes_nothing(case):
    for make_other in case.swap_mismatch:
        mine, other = _trained(case, range(1, 40)), make_other()
        before = (mine.state_dict(), other.state_dict())
        with pytest.raises(ValueError):
            mine.swap_state(other)
        assert (mine.state_dict(), other.state_dict()) == before
        with pytest.raises(ValueError):
            other.swap_state(mine)
        assert (mine.state_dict(), other.state_dict()) == before


@ALL
def test_load_geometry_mismatch_raises_and_changes_nothing(case):
    for make_other in case.load_mismatch:
        mine, other = _trained(case, range(1, 40)), make_other()
        case.train(other, range((1 << 15) + 41, (1 << 15) + 80))
        before = mine.state_dict()
        with pytest.raises(ValueError):
            mine.load_state(_json(other.state_dict()))
        assert mine.state_dict() == before


def test_snapshot_with_a_bad_last_part_changes_no_earlier_part():
    """The shadow stages RAS, predictors, I-, D- and L2 banks in that
    order; a snapshot whose very last L2 bank cannot be this bank's
    state must be refused with everything before it still in place
    (regression: earlier parts had already been replaced)."""
    mine, other = _shadow(2), _shadow(2)
    _train_shadow(mine, range(1, 60))
    _train_shadow(other, range((1 << 15) + 500, (1 << 15) + 580))  # calls
    before = mine.state_dict()
    snapshot = _json(other.state_dict())
    assert all(snapshot[part] != before[part] for part in before)
    snapshot["l2"][-1]["sets"][0] = [[0, 64, "S"]]    # a set-1 line in set 0
    with pytest.raises(ValueError, match="filed under set 0"):
        mine.load_state(snapshot)
    assert mine.state_dict() == before


# ----------------------------------------------------------------------
# Fixed-input spot checks of the O(1) exchange on the two structures the
# sampled engine swaps per window (formerly tests/predictor TestSwapState)
# ----------------------------------------------------------------------

def _repair_trained_bank(seed_exit):
    bank = PredictorBank()
    ras = DistributedRas(num_cores=1)
    ghist = 0
    for i in range(40):
        addr = 0x10000 + (i % 5) * BLOCK_STRIDE
        actual = (i + seed_exit) % 3
        prediction = bank.predict(addr, ghist, ras)
        bank.repair(prediction, ras, actual_exit=actual)
        bank.update(prediction, actual, BranchKind.BRANCH,
                    addr + BLOCK_STRIDE)
        ghist = push_history(ghist, actual, 4)
    return bank


def test_bank_swap_exchanges_tables():
    a, b = _repair_trained_bank(0), _repair_trained_bank(1)
    state_a, state_b = a.state_dict(), b.state_dict()
    assert state_a != state_b
    a.swap_state(b)
    assert (a.state_dict(), b.state_dict()) == (state_b, state_a)
    a.swap_state(b)             # a second swap restores the assignment
    assert a.state_dict() == state_a


def test_bank_swap_leaves_stats_with_owner():
    a, b = _repair_trained_bank(0), PredictorBank()
    exit_stats = a.exits.stats
    a.swap_state(b)
    assert a.exits.stats is exit_stats
    assert b.exits.stats.predictions == 0


def test_ras_swap_exchanges_stack():
    a, b = DistributedRas(num_cores=2), DistributedRas(num_cores=2)
    for value in (0x100, 0x200, 0x300):
        a.push(value)
    state_a, state_b = a.state_dict(), b.state_dict()
    a.swap_state(b)
    assert (a.state_dict(), b.state_dict()) == (state_b, state_a)
    assert b.depth == 3
    assert b.pop()[0] == 0x300
