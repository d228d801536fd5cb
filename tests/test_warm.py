"""The state-transfer contract, once, for every warm structure.

Every structure that owns warm microarchitectural state moves it one
way, ``swap_state``, derived from its ``WARM`` field list
(:mod:`repro.warm`); ``PredictorBank`` swaps its two table sets the
same way, and the sampled engine pairs the shadow's parts with a window
system's (``SampledRun._swap_state``).  This suite states the contract
once and runs it over all of them, at default and non-default
geometries, on hypothesis-generated contents.  What a swap should
produce is read off a deep copy of each side taken before it:

* after a swap each side holds exactly what the other's copy holds —
  every field but stats, declared or not, container order (LRU, hence
  the eviction victim) and the structure's next observable answers
  included — and a second swap restores both;
* a swap moves every warm part reachable from either side: each side
  ends holding the field objects the other held, by identity — in the
  sampled engine's window load (the shadow <-> window pairing) too;
* stats stay with their owner through swaps;
* a geometry mismatch raises ``ValueError`` and changes neither side.
"""

import copy
import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import JobSpec
from repro.isa.program import BLOCK_STRIDE
from repro.mem.cache import CacheBank, LineState
from repro.predictor.bank import PredictorBank
from repro.predictor.exits import ExitPredictor, push_history
from repro.predictor.ras import DistributedRas
from repro.predictor.targets import BranchKind, TargetPredictor
from repro.sample.engine import SampledRun
from repro.tflex import TFlexSystem
from repro.tflex.placement import rectangle
from repro.warm import WarmState
from tests.warm_fields import fields, plain, warm_parts

#: Contents are driven by a list of integers each trainer interprets.
_streams = st.lists(st.integers(0, (1 << 20) - 1), max_size=60)


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


def _leaf_stats(structure):
    return [structure.stats]


def _bank_stats(bank):
    return [bank.exits.stats, bank.targets.stats]


@dataclasses.dataclass
class Case:
    make: object                 # () -> a fresh structure
    train: object
    probe: object
    #: Factories of structures this one must refuse to swap with.
    mismatch: tuple
    stats: object = _leaf_stats


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
        (lambda: CacheBank(512, 2, 64),       # set count
         lambda: CacheBank(2048, 4, 64),      # assoc only
         lambda: CacheBank(512, 2, 32))),     # line size only
    "cache-4way-32B": Case(
        lambda: CacheBank(4096, 4, 32, name="t"), _train_cache, _probe_cache,
        (lambda: CacheBank(4096, 4, 64),)),
    "ras": Case(
        lambda: DistributedRas(2), _train_ras, _probe_ras,
        (lambda: DistributedRas(4),)),
    "ras-4x4": Case(                 # capacity 16: long streams wrap
        lambda: DistributedRas(4, 4), _train_ras, _probe_ras,
        (lambda: DistributedRas(2, 4),)),
    "exits": Case(ExitPredictor, _train_exits, _probe_exits, _EXIT_MISMATCH),
    "exits-small": Case(
        lambda: ExitPredictor(16, 32, 64, 128), _train_exits, _probe_exits,
        (ExitPredictor,)),
    "targets": Case(
        TargetPredictor, _train_targets, _probe_targets, _TARGET_MISMATCH),
    "targets-small": Case(
        lambda: TargetPredictor(64, 32, 4), _train_targets, _probe_targets,
        (TargetPredictor,)),
    "predictor-bank": Case(
        PredictorBank, _train_bank, _probe_bank,
        # A composite checks every part before moving any: a mismatch in
        # its last part (the target tables) leaves the first untouched.
        (lambda: PredictorBank(local_l1=32),
         lambda: PredictorBank(btb_entries=64)), stats=_bank_stats),
    "predictor-bank-small": Case(
        lambda: PredictorBank(16, 32, 64, 128, 64, 32, 4),
        _train_bank, _probe_bank, (PredictorBank,), stats=_bank_stats),
}

ALL = pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())

_fast = settings(max_examples=25, deadline=None)


def _trained(case, stream):
    structure = case.make()
    case.train(structure, stream)
    return structure


def _stats_values(case, structure):
    return [dataclasses.asdict(s) for s in case.stats(structure)]


def _held(structure):
    """Like :func:`fields`, but every attribute of each warm part bar
    its stats, declared or not: a learned field left off ``WARM`` stays
    behind on a swap and shows here, even where no probe reads it."""
    return {path: {name: plain(value) for name, value in vars(part).items()
                   if name != "stats"}
            for path, part in warm_parts(structure)}


def _field_objects(structure) -> Counter:
    """The declared field objects of every reachable warm part, by
    identity."""
    return Counter(id(getattr(part, name))
                   for __, part in warm_parts(structure)
                   for name in part.WARM)


def test_every_warm_structure_has_a_case():
    """A new ``WarmState`` subclass must join the contract suite."""
    def leaves(cls):
        return {cls} | {leaf for sub in cls.__subclasses__()
                        for leaf in leaves(sub)}
    covered = {type(case.make()) for case in CASES.values()}
    assert leaves(WarmState) - {WarmState} <= covered
    assert PredictorBank in covered


@ALL
@_fast
@given(first=_streams, second=_streams)
def test_swap_equals_copy_both_ways(case, first, second):
    a, b = _trained(case, first), _trained(case, second)
    copy_a, copy_b = copy.deepcopy(a), copy.deepcopy(b)

    a.swap_state(b)
    assert _held(a) == _held(copy_b)
    assert _held(b) == _held(copy_a)
    a.swap_state(b)                               # and back again
    assert (_held(a), _held(b)) == (_held(copy_a), _held(copy_b))

    a.swap_state(b)
    assert case.probe(a) == case.probe(copy_b)
    assert case.probe(b) == case.probe(copy_a)


@ALL
def test_swap_moves_every_reachable_warm_part(case):
    """A composite's part that its swap leaves out keeps its own field
    objects."""
    a, b = case.make(), case.make()
    objects_a, objects_b = _field_objects(a), _field_objects(b)
    a.swap_state(b)
    assert (_field_objects(a), _field_objects(b)) == (objects_b, objects_a)


_SHADOWS = {"shadow-2": (2, None),
            "shadow-4-small-l1": (4, {"icache_bytes": 2048,
                                      "dcache_bytes": 4096,
                                      "btb_entries": 64})}


@pytest.mark.parametrize("ncores,overrides", _SHADOWS.values(),
                         ids=_SHADOWS.keys())
def test_load_moves_every_reachable_warm_part(ncores, overrides):
    """A window's load (``SampledRun._inject``, one ``_swap_state``)
    pairs each shadow part with the window part in its role.  A warm
    part the shadow holds but the pairing leaves out, or a window part
    it leaves out, keeps its own field objects and fails here, even
    where no probe reads it."""
    run = SampledRun(JobSpec.edge(
        "conv", ncores, scale=2, core_overrides=overrides, sampling={
            "ff_blocks": 16, "window_blocks": 32, "warmup_blocks": 8}))
    system = TFlexSystem(run.cfg)
    proc = system.compose(rectangle(run.cfg, run.ncores), run.program)
    window = [proc.ras, system.l2.banks,
              [[core.predictor, core.icache, core.dcache]
               for core in system.cores]]
    shadow_before = _field_objects(run.shadow)
    window_before = _field_objects(window)
    run._inject(system, proc)
    assert _field_objects(run.shadow) == window_before
    assert _field_objects(window) == shadow_before


@ALL
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


@ALL
def test_swap_geometry_mismatch_raises_and_changes_nothing(case):
    for make_other in case.mismatch:
        mine, other = _trained(case, range(1, 40)), make_other()
        before = (fields(mine), fields(other))
        with pytest.raises(ValueError):
            mine.swap_state(other)
        assert (fields(mine), fields(other)) == before
        with pytest.raises(ValueError):
            other.swap_state(mine)
        assert (fields(mine), fields(other)) == before


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
    state_a, state_b = fields(a), fields(b)
    assert state_a != state_b
    a.swap_state(b)
    assert (fields(a), fields(b)) == (state_b, state_a)
    a.swap_state(b)             # a second swap restores the assignment
    assert fields(a) == state_a


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
    state_a, state_b = fields(a), fields(b)
    a.swap_state(b)
    assert (fields(a), fields(b)) == (state_b, state_a)
    assert b.depth == 3
    assert b.pop()[0] == 0x300
