"""Differential testing: random valid EDGE programs must execute
identically on the golden-model interpreter and the cycle simulator at
every composition size.

The generator builds DAG-shaped programs (guaranteed termination) with
random dataflow, predicated regions (including NULL-resolved writes and
stores), stores/loads over a small aligned scratch region (exercising
LSQ forwarding and violation replay), and data-dependent two-way
branches (exercising prediction, misprediction recovery, and wrong-path
squashing).

A second generator (``tests/generated_programs.selector_loop``) builds
predicated load/store *loops*: one block re-fetched per iteration, each
taking the predicate path a table selects — so a trained predictor, a
re-fetched decoded block and the interpreter's compiled block paths are
inside the oracle too.

Every generated program runs through a **three-way differential
oracle**: the ISA interpreter (golden model), a 1-core TFlex composition
(no distribution protocols), and an N-core composition (the full
distributed fetch/execute/commit machinery).  All three must agree on
architectural registers, scratch memory (and the program's data segment), and
committed-block count.  Seeded cases also *co-run*: one program on two
disjoint compositions of one chip, then on a third recomposed over
their stale L1 lines, each agreeing with the interpreter; and run
*sampled*, windows and fast-forward intervals alternating every block
or two, one composition recording the fast-forward trace and another
replaying it, each ending in the interpreter's state.  The
generator body is shared between a Hypothesis strategy (which keeps
counterexamples shrinkable) and a plain seeded PRNG (`SEEDED_CASES`
below — deterministic regression cases that need no Hypothesis database
and reproduce from the seed alone).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import BlockBuilder, Interpreter, Program
from repro.tflex import TFlexSystem, rectangle, run_program, tflex_config
from repro.tflex.placement import SHAPES

from tests.generated_programs import selector_loop, selector_loops

pytestmark = pytest.mark.slow

SCRATCH = 0x20_0000
SCRATCH_WORDS = 8
INIT_REGS = (2, 3, 4, 5)

#: Deterministic differential cases: (generator seed, composition size).
#: Failures reproduce from the tuple alone — no example database needed.
SEEDED_CASES = tuple((seed, (2, 4, 8)[seed % 3]) for seed in range(24))


class HypothesisSource:
    """Draws through Hypothesis strategies (so shrinking works)."""

    def __init__(self, draw):
        self._draw = draw

    def integer(self, lo, hi):
        return self._draw(st.integers(lo, hi))

    def boolean(self):
        return self._draw(st.booleans())

    def choice(self, seq):
        return self._draw(st.sampled_from(list(seq)))

    def unique_sample(self, seq, max_size):
        return self._draw(st.lists(st.sampled_from(list(seq)), unique=True,
                                   max_size=max_size))


class SeededSource:
    """Draws from a plain PRNG: fully determined by the seed."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def integer(self, lo, hi):
        return self._rng.randint(lo, hi)

    def boolean(self):
        return self._rng.random() < 0.5

    def choice(self, seq):
        seq = list(seq)
        return seq[self._rng.randrange(len(seq))]

    def unique_sample(self, seq, max_size):
        seq = list(seq)
        return self._rng.sample(seq, self._rng.randint(0, min(max_size, len(seq))))


def build_random_program(src) -> Program:
    """Generate one random valid program from a draw source."""
    num_blocks = src.integer(2, 5)
    program = Program(entry="b0", name="random")
    program.reg_init = {reg: src.integer(-40, 40) for reg in INIT_REGS}

    for index in range(num_blocks):
        b = BlockBuilder(f"b{index}")
        pool = [b.read(reg) for reg in INIT_REGS]
        pool.append(b.movi(src.integer(-10, 10)))

        def pick():
            return pool[src.integer(0, len(pool) - 1)]

        # Random straight-line dataflow.
        for __ in range(src.integer(1, 6)):
            op = src.choice(["ADD", "SUB", "MUL", "AND", "XOR"])
            pool.append(b.op(op, pick(), pick()))

        # A predicated region with covered outputs.
        written: set[int] = set()
        if src.boolean():
            pred = b.op("TLTI", pick(), imm=src.integer(-20, 20))
            reg = src.choice(INIT_REGS)
            written.add(reg)
            value = b.op("ADDI", pick(), imm=1, pred=(pred, True))
            b.write(reg, value)
            b.null_write(reg, pred=(pred, False))
            if src.boolean():
                addr = b.movi(SCRATCH + 8 * src.integer(0, SCRATCH_WORDS - 1),
                              pred=(pred, True))
                data = b.op("ADDI", value, imm=7, pred=(pred, True))
                handle = b.store(addr, data, pred=(pred, True))
                b.null_store(handle, pred=(pred, False))

        # Unconditional memory traffic (same-word aliasing is exact, so
        # forwarding and violations stay well-defined).
        for __ in range(src.integer(0, 2)):
            slot = src.integer(0, SCRATCH_WORDS - 1)
            if src.boolean():
                b.store(b.movi(SCRATCH + 8 * slot), pick())
            else:
                pool.append(b.load(b.movi(SCRATCH + 8 * slot)))

        # Unpredicated register updates (a slot may have only one
        # producer per dynamic path, so skip regs the predicated region
        # already covers).
        for reg in src.unique_sample(INIT_REGS, max_size=2):
            if reg not in written:
                b.write(reg, pick())

        # Exit: last block halts; earlier blocks branch forward, with a
        # data-dependent two-way choice half the time.
        if index == num_blocks - 1:
            b.branch("HALT", exit_id=0)
        else:
            succ_a = src.integer(index + 1, num_blocks - 1)
            if src.boolean():
                succ_b = src.integer(index + 1, num_blocks - 1)
                branch_pred = b.op("TGEI", pick(), imm=src.integer(-10, 10))
                b.branch("BRO", target=f"b{succ_a}", exit_id=0,
                         pred=(branch_pred, True))
                b.branch("BRO", target=f"b{succ_b}", exit_id=1,
                         pred=(branch_pred, False))
            else:
                b.branch("BRO", target=f"b{succ_a}", exit_id=0)
        program.add_block(b.build())

    program.validate()
    return program


@st.composite
def random_program(draw):
    return build_random_program(HypothesisSource(draw))


def _scratch_words(memory, program):
    """The random programs' scratch region, then every range the
    program's data segment initialised (a loop's table and scratch)."""
    return ([memory.load(SCRATCH + 8 * i, 8) for i in range(SCRATCH_WORDS)]
            + [memory.read_bytes(addr, len(raw))
               for addr, raw in sorted(program.data.items())])


def assert_agrees_with_interpreter(program: Program, procs) -> None:
    """Every processor ends in the interpreter's architectural state."""
    golden = Interpreter(program)
    result = golden.run(max_blocks=1000)
    assert result.halted and not result.truncated, \
        "golden run truncated by block budget — oracle comparison invalid"
    expected_scratch = _scratch_words(golden.mem, program)

    for proc in procs:
        label = f"{proc.name} ({proc.ncores} cores)"
        assert proc.regs == golden.regs, f"{label}: register state diverged"
        assert _scratch_words(proc.memory, program) == expected_scratch, \
            f"{label}: scratch memory diverged"
        assert proc.stats.blocks_committed == result.blocks_executed, \
            f"{label}: committed-block count diverged"


def assert_three_way_agreement(program: Program, ncores: int) -> None:
    """Interpreter, 1-core sim, and N-core sim must agree exactly."""
    assert_agrees_with_interpreter(program, [
        run_program(program, num_cores=cores, max_cycles=2_000_000)
        for cores in (1, ncores)])


def assert_co_run_agreement(program: Program, ncores: int) -> None:
    """One program on a 1-core and an N-core composition of one chip at
    once — its records under two placements, one L2 and DRAM — then,
    after both decompose, on the whole chip in the first one's cache
    context over the L1 lines they left (paper section 4.7)."""
    cfg = tflex_config(32)
    system = TFlexSystem(cfg)
    width, height = SHAPES[ncores]
    corner = (cfg.mesh_width - width, cfg.mesh_height - height)
    pair = [system.compose_rect(1, program),
            system.compose_rect(ncores, program, origin=corner)]
    system.run(max_cycles=2_000_000)
    for proc in pair:
        system.decompose(proc)
    whole = system.compose(rectangle(cfg, 32), program, ctx=pair[0].ctx)
    system.run(max_cycles=4_000_000)
    assert_agrees_with_interpreter(program, (*pair, whole))


@settings(max_examples=60, deadline=None)
@given(random_program(), st.sampled_from([2, 4, 8]))
def test_simulator_matches_interpreter(program, ncores):
    assert_three_way_agreement(program, ncores)


@pytest.mark.parametrize("seed,ncores", SEEDED_CASES)
def test_seeded_differential(seed, ncores):
    """Deterministic oracle cases: same seed, same program, forever."""
    program = build_random_program(SeededSource(seed))
    assert_three_way_agreement(program, ncores)


# ----------------------------------------------------------------------
# Loops: a re-fetched block, a re-executed compiled path
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(selector_loops(max_iterations=10), st.sampled_from([2, 4, 8]))
def test_simulator_matches_interpreter_on_loops(program, ncores):
    assert_three_way_agreement(program, ncores)


def _seeded_loop(seed: int) -> Program:
    """Each path taken at least three times (learnt, compiled, re-run),
    in a seed-determined order."""
    rng = random.Random(seed)
    npreds = rng.randint(1, 3)
    selectors = [rng.randrange(1 << (npreds + 1)) for __ in range(4)] * 3
    rng.shuffle(selectors)
    return selector_loop(
        selectors, npreds=npreds,
        store_slots=rng.sample(range(4), npreds),
        load_slots=[rng.randrange(4) for __ in range(rng.randint(1, 3))],
        nested=rng.random() < 0.5)


@pytest.mark.parametrize("seed,ncores", SEEDED_CASES[:9])
def test_seeded_loop_differential(seed, ncores):
    """Deterministic loop cases."""
    assert_three_way_agreement(_seeded_loop(seed), ncores)


@pytest.mark.parametrize("seed,ncores", SEEDED_CASES[:9])
def test_seeded_co_run(seed, ncores):
    assert_co_run_agreement(build_random_program(SeededSource(seed)), ncores)


@pytest.mark.parametrize("seed,ncores", SEEDED_CASES[:6])
def test_seeded_loop_co_run(seed, ncores):
    assert_co_run_agreement(_seeded_loop(seed), ncores)


# ----------------------------------------------------------------------
# Sampled mode: windows on the timing model, fast-forward in between
# ----------------------------------------------------------------------

def assert_sampled_agreement(program: Program, ncores: int, sampling: dict,
                             root) -> int:
    """Sampled runs of one program: a 1-core composition records its
    fast-forward intervals, an N-core one replays them.  Both end in the
    interpreter's architectural state, and the replay's result is the
    one tracing off gives.  Returns the intervals replayed."""
    from repro.exec import JobSpec
    from repro.harness import simulate
    from repro.sample.engine import SampledRun
    from repro.sample.trace import FFTraceStore, open_trace_session

    golden = Interpreter(program)
    assert golden.run(max_blocks=1000).halted
    expected_scratch = _scratch_words(golden.mem, program)
    name = f"oracle-{program.name}"
    key = ("edge", name, 1)
    simulate._PROGRAMS[key] = (program, None, None)
    try:
        specs = [JobSpec.edge(name, ncores=cores, sampling=sampling,
                              verify=False) for cores in (1, ncores)]
        store = FFTraceStore(root)
        results = []
        for spec, mode in zip(specs, ("record", "replay")):
            session = open_trace_session(spec, store)
            assert session.mode == mode
            run = SampledRun(spec, trace=session)
            results.append(run.run().to_dict())
            session.finish(run)
            assert run.interp.regs == golden.regs, f"{mode}: registers"
            assert _scratch_words(run.mem, program) == expected_scratch, \
                f"{mode}: scratch memory"
        assert not session.live
        assert results[1] == SampledRun(specs[1]).run().to_dict()
        return session.replayed
    finally:
        del simulate._PROGRAMS[key]


#: Short schedules, so a program of a few blocks still alternates
#: windows and fast-forward intervals.
DAG_SAMPLING = {"ff_blocks": 1, "window_blocks": 1, "warmup_blocks": 0}
LOOP_SAMPLING = {"ff_blocks": 2, "window_blocks": 2, "warmup_blocks": 1}


@pytest.mark.parametrize("seed,ncores", SEEDED_CASES)
def test_seeded_sampled(seed, ncores, tmp_path):
    assert assert_sampled_agreement(build_random_program(SeededSource(seed)),
                                    ncores, DAG_SAMPLING, tmp_path) >= 1


@pytest.mark.parametrize("seed,ncores", SEEDED_CASES[:9])
def test_seeded_loop_sampled(seed, ncores, tmp_path):
    assert assert_sampled_agreement(
        _seeded_loop(seed), ncores,
        dict(LOOP_SAMPLING, ff_blocks=2 + seed % 3), tmp_path) >= 2
