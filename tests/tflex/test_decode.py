"""The timing model's block artifacts agree with the ISA definitions.

The instruction records (``isa.interp._PInst``) do not depend on the
composition, so for every suite benchmark each one is checked once per
program: ``bind_evaluator(op, resolve_imm(imm))`` for bound
evaluators, ``op.operands + (pred is not None)`` for need counts, the
opcode table for latency, issue class and energy key.  The placement
(``tflex.decode.DecodedBlock``) is checked per composition, on every
composition size plus a TRIPS-mode chip and a rectangle that does not
start at core 0: routes against ``Target`` + ``interleave.rf_bank_of`` +
``core_ids[index % ncores]``, dispatch groups, read slots, I-cache lines.
"""

import copy
import math

import pytest

from repro.harness.runner import cached_program
from repro.isa.instruction import TargetKind
from repro.isa.interp import ALU, BRANCH, LOAD, NULL, STORE, prepare_block
from repro.isa.opcodes import OpClass, bind_evaluator, memory_size
from repro.isa.program import HALT_ADDR
from repro.tflex import TFlexSystem, interleave, tflex_config, trips_config
from repro.workloads import BENCHMARKS

KIND_OF = {OpClass.LOAD: LOAD, OpClass.STORE: STORE,
           OpClass.BRANCH: BRANCH, OpClass.NULL: NULL}
#: Operand samples every value-producing opcode accepts (integer ops
#: truncate floats, FP ops widen ints): mixed signs, a zero divisor, a
#: negative square-root argument, a 64-bit wrap.
SAMPLES = ((3, 5), (-7, 2), (1.5, -2.25), (0, 0), (2**63 - 1, 1))


def same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def compositions():
    """(config, ``compose_rect`` arguments) of every geometry under test."""
    for n in (1, 2, 4, 8, 16, 32):
        yield tflex_config(n), dict(size=n)
    yield trips_config(), dict(size=trips_config().num_cores)
    yield tflex_config(32), dict(size=4, origin=(2, 2))


def check_record(inst, pi, block, program):
    op = inst.op
    assert (pi.iid, pi.base) == (inst.iid, inst.iid << 2)
    assert pi.kind == KIND_OF.get(op.opclass, ALU)
    assert pi.is_fp == op.is_fp
    assert pi.energy == ("fpu_op" if op.is_fp else "alu_op")
    assert pi.latency == op.latency
    assert pi.pred == inst.pred and pi.lsq_id == inst.lsq_id
    assert pi.need == op.operands + (inst.pred is not None)
    assert pi.dep_key == ((block.label, inst.lsq_id)
                          if pi.kind in (LOAD, STORE) else None)
    if pi.kind == ALU:
        imm = program.resolve_imm(inst.imm)
        for a, b in SAMPLES:
            assert same(pi.evalf(a, b),
                        bind_evaluator(op, imm)(a, b)), op.name
    elif pi.kind in (LOAD, STORE):
        assert pi.size == memory_size(op)
        assert pi.fp == op.name.endswith("F")
        assert pi.offset == int(inst.imm or 0)
    elif pi.kind == BRANCH:
        expected = {"HALT": HALT_ADDR, "RET": None}.get(op.name)
        if op.name in ("BRO", "CALLO"):
            expected = program.address_of(inst.branch_target)
        assert pi.next_addr == expected
        assert pi.exit_id == inst.exit_id


def check_routes(routes, targets, block, pb, proc):
    assert len(routes) == len(targets)
    for (dest_id, dest, a, b), target in zip(routes, targets):
        if target.kind is TargetKind.WRITE:
            reg = block.writes[target.index].reg
            bank = interleave.rf_bank_of(reg, proc.num_rf_banks)
            assert (dest_id, dest, a, b) == (proc.core_ids[bank], None,
                                             reg, bank)
        else:
            assert dest_id == proc.core_ids[target.index % proc.ncores]
            assert dest is proc.system.cores[dest_id]
            assert a is pb.insts[target.index]
            assert b == target.index << 2 | int(target.slot)


def check_placement(block, proc):
    pb = prepare_block(proc.program, block)
    decoded = proc.decoded(block)
    assert proc.decoded(block) is decoded          # compiled once
    assert decoded.operands == [None] * (len(block.insts) << 2)
    assert len(decoded.routes) == len(block.insts)
    for inst, pi in zip(block.insts, pb.insts):
        assert decoded.missing[inst.iid] == pi.need + 1
        check_routes(decoded.routes[inst.iid], inst.targets, block, pb, proc)

    # Instruction i executes on participating core i mod N, in
    # dispatch-width packets; reads resolve on their bank's core.
    width = proc.cfg.core.dispatch_width
    for index, groups in enumerate(decoded.groups):
        chunk = [r for group in groups for r in group]
        # What the timing model dispatches is the program's own record.
        assert all(r is pb.insts[r.iid] for r in chunk)
        assert [r.iid for r in chunk] == [
            i.iid for i in block.insts if i.iid % proc.ncores == index]
        assert all(0 < len(group) <= width for group in groups)
        assert decoded.icache_lines[index] == max(
            1, math.ceil(4 * len(chunk) / proc.cfg.line_size))
    compiled_reads = [read for reads in decoded.reads_by_core
                      for read in reads]
    assert len(compiled_reads) == len(block.reads)
    for index, reads in enumerate(decoded.reads_by_core):
        for reg, bank, bank_core, routes in reads:
            assert bank == index == interleave.rf_bank_of(
                reg, proc.num_rf_banks)
            assert bank_core == proc.core_ids[bank]
    by_bank = sorted(block.reads, key=lambda r: interleave.rf_bank_of(
        r.reg, proc.num_rf_banks))      # stable: header order per bank
    for read, (reg, __, __, routes) in zip(by_bank, compiled_reads):
        assert reg == read.reg
        check_routes(routes, read.targets, block, pb, proc)


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_records_match_isa_on_every_composition(bench):
    """The records once per program, the placement per composition."""
    program, __, __ = cached_program("edge", bench, 1)
    for block in program.blocks.values():
        pb = prepare_block(program, block)
        assert len(pb.insts) == len(block.insts)
        for inst, pi in zip(block.insts, pb.insts):
            check_record(inst, pi, block, program)
    for cfg, rect in compositions():
        system = TFlexSystem(cfg)
        proc = system.compose_rect(program=program, **rect)
        if "origin" in rect:
            assert proc.core_ids[0] != 0
        for block in program.blocks.values():
            check_placement(block, proc)


def test_records_belong_to_one_composition():
    """Two compositions of one program share its records but never
    routes: each resolves them against its own ``core_ids``."""
    program, __, __ = cached_program("edge", "conv", 1)
    system = TFlexSystem(tflex_config(32))
    left = system.compose_rect(4, program, origin=(0, 0))
    right = system.compose_rect(4, program, origin=(2, 2))
    block = program.blocks[program.entry]
    assert left.decoded(block) is not right.decoded(block)
    assert left.decoded(block).groups == right.decoded(block).groups
    cores = {route[0] for routes in right.decoded(block).routes
             for route in routes}
    assert cores <= set(right.core_ids)
    assert not cores & set(left.core_ids)


def test_replaced_block_is_recompiled():
    """The cache's invalidation rule: same label, different Block."""
    program, __, __ = cached_program("edge", "conv", 1)
    proc = TFlexSystem(tflex_config(2)).compose_rect(2, program)
    block = program.blocks[program.entry]
    first = proc.decoded(block)
    twin = copy.copy(block)
    assert proc.decoded(twin) is not first
    assert proc.decoded(twin).block is twin
