"""Compiled block records agree with the ISA definitions.

For every suite benchmark on every composition size (plus a TRIPS-mode
chip and a rectangle that does not start at core 0) each field of the
per-(block, geometry) records the timing model indexes must equal what
the ISA-level definitions give when derived per event: ``Target`` +
``interleave.rf_bank_of`` + ``core_ids[index % ncores]`` for routes,
``evaluate(op, operands, resolve_imm(imm))`` for bound evaluators,
``op.operands + (pred is not None)`` for need counts.
"""

import copy
import math

import pytest

from repro.harness.runner import cached_program
from repro.isa.instruction import TargetKind
from repro.isa.opcodes import OpClass, evaluate, memory_size
from repro.isa.program import HALT_ADDR
from repro.tflex import TFlexSystem, interleave, tflex_config, trips_config
from repro.tflex.decode import ALU, BRANCH, LOAD, NULL, STORE
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


def check_routes(routes, targets, block, decoded, proc):
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
            assert a is decoded.records[target.index]
            assert a.inst is block.insts[target.index]
            assert b == 3 * target.index + int(target.slot)


def check_block(block, proc):
    program = proc.program
    decoded = proc.decoded(block)
    assert proc.decoded(block) is decoded          # compiled once
    assert len(decoded.records) == len(block.insts)
    assert decoded.operands == [None] * (3 * len(block.insts))
    for inst, record in zip(block.insts, decoded.records):
        op = inst.op
        assert (record.inst, record.iid, record.base) == (inst, inst.iid,
                                                          3 * inst.iid)
        assert record.kind == KIND_OF.get(op.opclass, ALU)
        assert record.is_fp == op.is_fp
        assert record.energy == ("fpu_op" if op.is_fp else "alu_op")
        assert record.latency == op.latency
        assert record.pred == inst.pred and record.lsq_id == inst.lsq_id
        assert record.need == op.operands + (inst.pred is not None)
        assert decoded.missing[inst.iid] == record.need + 1
        check_routes(record.targets, inst.targets, block, decoded, proc)
        if record.kind == ALU:
            imm = program.resolve_imm(inst.imm)
            for a, b in SAMPLES:
                assert same(record.evalf(a, b),
                            evaluate(op, (a, b)[:op.operands], imm)), op.name
        elif record.kind in (LOAD, STORE):
            assert record.size == memory_size(op)
            assert record.fp == op.name.endswith("F")
            assert record.offset == int(inst.imm or 0)
            assert record.dep_key == (block.label, inst.lsq_id)
        elif record.kind == BRANCH:
            expected = {"HALT": HALT_ADDR, "RET": None}.get(op.name)
            if op.name in ("BRO", "CALLO"):
                expected = program.address_of(inst.branch_target)
            assert record.next_addr == expected

    # Instruction i executes on participating core i mod N, in
    # dispatch-width packets; reads resolve on their bank's core.
    width = proc.cfg.core.dispatch_width
    for index, groups in enumerate(decoded.groups):
        chunk = [r for group in groups for r in group]
        assert [r.iid for r in chunk] == [
            i.iid for i in block.insts if i.iid % proc.ncores == index]
        assert all(0 < len(group) <= width for group in groups)
        assert decoded.chunk_sizes[index] == len(chunk)
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
        check_routes(routes, read.targets, block, decoded, proc)


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_records_match_isa_on_every_composition(bench):
    program, __, __ = cached_program("edge", bench, 1)
    for cfg, rect in compositions():
        system = TFlexSystem(cfg)
        proc = system.compose_rect(program=program, **rect)
        if "origin" in rect:
            assert proc.core_ids[0] != 0
        for block in program.blocks.values():
            check_block(block, proc)


def test_records_belong_to_one_composition():
    """Two compositions of one program never share records: each
    resolves routes against its own ``core_ids``."""
    program, __, __ = cached_program("edge", "conv", 1)
    system = TFlexSystem(tflex_config(32))
    left = system.compose_rect(4, program, origin=(0, 0))
    right = system.compose_rect(4, program, origin=(2, 2))
    block = program.blocks[program.entry]
    assert left.decoded(block) is not right.decoded(block)
    cores = {route[0] for record in right.decoded(block).records
             for route in record.targets}
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
