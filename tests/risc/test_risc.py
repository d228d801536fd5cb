"""Unit tests for the RISC ISA, interpreter, and OoO timing model."""

import pytest

from repro.risc import OoOCore, OoOConfig, RiscInterpreter, RiscProgram, RiscError
from repro.isa.opcodes import _ALU, OPCODES
from repro.risc.interp import alu_evaluator
from repro.risc.isa import ALU_CLASSES, ALU_NAMES, OPS, RInst


def program_sum_loop(n=10) -> RiscProgram:
    """r1 = sum(1..n) with a simple counted loop."""
    p = RiscProgram(name="sumloop")
    p.label("main")
    p.emit(RInst("LI", rd=1, imm=0))        # total
    p.emit(RInst("LI", rd=2, imm=1))        # i
    p.label("loop")
    p.emit(RInst("ADD", rd=1, rs1=1, rs2=2))
    p.emit(RInst("ADD", rd=2, rs1=2, imm=1))
    p.emit(RInst("SLE", rd=3, rs1=2, imm=n))
    p.emit(RInst("BNEZ", rs1=3, target="loop"))
    p.emit(RInst("HALT"))
    return p


class TestIsa:
    def test_evaluate_alu_basics(self):
        assert alu_evaluator(RInst("ADD", rs1=1, rs2=2))(2, 3) == 5
        assert alu_evaluator(RInst("ADD", rs1=1, imm=10))(2, None) == 12
        assert alu_evaluator(RInst("SLT", rs1=1, rs2=2))(1, 2) == 1
        assert alu_evaluator(RInst("SLE", rs1=1, imm=1))(2, None) == 0
        assert alu_evaluator(RInst("FMUL", rs1=1, rs2=2))(1.5, 2.0) == 3.0
        assert alu_evaluator(RInst("LI", imm=-3))(None, None) == -3

    def test_name_map_covers_every_alu_opcode(self):
        """Every value-producing RISC opcode runs an EDGE ``_ALU`` row,
        and every opcode the map renames exists on both sides."""
        alu_ops = [op for op, (cls, __) in OPS.items() if cls in ALU_CLASSES]
        assert set(ALU_NAMES) <= set(alu_ops)
        for op in alu_ops:
            name = ALU_NAMES.get(op, op)
            assert name in _ALU and name in OPCODES, op
            alu_evaluator(RInst(op, rd=1, rs1=1, rs2=2,
                                imm=0 if op == "LI" else None))
        for op in ("ADD", "SUB", "MUL", "DIV", "MOD", "AND", "OR", "XOR",
                   "SHL", "SHR", "SRA", "SLT", "SLE", "SEQ", "SNE"):
            alu_evaluator(RInst(op, rd=1, rs1=1, imm=3))   # the *I form

    def test_sources_and_destination(self):
        st = RInst("ST", rs1=1, rs2=2, imm=0)
        assert st.sources() == [1, 2]
        assert st.destination() is None
        addi = RInst("ADD", rd=3, rs1=1, imm=4)
        assert addi.sources() == [1]
        assert addi.destination() == 3

    def test_validate_rejects_dangling_label(self):
        p = RiscProgram()
        p.label("main")
        p.emit(RInst("B", target="nowhere"))
        with pytest.raises(RiscError):
            p.validate()

    def test_validate_requires_main(self):
        p = RiscProgram()
        p.label("start")
        p.emit(RInst("HALT"))
        with pytest.raises(RiscError):
            p.validate()

    def test_duplicate_label_rejected(self):
        p = RiscProgram()
        p.label("main")
        with pytest.raises(RiscError):
            p.label("main")


class TestInterpreter:
    def test_sum_loop(self):
        interp = RiscInterpreter(program_sum_loop(10))
        result = interp.run()
        assert result.halted
        assert interp.regs[1] == 55

    def test_r0_stays_zero(self):
        p = RiscProgram()
        p.label("main")
        p.emit(RInst("LI", rd=0, imm=42))
        p.emit(RInst("HALT"))
        interp = RiscInterpreter(p)
        interp.run()
        assert interp.regs[0] == 0

    def test_memory_ops(self):
        p = RiscProgram()
        base = p.add_blob((123).to_bytes(8, "little"))
        p.label("main")
        p.emit(RInst("LI", rd=1, imm=base))
        p.emit(RInst("LD", rd=2, rs1=1, imm=0))
        p.emit(RInst("ADD", rd=3, rs1=2, imm=1))
        p.emit(RInst("ST", rs1=1, rs2=3, imm=8))
        p.emit(RInst("HALT"))
        interp = RiscInterpreter(p)
        interp.run()
        assert interp.regs[2] == 123
        assert interp.mem.load(base + 8, 8) == 124

    def test_call_return(self):
        p = RiscProgram()
        p.label("main")
        p.emit(RInst("LI", rd=1, imm=7))
        p.emit(RInst("JAL", rd=10, target="double"))
        p.emit(RInst("HALT"))
        p.label("double")
        p.emit(RInst("ADD", rd=2, rs1=1, rs2=1))
        p.emit(RInst("JR", rs1=10))
        interp = RiscInterpreter(p)
        interp.run()
        assert interp.regs[2] == 14

    def test_trace_recording(self):
        interp = RiscInterpreter(program_sum_loop(3))
        result = interp.run(record_trace=True)
        assert len(result.trace) == result.insts_executed
        branches = [e for e in result.trace if e.inst.op == "BNEZ"]
        assert [e.taken for e in branches] == [True, True, False]

    def test_budget_enforced(self):
        p = RiscProgram()
        p.label("main")
        p.label("spin")
        p.emit(RInst("B", target="spin"))
        with pytest.raises(RiscError):
            RiscInterpreter(p).run(max_insts=100)


class TestOoOCore:
    def test_timing_reasonable(self):
        stats, interp = OoOCore().run(program_sum_loop(100))
        assert interp.regs[1] == 5050
        assert stats.insts == 100 * 4 + 3
        # The loop is dependence-limited: at least ~1 cycle per iteration,
        # far less than in-order single-issue time.
        assert 100 <= stats.cycles <= stats.insts

    def test_branch_predictor_learns_loop(self):
        stats, __ = OoOCore().run(program_sum_loop(200))
        assert stats.branches == 200
        assert stats.mispredictions <= 10

    def test_ilp_exploited(self):
        """Independent chains should run faster than one serial chain."""
        def chain_program(chains):
            p = RiscProgram(name="chains")
            p.label("main")
            for c in range(chains):
                p.emit(RInst("LI", rd=1 + c, imm=c))
            for __ in range(200):
                for c in range(chains):
                    p.emit(RInst("ADD", rd=1 + c, rs1=1 + c, imm=1))
            p.emit(RInst("HALT"))
            return p

        serial, __ = OoOCore().run(chain_program(1))
        parallel, __ = OoOCore().run(chain_program(3))
        # 3x the instructions in similar time = ILP extracted.
        assert parallel.cycles < serial.cycles * 2

    def test_cache_misses_counted(self):
        p = RiscProgram(name="strider")
        base = p.alloc_data(64 * 1024)
        p.label("main")
        p.emit(RInst("LI", rd=1, imm=base))
        p.emit(RInst("LI", rd=2, imm=0))
        p.label("loop")
        p.emit(RInst("LD", rd=3, rs1=1, imm=0))
        p.emit(RInst("ADD", rd=1, rs1=1, imm=512))
        p.emit(RInst("ADD", rd=2, rs1=2, imm=1))
        p.emit(RInst("SLT", rd=4, rs1=2, imm=100))
        p.emit(RInst("BNEZ", rs1=4, target="loop"))
        p.emit(RInst("HALT"))
        stats, __ = OoOCore().run(p)
        assert stats.l1_misses >= 90

    def test_mispredict_penalty_visible(self):
        """A data-dependent unpredictable branch pattern slows execution."""
        def branchy(pattern_fn):
            p = RiscProgram(name="branchy")
            data = b"".join(int(pattern_fn(i)).to_bytes(8, "little")
                            for i in range(256))
            base = p.add_blob(data)
            p.label("main")
            p.emit(RInst("LI", rd=1, imm=base))
            p.emit(RInst("LI", rd=2, imm=0))     # i
            p.emit(RInst("LI", rd=5, imm=0))     # acc
            p.label("loop")
            p.emit(RInst("LD", rd=3, rs1=1, imm=0))
            p.emit(RInst("BEQZ", rs1=3, target="skip"))
            p.emit(RInst("ADD", rd=5, rs1=5, imm=1))
            p.label("skip")
            p.emit(RInst("ADD", rd=1, rs1=1, imm=8))
            p.emit(RInst("ADD", rd=2, rs1=2, imm=1))
            p.emit(RInst("SLT", rd=4, rs1=2, imm=256))
            p.emit(RInst("BNEZ", rs1=4, target="loop"))
            p.emit(RInst("HALT"))
            return p

        predictable, __ = OoOCore().run(branchy(lambda i: 1))
        import random
        rng = random.Random(7)
        chaotic, __ = OoOCore().run(branchy(lambda i: rng.randint(0, 1)))
        assert chaotic.mispredictions > predictable.mispredictions
        assert chaotic.cycles > predictable.cycles

    def test_custom_config(self):
        narrow = OoOConfig(fetch_width=1, issue_width=1, commit_width=1)
        wide_stats, __ = OoOCore().run(program_sum_loop(100))
        narrow_stats, __ = OoOCore(narrow).run(program_sum_loop(100))
        assert narrow_stats.cycles >= wide_stats.cycles

    def test_rob_size_gates_memory_parallelism(self):
        """Independent long-latency loads overlap only within the ROB:
        a tiny ROB must be slower on an MLP-rich stream."""
        def stream_program():
            p = RiscProgram(name="mlp")
            base = p.alloc_data(256 * 1024)
            p.label("main")
            p.emit(RInst("LI", rd=1, imm=base))
            p.emit(RInst("LI", rd=2, imm=0))
            p.label("loop")
            for k in range(4):
                p.emit(RInst("LD", rd=3 + k, rs1=1, imm=4096 * k))
            p.emit(RInst("ADD", rd=1, rs1=1, imm=64))
            p.emit(RInst("ADD", rd=2, rs1=2, imm=1))
            p.emit(RInst("SLT", rd=10, rs1=2, imm=60))
            p.emit(RInst("BNEZ", rs1=10, target="loop"))
            p.emit(RInst("HALT"))
            return p

        big, __ = OoOCore(OoOConfig(rob_entries=96)).run(stream_program())
        small, __ = OoOCore(OoOConfig(rob_entries=8)).run(stream_program())
        assert small.cycles > big.cycles * 1.3
