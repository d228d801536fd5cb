"""Unit tests for exit prediction, target prediction, and the distributed RAS."""

import pytest

from repro.isa.program import BLOCK_STRIDE
from repro.predictor import (
    BranchKind,
    DistributedRas,
    PredictorBank,
    ExitPredictor,
    TargetPredictor,
)
from repro.predictor.exits import push_history, LOCAL_HISTORY_EXITS


BASE = 0x1_0000


class TestPushHistory:
    def test_shifts_in_exit(self):
        h = push_history(0, 5, 4)
        assert h == 5
        h = push_history(h, 2, 4)
        assert h == (5 << 3) | 2

    def test_bounded(self):
        h = 0
        for __ in range(100):
            h = push_history(h, 7, LOCAL_HISTORY_EXITS)
        assert h < (1 << (3 * LOCAL_HISTORY_EXITS))


class TestExitPredictor:
    def test_learns_constant_exit(self):
        pred = ExitPredictor()
        ghist = 0
        for __ in range(8):
            p = pred.predict(3, ghist)
            pred.update(3, p, actual_exit=4)
            ghist = push_history(ghist, 4, 4)
        p = pred.predict(3, ghist)
        assert p.exit_id == 4

    def test_learns_alternating_pattern(self):
        """Exit alternates 1,2,1,2... — local history should catch it."""
        pred = ExitPredictor()
        ghist = 0
        correct = 0
        seq = [1, 2] * 40
        for actual in seq:
            p = pred.predict(7, ghist)
            if p.exit_id == actual:
                correct += 1
            pred.update(7, p, actual)
            # Repair the speculative history to the true outcome, as the
            # processor does on a misprediction.
            if p.exit_id != actual:
                pred.repair(p, actual_exit=actual)
            ghist = push_history(ghist, actual, 4)
        # After warmup the pattern must be predicted nearly always.
        assert correct > len(seq) * 0.7

    def test_repair_restores_history(self):
        pred = ExitPredictor()
        before = pred._local_hist[3 % 64]
        p = pred.predict(3, 0)
        assert pred._local_hist[3 % 64] != before or p.exit_id == 0
        pred.repair(p)
        assert pred._local_hist[3 % 64] == before

    def test_accuracy_property(self):
        pred = ExitPredictor()
        assert (pred.stats.predictions, pred.stats.correct) == (0, 0)
        p = pred.predict(1, 0)
        pred.update(1, p, p.exit_id)
        assert (pred.stats.predictions, pred.stats.correct) == (1, 1)


class TestTargetPredictor:
    def test_default_is_sequential(self):
        pred = TargetPredictor()
        kind, target = pred.predict(BASE, 0)
        assert kind is BranchKind.SEQ
        assert target == BASE + BLOCK_STRIDE

    def test_learns_branch_target(self):
        pred = TargetPredictor()
        taken = BASE + 5 * BLOCK_STRIDE
        pred.update(BASE, 1, BranchKind.BRANCH, taken)
        kind, target = pred.predict(BASE, 1)
        assert kind is BranchKind.BRANCH
        assert target == taken

    def test_sequential_branch_trains_as_seq(self):
        pred = TargetPredictor()
        pred.update(BASE, 0, BranchKind.BRANCH, BASE + BLOCK_STRIDE)
        kind, target = pred.predict(BASE, 0)
        assert kind is BranchKind.SEQ
        assert target == BASE + BLOCK_STRIDE

    def test_learns_call_target(self):
        pred = TargetPredictor()
        callee = BASE + 9 * BLOCK_STRIDE
        pred.update(BASE, 2, BranchKind.CALL, callee)
        kind, target = pred.predict(BASE, 2)
        assert kind is BranchKind.CALL
        assert target == callee

    def test_return_predicted_without_target(self):
        pred = TargetPredictor()
        pred.update(BASE, 0, BranchKind.RETURN, BASE + 3 * BLOCK_STRIDE)
        kind, target = pred.predict(BASE, 0)
        assert kind is BranchKind.RETURN
        assert target is None

    def test_different_exits_have_separate_targets(self):
        pred = TargetPredictor()
        t1 = BASE + 3 * BLOCK_STRIDE
        t2 = BASE + 7 * BLOCK_STRIDE
        pred.update(BASE, 0, BranchKind.BRANCH, t1)
        pred.update(BASE, 1, BranchKind.BRANCH, t2)
        assert pred.predict(BASE, 0)[1] == t1
        assert pred.predict(BASE, 1)[1] == t2

    def test_branchkind_of_opcode(self):
        assert BranchKind.of_opcode("CALLO") is BranchKind.CALL
        assert BranchKind.of_opcode("RET") is BranchKind.RETURN
        assert BranchKind.of_opcode("BRO") is BranchKind.BRANCH


class TestDistributedRas:
    def test_push_pop(self):
        ras = DistributedRas(num_cores=2, entries_per_core=16)
        ras.push(100)
        ras.push(200)
        value, __ = ras.pop()
        assert value == 200
        value, __ = ras.pop()
        assert value == 100

    def test_sequential_partitioning(self):
        """Paper: a 32-entry stack over 2 cores keeps entries 0..15 on
        core 0 and 16..31 on core 1."""
        ras = DistributedRas(num_cores=2, entries_per_core=16)
        assert ras.core_of_slot(0) == 0
        assert ras.core_of_slot(15) == 0
        assert ras.core_of_slot(16) == 1
        assert ras.core_of_slot(31) == 1

    def test_top_core_moves_with_depth(self):
        ras = DistributedRas(num_cores=2, entries_per_core=2)
        assert ras.top_core == 0
        ras.push(1)
        ras.push(2)
        assert ras.top_core == 0
        ras.push(3)
        assert ras.top_core == 1

    def test_underflow_returns_zero(self):
        ras = DistributedRas(num_cores=1)
        value, __ = ras.pop()
        assert value == 0
        assert ras.stats.underflows == 1
        assert ras.depth == 0

    def test_overflow_wraps(self):
        ras = DistributedRas(num_cores=1, entries_per_core=2)
        for i in range(3):
            ras.push(i)
        assert ras.stats.overflow_wraps == 1
        assert ras.pop()[0] == 2

    def test_restore_undoes_push(self):
        ras = DistributedRas(num_cores=1, entries_per_core=4)
        ras.push(10)
        cp = ras.push(20)
        ras.restore(cp)
        assert ras.depth == 1
        assert ras.pop()[0] == 10

    def test_restore_undoes_pop(self):
        ras = DistributedRas(num_cores=1, entries_per_core=4)
        ras.push(10)
        __, cp = ras.pop()
        ras.restore(cp)
        assert ras.depth == 1
        assert ras.pop()[0] == 10

    def test_restore_recovers_wrapped_entry(self):
        ras = DistributedRas(num_cores=1, entries_per_core=2)
        ras.push(1)
        ras.push(2)
        cp = ras.push(3)          # overwrites slot of value 1
        ras.restore(cp)
        ras.pop()
        value, __ = ras.pop()
        assert value == 1


class TestPredictorBank:
    def test_call_pushes_return_address(self):
        bank = PredictorBank()
        ras = DistributedRas(num_cores=4)
        callee = BASE + 8 * BLOCK_STRIDE
        bank.targets.update(BASE, 0, BranchKind.CALL, callee)
        prediction = bank.predict(BASE, 0, ras)
        assert prediction.kind is BranchKind.CALL
        assert prediction.next_addr == callee
        assert ras.depth == 1
        value, __ = ras.pop()
        assert value == BASE + BLOCK_STRIDE

    def test_return_pops(self):
        bank = PredictorBank()
        ras = DistributedRas(num_cores=4)
        ras.push(BASE + 2 * BLOCK_STRIDE)
        bank.targets.update(BASE, 0, BranchKind.RETURN, 0)
        prediction = bank.predict(BASE, 0, ras)
        assert prediction.kind is BranchKind.RETURN
        assert prediction.next_addr == BASE + 2 * BLOCK_STRIDE
        assert ras.depth == 0

    def test_repair_restores_ras_and_history(self):
        bank = PredictorBank()
        ras = DistributedRas(num_cores=4)
        bank.targets.update(BASE, 0, BranchKind.CALL, BASE + 8 * BLOCK_STRIDE)
        prediction = bank.predict(BASE, 0, ras)
        assert ras.depth == 1
        bank.repair(prediction, ras)
        assert ras.depth == 0

    def test_global_history_advances(self):
        bank = PredictorBank()
        ras = DistributedRas(num_cores=1)
        prediction = bank.predict(BASE, 0, ras)
        expected = push_history(0, prediction.exit_id, 4)
        assert prediction.next_global_history == expected

    def test_end_to_end_loop_training(self):
        """A 10-iteration loop block: after training, the bank predicts
        the back edge until the exit."""
        bank = PredictorBank()
        ras = DistributedRas(num_cores=1)
        loop = BASE + BLOCK_STRIDE
        ghist = 0
        correct = 0
        total = 0
        for __trip in range(30):
            for i in range(10):
                actual_exit = 0 if i < 9 else 1
                actual_target = loop if i < 9 else BASE + 2 * BLOCK_STRIDE
                prediction = bank.predict(loop, ghist, ras)
                total += 1
                if (prediction.exit_id == actual_exit
                        and prediction.next_addr == actual_target):
                    correct += 1
                else:
                    bank.repair(prediction, ras, actual_exit=actual_exit)
                bank.update(prediction, actual_exit, BranchKind.BRANCH, actual_target)
                ghist = push_history(ghist, actual_exit, 4)
        assert correct / total > 0.6
