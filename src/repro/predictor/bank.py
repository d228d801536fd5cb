"""Per-core predictor bank: exit + target prediction with checkpointing.

Each core carries one complete bank (8K + 256 bits in the paper's
sizing).  A block is predicted at its owner core's bank; because the
owner hash is stable for a fixed composition, the same block always
trains the same bank and capacity scales with composition size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.program import BLOCK_STRIDE
from repro.predictor.exits import (
    EXIT_BITS,
    EXIT_MASK,
    ExitPredictor,
    ExitPrediction,
    GLOBAL_HISTORY_EXITS,
    LOCAL_HISTORY_EXITS,
    push_history,
    train_pattern,
)
from repro.predictor.ras import DistributedRas, RasCheckpoint
from repro.predictor.targets import BranchKind, TargetPredictor

_LOCAL_HIST_MASK = (1 << (EXIT_BITS * LOCAL_HISTORY_EXITS)) - 1
_GLOBAL_HIST_MASK = (1 << (EXIT_BITS * GLOBAL_HISTORY_EXITS)) - 1


@dataclass
class PredictorCheckpoint:
    """Undo state for one prediction (flush repair)."""

    exit_prediction: ExitPrediction
    ras_checkpoint: Optional[RasCheckpoint] = None


@dataclass
class Prediction:
    """A complete next-block prediction."""

    block_addr: int
    exit_id: int
    kind: BranchKind
    next_addr: int
    next_global_history: int
    checkpoint: PredictorCheckpoint
    ras_core: Optional[int] = None     # participating core messaged for RAS ops


class PredictorBank:
    """One core's next-block predictor."""

    def __init__(self, local_l1: int = 64, local_l2: int = 128,
                 global_entries: int = 512, choice_entries: int = 512,
                 btype_entries: int = 256, btb_entries: int = 128,
                 ctb_entries: int = 16, latency: int = 3) -> None:
        self.exits = ExitPredictor(local_l1, local_l2, global_entries, choice_entries)
        self.targets = TargetPredictor(btype_entries, btb_entries, ctb_entries)
        self.latency = latency

    def predict(self, block_addr: int, global_history: int,
                ras: DistributedRas) -> Prediction:
        """Predict the next block after ``block_addr``.

        Speculatively updates local history and the RAS; the returned
        checkpoint undoes both if the block is squashed."""
        block_num = block_addr // BLOCK_STRIDE
        exit_prediction = self.exits.predict(block_num, global_history)
        kind, target = self.targets.predict(block_addr, exit_prediction.exit_id)

        ras_checkpoint = None
        ras_core = None
        if kind is BranchKind.CALL:
            ras_checkpoint = ras.push(block_addr + BLOCK_STRIDE)
            ras_core = ras.top_core
        elif kind is BranchKind.RETURN:
            target, ras_checkpoint = ras.pop()
            ras_core = ras.top_core

        return Prediction(
            block_addr=block_addr,
            exit_id=exit_prediction.exit_id,
            kind=kind,
            next_addr=target,
            next_global_history=push_history(
                global_history, exit_prediction.exit_id, GLOBAL_HISTORY_EXITS),
            checkpoint=PredictorCheckpoint(exit_prediction, ras_checkpoint),
            ras_core=ras_core,
        )

    def update(self, prediction: Prediction, actual_exit: int,
               actual_kind: BranchKind, actual_target: int) -> None:
        """Train with the resolved block (called at commit)."""
        block_num = prediction.block_addr // BLOCK_STRIDE
        self.exits.update(block_num, prediction.checkpoint.exit_prediction, actual_exit)
        self.targets.update(prediction.block_addr, actual_exit, actual_kind, actual_target)

    def observe_commit(self, block_addr: int, global_history: int,
                       ras: DistributedRas, actual_exit: int,
                       actual_kind: BranchKind,
                       actual_next: int) -> tuple[int, bool]:
        """Commit-order warm-up step; returns the next global history
        and whether any table entry or RAS slot changed value.

        Equivalent table/RAS state to the full speculative sequence —
        ``predict``, then on a wrong next-block ``exits.repair`` +
        ``ras.restore`` + the actual RAS op, then ``update`` — but
        fused: shared table entries are fetched once, no prediction or
        checkpoint objects are allocated (an undone-on-mispredict RAS
        push/pop nets out to applying only the surviving op), and stats
        are not maintained.  This is the sampled-simulation
        fast-forward hot path (:meth:`ShadowUarch.warm`), which uses
        the second result to find a loop's fixed point: steps that
        change no value, with the global history and the RAS top back
        where they were, leave the predictor as they found it.  The
        cycle simulator keeps the allocating sequence, whose
        checkpoints it needs for flush repair.
        """
        exits = self.exits
        block_num = block_addr // BLOCK_STRIDE

        # Exit prediction (tournament), reusing each entry for training.
        hist = exits._local_hist
        l1 = block_num % len(hist)
        local_history = hist[l1]
        local_pattern = exits._local_pattern
        li = local_history % len(local_pattern)
        local_exit = local_pattern[li] >> 2
        global_pattern = exits._global_pattern
        gi = (global_history ^ block_num) % len(global_pattern)
        global_exit = global_pattern[gi] >> 2
        choice = exits._choice
        ci = (global_history ^ (block_num * 7)) % len(choice)
        exit_id = global_exit if choice[ci] >= 2 else local_exit

        # Target prediction (Btype + BTB/CTB/RAS/sequential).
        targets = self.targets
        key = block_num * 8 + exit_id
        kind = targets._btype[key % len(targets._btype)]
        if kind is BranchKind.SEQ:
            target = block_addr + BLOCK_STRIDE
        elif kind is BranchKind.RETURN:
            target = ras._stack[(ras._top - 1) % ras.capacity] \
                if ras._top else 0
        else:
            table = targets._btb if kind is BranchKind.BRANCH \
                else targets._ctb
            slot = key % (len(table) >> 1) << 1
            target = table[slot + 1] if table[slot] == key \
                else block_addr + BLOCK_STRIDE

        # A mispredicted block's speculative history push is replaced
        # by the corrected exit (``exits.repair(actual_exit)``), and
        # its RAS op is rolled back before the actual op applies — so
        # only the surviving exit/op touches state.
        if target != actual_next:
            survivor_exit, survivor_kind = actual_exit, actual_kind
        else:
            survivor_exit, survivor_kind = exit_id, kind
        changed = False
        local_next = ((local_history << EXIT_BITS)
                      | (survivor_exit & EXIT_MASK)) & _LOCAL_HIST_MASK
        if local_next != local_history:
            hist[l1] = local_next
            changed = True
        if survivor_kind is BranchKind.CALL:
            slot = ras._top % ras.capacity
            if ras._stack[slot] != block_addr + BLOCK_STRIDE:
                ras._stack[slot] = block_addr + BLOCK_STRIDE
                changed = True
            ras._top += 1
        elif survivor_kind is BranchKind.RETURN:
            if ras._top:
                ras._top -= 1

        # Train the exit patterns and the choice table with the
        # resolved exit.
        changed |= train_pattern(local_pattern, li, actual_exit)
        changed |= train_pattern(global_pattern, gi, actual_exit)
        local_ok = local_exit == actual_exit
        if local_ok != (global_exit == actual_exit):
            if local_ok:
                if choice[ci] > 0:
                    choice[ci] -= 1
                    changed = True
            elif choice[ci] < 3:
                choice[ci] += 1
                changed = True

        # Train the target tables with the resolved exit branch.
        key = block_num * 8 + actual_exit
        kind = actual_kind
        if kind is BranchKind.BRANCH \
                and actual_next == block_addr + BLOCK_STRIDE:
            kind = BranchKind.SEQ
        btype = targets._btype
        bi = key % len(btype)
        if btype[bi] is not kind:
            btype[bi] = kind
            changed = True
        if kind is BranchKind.BRANCH or kind is BranchKind.CALL:
            table = targets._btb if kind is BranchKind.BRANCH \
                else targets._ctb
            slot = key % (len(table) >> 1) << 1
            if table[slot] != key or table[slot + 1] != actual_next:
                table[slot:slot + 2] = key, actual_next
                changed = True

        return ((global_history << EXIT_BITS)
                | (survivor_exit & EXIT_MASK)) & _GLOBAL_HIST_MASK, changed

    def repair(self, prediction: Prediction, ras: DistributedRas,
               actual_exit: Optional[int] = None) -> None:
        """Undo this prediction's speculative state (flush, youngest-first)."""
        self.exits.repair(prediction.checkpoint.exit_prediction, actual_exit)
        if prediction.checkpoint.ras_checkpoint is not None:
            ras.restore(prediction.checkpoint.ras_checkpoint)

    def warm_geometry(self) -> tuple:
        return (self.exits.warm_geometry(), self.targets.warm_geometry())

    def swap_state(self, other: "PredictorBank") -> None:
        """Exchange all table contents with a same-geometry bank in
        O(1) (:meth:`repro.warm.WarmState.swap_state`); both table sets
        are compared before either moves."""
        if self.warm_geometry() != other.warm_geometry():
            raise ValueError("PredictorBank: swap geometry mismatch")
        self.exits.swap_state(other.exits)
        self.targets.swap_state(other.targets)
