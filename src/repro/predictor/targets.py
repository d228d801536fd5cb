"""Next-block target prediction: Btype, BTB, CTB, and sequential adder.

Given a predicted exit, the target predictor first predicts the *type*
of the exit branch — sequential, regular branch, call, or return — with
the Btype table, then selects the target from the matching provider:
the next-block adder (SEQ), the branch target buffer, the call target
buffer, or the return address stack (owned by the caller; this module
only reports that a return was predicted).  The BTB and CTB are flat int
lists of interleaved ``key, target`` pairs (key ``-1``: empty), built by
multiplication and indexed in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.isa.program import BLOCK_STRIDE
from repro.warm import WarmState


class BranchKind(Enum):
    """Exit branch type predicted by the Btype table."""

    SEQ = 0       # fall through to the sequential next block
    BRANCH = 1    # regular branch (BTB target)
    CALL = 2      # call (CTB target, pushes RAS)
    RETURN = 3    # return (RAS target)

    @staticmethod
    def of_opcode(name: str) -> "BranchKind":
        if name == "CALLO":
            return BranchKind.CALL
        if name == "RET":
            return BranchKind.RETURN
        return BranchKind.BRANCH


@dataclass
class TargetStats:
    predictions: int = 0
    btype_correct: int = 0
    btb_hits: int = 0
    ctb_hits: int = 0


def _encode_kinds(kinds: list) -> list:
    return [kind.value for kind in kinds]


def _decode_kinds(values: list) -> list:
    return [BranchKind(value) for value in values]


def _encode_tagged(table: list) -> list:
    return [table[i:i + 2] for i in range(0, len(table), 2)]


def _decode_tagged(pairs: list) -> list:
    return [value for pair in pairs for value in pair]


class TargetPredictor(WarmState):
    """One core's target-prediction tables."""

    WARM = (
        ("_btype", _encode_kinds, _decode_kinds),
        ("_btb", _encode_tagged, _decode_tagged),
        ("_ctb", _encode_tagged, _decode_tagged),
    )

    def __init__(self, btype_entries: int = 256, btb_entries: int = 128,
                 ctb_entries: int = 16) -> None:
        self._btype = [BranchKind.SEQ] * btype_entries
        self._btb = [-1, 0] * btb_entries
        self._ctb = [-1, 0] * ctb_entries
        self.stats = TargetStats()  # stays with its owner across swaps

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    @staticmethod
    def _key(block_num: int, exit_id: int) -> int:
        return block_num * 8 + exit_id

    def _btype_index(self, block_num: int, exit_id: int) -> int:
        return self._key(block_num, exit_id) % len(self._btype)

    @staticmethod
    def _slot(table: list, key: int) -> int:
        """Index of ``key``'s (key, target) pair in a BTB/CTB list."""
        return key % (len(table) >> 1) << 1

    # ------------------------------------------------------------------
    # Predict
    # ------------------------------------------------------------------

    def predict(self, block_addr: int, exit_id: int) -> tuple[BranchKind, Optional[int]]:
        """Predict (branch kind, target address).

        The target is None for RETURN (the RAS provides it) and for
        BTB/CTB key mismatches, where the sequential next block is the
        fallback."""
        self.stats.predictions += 1
        block_num = block_addr // BLOCK_STRIDE
        kind = self._btype[self._btype_index(block_num, exit_id)]
        key = self._key(block_num, exit_id)

        if kind is BranchKind.SEQ:
            return kind, block_addr + BLOCK_STRIDE
        if kind is BranchKind.RETURN:
            return kind, None
        table = self._btb if kind is BranchKind.BRANCH else self._ctb
        slot = self._slot(table, key)
        if table[slot] == key:
            if kind is BranchKind.BRANCH:
                self.stats.btb_hits += 1
            else:
                self.stats.ctb_hits += 1
            return kind, table[slot + 1]
        return kind, block_addr + BLOCK_STRIDE

    # ------------------------------------------------------------------
    # Resolve
    # ------------------------------------------------------------------

    def update(self, block_addr: int, exit_id: int, actual_kind: BranchKind,
               actual_target: int) -> None:
        """Train with the resolved exit branch of a committed block."""
        block_num = block_addr // BLOCK_STRIDE
        key = self._key(block_num, exit_id)
        predicted_kind = self._btype[self._btype_index(block_num, exit_id)]
        if predicted_kind is actual_kind:
            self.stats.btype_correct += 1

        kind = actual_kind
        if kind is BranchKind.BRANCH and actual_target == block_addr + BLOCK_STRIDE:
            kind = BranchKind.SEQ    # sequential branches train as SEQ
        self._btype[self._btype_index(block_num, exit_id)] = kind

        if kind is not BranchKind.BRANCH and kind is not BranchKind.CALL:
            return
        table = self._btb if kind is BranchKind.BRANCH else self._ctb
        slot = self._slot(table, key)
        table[slot:slot + 2] = key, actual_target
