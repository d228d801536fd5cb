"""Tournament exit predictor over 3-bit block-exit histories.

TFlex predicts *which exit* leaves a 128-instruction hyperblock rather
than taken/not-taken per branch: each block executes exactly one of up
to eight exits, identified by the 3-bit exit field of its branch
instructions.  Histories are therefore sequences of 3-bit exit IDs, not
single bits (paper section 4.3).

The predictor is an Alpha 21264-style hybrid: a two-level local
component (per-block-address history table indexing a pattern table), a
global component indexed by the forwarded global exit history, and a
choice table picking between them.  Pattern entries hold an exit value
with a saturating confidence counter (the multi-valued analogue of a
two-bit counter), packed into one int per entry — ``exit_id << 2 |
confidence`` — so a table is a flat int list, built by multiplication
and trained by index.  Local histories are updated speculatively at
predict time and repaired from checkpoints on a flush.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.warm import WarmState


EXIT_BITS = 3
EXIT_MASK = (1 << EXIT_BITS) - 1

#: Exits of local history kept (64-entry L1 table stores this many).
LOCAL_HISTORY_EXITS = 4
#: Exits of global history used for indexing.
GLOBAL_HISTORY_EXITS = 4

_CONF_MAX = 3


def push_history(history: int, exit_id: int, num_exits: int) -> int:
    """Shift a 3-bit exit into an exit-history register."""
    mask = (1 << (EXIT_BITS * num_exits)) - 1
    return ((history << EXIT_BITS) | (exit_id & EXIT_MASK)) & mask


def train_pattern(table: list, index: int, actual: int) -> bool:
    """Train one packed pattern entry with hysteresis: agreement raises
    the confidence, disagreement lowers it, and only a zero-confidence
    entry is replaced.  True when the entry changed."""
    entry = table[index]
    if entry >> 2 == actual:
        if entry & 3 == _CONF_MAX:
            return False
        table[index] = entry + 1
    elif entry & 3:
        table[index] = entry - 1
    else:
        table[index] = actual << 2 | 1
    return True


@dataclass
class ExitPrediction:
    """One exit prediction and the state needed to update/repair it."""

    exit_id: int
    local_exit: int
    global_exit: int
    used_global: bool
    local_index: int           # L1 history table entry updated speculatively
    old_local_history: int     # value to restore on flush
    global_history: int        # history *before* this prediction


@dataclass
class ExitStats:
    predictions: int = 0
    local_correct: int = 0
    global_correct: int = 0
    correct: int = 0


class ExitPredictor(WarmState):
    """Local/global/choice tournament over block exits (one core's bank)."""

    WARM = ("_local_hist", "_local_pattern", "_global_pattern", "_choice")

    def __init__(self, local_l1: int = 64, local_l2: int = 128,
                 global_entries: int = 512, choice_entries: int = 512) -> None:
        self._local_hist = [0] * local_l1
        self._local_pattern = [0] * local_l2
        self._global_pattern = [0] * global_entries
        # Choice: 0..1 prefer local, 2..3 prefer global.
        self._choice = [1] * choice_entries
        self.stats = ExitStats()  # stays with its owner across swaps

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _local_l1_index(self, block_num: int) -> int:
        return block_num % len(self._local_hist)

    def _local_l2_index(self, local_history: int) -> int:
        return local_history % len(self._local_pattern)

    def _global_index(self, block_num: int, ghist: int) -> int:
        return (ghist ^ block_num) % len(self._global_pattern)

    def _choice_index(self, block_num: int, ghist: int) -> int:
        return (ghist ^ (block_num * 7)) % len(self._choice)

    # ------------------------------------------------------------------
    # Predict (speculative history update)
    # ------------------------------------------------------------------

    def predict(self, block_num: int, global_history: int) -> ExitPrediction:
        """Predict the exit of a block; speculatively pushes the
        prediction into the block's local history."""
        self.stats.predictions += 1
        l1 = self._local_l1_index(block_num)
        local_history = self._local_hist[l1]
        local_exit = self._local_pattern[self._local_l2_index(local_history)] >> 2
        global_exit = self._global_pattern[
            self._global_index(block_num, global_history)] >> 2
        use_global = self._choice[self._choice_index(block_num, global_history)] >= 2
        exit_id = global_exit if use_global else local_exit

        self._local_hist[l1] = push_history(local_history, exit_id, LOCAL_HISTORY_EXITS)
        return ExitPrediction(
            exit_id=exit_id,
            local_exit=local_exit,
            global_exit=global_exit,
            used_global=use_global,
            local_index=l1,
            old_local_history=local_history,
            global_history=global_history,
        )

    # ------------------------------------------------------------------
    # Resolve
    # ------------------------------------------------------------------

    def update(self, block_num: int, prediction: ExitPrediction, actual_exit: int) -> None:
        """Train pattern and choice tables with the resolved exit.

        Called at block commit, with the histories captured at predict
        time (so wrong-path speculation does not pollute training)."""
        local_ok = prediction.local_exit == actual_exit
        global_ok = prediction.global_exit == actual_exit
        if local_ok:
            self.stats.local_correct += 1
        if global_ok:
            self.stats.global_correct += 1
        if prediction.exit_id == actual_exit:
            self.stats.correct += 1

        train_pattern(self._local_pattern,
                      self._local_l2_index(prediction.old_local_history),
                      actual_exit)
        train_pattern(self._global_pattern,
                      self._global_index(block_num, prediction.global_history),
                      actual_exit)

        if local_ok != global_ok:
            index = self._choice_index(block_num, prediction.global_history)
            if global_ok:
                self._choice[index] = min(3, self._choice[index] + 1)
            else:
                self._choice[index] = max(0, self._choice[index] - 1)

    def repair(self, prediction: ExitPrediction, actual_exit: int | None = None) -> None:
        """Undo this prediction's speculative local-history update.

        If the true exit is known (the block itself mispredicted rather
        than being squashed wholesale), the corrected exit is pushed
        instead."""
        restored = prediction.old_local_history
        if actual_exit is not None:
            restored = push_history(restored, actual_exit, LOCAL_HISTORY_EXITS)
        self._local_hist[prediction.local_index] = restored
