"""Dynamic block instances: the unit of fetch, speculation, and commit.

A :class:`BlockInstance` is one in-flight execution of a static block on
a composed processor: it tracks per-instruction operand buffers and
readiness counts, output-completion counting (the owner core's
bookkeeping), and the speculative-state checkpoints needed to squash it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.isa.block import Block
from repro.predictor.bank import Prediction


class BlockState(Enum):
    FETCHING = "fetching"
    EXECUTING = "executing"     # dispatched (possibly partially), issuing
    COMPLETE = "complete"       # all outputs produced, awaiting oldest
    COMMITTING = "committing"   # commit protocol in flight
    COMMITTED = "committed"
    SQUASHED = "squashed"


@dataclass(slots=True)
class BlockInstance:
    """One dynamic execution of a block on a composed processor."""

    gseq: int                      # fetch sequence number within its thread
    block: Block
    addr: int
    owner_index: int               # participating-core index of the owner
    ghist_before: int              # global exit history entering this block
    prediction: Optional[Prediction] = None   # of this block's *next* block
    state: BlockState = BlockState.FETCHING
    proc: object = None            # owning ComposedProcessor (set at fetch)
    decoded: object = None         # DecodedBlock: placement on the composition

    # Execution state, copied at fetch from the templates of the
    # placement (``decoded``).  ``operands`` is the flat operand buffer
    # in the interpreter's encoding: instruction ``i``'s
    # :class:`OperandSlot` ``s`` lives at ``i << 2 | s``; ``None`` marks
    # an absent operand — real tokens are numbers or the NULL_VALUE
    # sentinel, never ``None``.  ``missing[i]`` counts what instruction
    # ``i`` still waits for — its operand and predicate tokens, plus one
    # for dispatch — so it is ready exactly when the count reaches zero;
    # ``-1`` retires it (fired, or squashed by a mismatched predicate).
    operands: list = field(default_factory=list)
    missing: list[int] = field(default_factory=list)

    # Output completion counting (owner-side).
    writes_done: int = 0
    stores_done: int = 0
    branch_done: bool = False
    resolved_store_slots: set[int] = field(default_factory=set)

    # Branch resolution.
    actual_exit: Optional[int] = None
    actual_next: Optional[int] = None
    actual_kind: Optional[object] = None   # BranchKind

    # Timing marks for the figure-9 breakdowns.
    t_fetch_start: int = 0
    t_fetch_cmd: int = 0
    fetch_parts: dict[str, int] = field(default_factory=dict)
    commit_parts: dict[str, int] = field(default_factory=dict)
    t_complete: int = 0
    t_commit_start: int = 0

    insts_fired_count: int = 0

    # ------------------------------------------------------------------
    # Derived
    # ------------------------------------------------------------------

    @property
    def squashed(self) -> bool:
        return self.state is BlockState.SQUASHED

    @property
    def committed(self) -> bool:
        return self.state is BlockState.COMMITTED

    @property
    def writes_expected(self) -> int:
        return len(self.block.writes)

    @property
    def stores_expected(self) -> int:
        return len(self.block.store_ids)

    @property
    def outputs_complete(self) -> bool:
        return (self.branch_done
                and self.writes_done >= self.writes_expected
                and self.stores_done >= self.stores_expected)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"<B{self.gseq} {self.block.label}@{self.addr:#x} "
                f"{self.state.value}>")
