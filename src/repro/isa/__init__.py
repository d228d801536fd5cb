"""EDGE (TRIPS-like) instruction set architecture.

This package defines the block-atomic, dataflow-target ISA that the TFlex
composable microarchitecture executes (paper section 3):

* Programs are sequences of *blocks* of up to 128 instructions with atomic
  execution semantics (:mod:`repro.isa.block`).
* Each instruction explicitly encodes the consumers of its result as
  9-bit dataflow targets instead of writing named registers
  (:mod:`repro.isa.instruction`).
* Blocks communicate through up to 32 register reads, 32 register writes
  and 32 load/store-queue slots, plus exactly one taken exit branch.

The :mod:`repro.isa.interp` module provides a functional, sequential
"golden model" interpreter used to validate the cycle-level simulator.
"""

from repro.isa.opcodes import OpClass, OpSpec, OPCODES
from repro.isa.instruction import Instruction, Target, TargetKind, OperandSlot
from repro.isa.block import (
    Block,
    ReadSlot,
    WriteSlot,
    BlockError,
    BLOCK_MAX_INSTS,
    MAX_READS,
    MAX_WRITES,
    MAX_LSQ_IDS,
    MAX_TARGETS,
    NUM_REGS,
    NUM_EXITS,
)
from repro.isa.program import Program, ProgramError, HALT_ADDR
from repro.isa.builder import BlockBuilder, Port, BlockTooLarge
from repro.isa.interp import Interpreter, InterpResult, InterpError

__all__ = [
    "OpClass",
    "OpSpec",
    "OPCODES",
    "Instruction",
    "Target",
    "TargetKind",
    "OperandSlot",
    "Block",
    "ReadSlot",
    "WriteSlot",
    "BlockError",
    "BLOCK_MAX_INSTS",
    "MAX_READS",
    "MAX_WRITES",
    "MAX_LSQ_IDS",
    "MAX_TARGETS",
    "NUM_REGS",
    "NUM_EXITS",
    "Program",
    "ProgramError",
    "HALT_ADDR",
    "BlockBuilder",
    "Port",
    "BlockTooLarge",
    "Interpreter",
    "InterpResult",
    "InterpError",
]
