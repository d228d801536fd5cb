"""Checkpoints of a sampled run's fast-forward state.

A checkpoint captures everything the engine needs to resume a sampled
run at a block boundary: the functional architectural state (registers,
memory, resume address, exit history), the shadow microarchitecture
(``ShadowUarch.state_dict()`` — the ``WARM`` fields of every warm
structure, :mod:`repro.warm`), the functional progress counters, and
the windows measured so far.  It is JSON-safe end to end, so sweeps can
park warm-up work on disk and resume deterministically — resuming from
a checkpoint produces the exact RunResult the uninterrupted run would
have.  A checkpoint file is outside input: the schema is checked at
load and every structure's ``load_state`` validates its snapshot
before assigning anything.

The embedded canonical job spec guards against resuming under a
different configuration.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Union

from repro.exec.store import atomic_write

#: Bump when the checkpoint layout changes; old files then fail loudly.
#: 2: every warm structure snapshots as a ``state_dict`` (a cache bank
#: is ``{"sets": [...]}``, no longer a bare list).
CHECKPOINT_SCHEMA = 2


@dataclass
class Checkpoint:
    """One resumable snapshot of a :class:`~repro.sample.SampledRun`."""

    spec: dict                       # JobSpec.canonical() of the run
    sampling: dict                   # SamplingConfig.to_dict()
    addr: int                        # next block to execute
    ghist: int                       # global exit history at addr
    blocks: int                      # functional progress so far
    insts: int
    loads: int
    stores: int
    finished: bool
    regs: list
    memory: dict                     # FlatMemory.snapshot()
    shadow: dict                     # ShadowUarch.state_dict()
    windows: list = field(default_factory=list)
    dependence: list = field(default_factory=list)  # [label, lsq_id] pairs
    schema: int = CHECKPOINT_SCHEMA

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "Checkpoint":
        schema = data.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"checkpoint schema {schema!r} != {CHECKPOINT_SCHEMA}")
        return Checkpoint(**{f.name: data[f.name] for f in fields(Checkpoint)})

    def save(self, path: Union[str, pathlib.Path]) -> None:
        """Atomically persist the checkpoint — a killed worker can
        truncate the temp file, never the checkpoint itself."""
        atomic_write(path, json.dumps(self.to_dict()).encode("utf-8"))

    @staticmethod
    def load(path: Union[str, pathlib.Path]) -> "Checkpoint":
        return Checkpoint.from_dict(
            json.loads(pathlib.Path(path).read_text()))
