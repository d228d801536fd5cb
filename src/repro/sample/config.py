"""Sampling configuration: the shape of a sampled run.

A sampled run alternates *detailed windows* (the cycle-level simulator,
measuring IPC) with *fast-forward intervals* (the golden-model
interpreter executing blocks functionally while warming lightweight
shadow models of the predictor and cache hierarchy).  One
:class:`SamplingConfig` fixes that rhythm; it participates in the job
spec's content hash, so two runs that sample differently never share a
cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional


@dataclass(frozen=True)
class SamplingConfig:
    """Block-count parameters of one sampled run.

    Every window commits ``warmup_blocks`` blocks to re-steady the
    pipeline after injection (excluded from measurement), then
    ``window_blocks`` measured blocks (the warm-up must be the shorter
    of the two); between windows the interpreter fast-forwards
    ``ff_blocks`` blocks.  The first window starts at the
    program entry, so a program shorter than one window degenerates to
    an exact detailed run.
    """

    ff_blocks: int = 448
    window_blocks: int = 40
    warmup_blocks: int = 8

    def validate(self) -> None:
        if self.ff_blocks < 1:
            raise ValueError(f"ff_blocks must be >= 1, got {self.ff_blocks}")
        if self.window_blocks < 1:
            raise ValueError(
                f"window_blocks must be >= 1, got {self.window_blocks}")
        if self.warmup_blocks < 0:
            raise ValueError(
                f"warmup_blocks must be >= 0, got {self.warmup_blocks}")
        if self.warmup_blocks >= self.window_blocks:
            raise ValueError(
                f"warmup_blocks ({self.warmup_blocks}) must be smaller than "
                f"window_blocks ({self.window_blocks}): warm-up blocks run "
                f"in detail but unmeasured before each window, so a longer "
                f"warm-up spends most detailed blocks unmeasured")

    def to_dict(self) -> dict:
        return {"ff_blocks": self.ff_blocks,
                "window_blocks": self.window_blocks,
                "warmup_blocks": self.warmup_blocks}

    @staticmethod
    def from_dict(data: Optional[Mapping[str, Any]]) -> Optional["SamplingConfig"]:
        if not data:
            return None
        data, known = dict(data), SamplingConfig().to_dict()
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown sampling parameter(s) "
                             f"{', '.join(unknown)} (expected "
                             f"{', '.join(known)})")
        cfg = SamplingConfig(**{k: int(v) for k, v in data.items()})
        cfg.validate()
        return cfg
