"""Composition search spaces: the candidate set one BEST search ranks.

The paper's BEST lines (figures 6-8) pick, per application, the
composition that maximizes an objective.  A :class:`SearchSpace` makes
that candidate set explicit: an ordered tuple of :class:`Candidate`
composition sizes, each of which resolves to a normal
:class:`~repro.exec.spec.JobSpec` at any fidelity tier — so every
evaluation the search performs content-hashes into the existing result
store exactly like a sweep point would.

Candidate order is semantically meaningful: scores are ranked with a
*stable* sort, so ties resolve to the earliest candidate.  The default
space lists composition sizes ascending, matching the tie-break of the
exhaustive drivers (``max`` over ``tflex_labels`` returns the first,
i.e. smallest, maximal composition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.exec.spec import JobSpec
from repro.workloads.data import Lcg

#: Composition sizes of the paper's sweep (figure 6's x-axis).
DEFAULT_CORE_COUNTS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class Candidate:
    """One point of the design space: a composition size."""

    ncores: int

    def label(self) -> str:
        """The figure-driver label this candidate corresponds to."""
        return f"tflex-{self.ncores}"


@dataclass(frozen=True)
class SearchSpace:
    """The candidate set plus the workload axis a search runs over."""

    benchmarks: tuple[str, ...]
    candidates: tuple[Candidate, ...]
    scale: int = 1

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("search space needs at least one benchmark")
        if not self.candidates:
            raise ValueError("search space needs at least one candidate")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("search space candidates must be unique")

    def spec_for(self, bench: str, candidate: Candidate,
                 sampling: Optional[Mapping[str, Any]] = None) -> JobSpec:
        """The job spec evaluating ``candidate`` on ``bench`` at one
        fidelity (``sampling=None`` is full detail)."""
        return JobSpec.edge(bench, ncores=candidate.ncores, scale=self.scale,
                            sampling=sampling)

    def subsample(self, max_candidates: int, seed: int) -> "SearchSpace":
        """A deterministic subset of at most ``max_candidates``
        candidates (seeded draw, original order preserved) — the escape
        hatch for spaces too large to even coarse-evaluate in full."""
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if max_candidates >= len(self.candidates):
            return self
        rng = Lcg(seed)
        chosen: set[int] = set()
        while len(chosen) < max_candidates:
            chosen.add(rng.next() % len(self.candidates))
        kept = tuple(c for i, c in enumerate(self.candidates) if i in chosen)
        return SearchSpace(benchmarks=self.benchmarks, candidates=kept,
                           scale=self.scale)


def default_space(benchmarks: Sequence[str],
                  core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
                  scale: int = 1) -> SearchSpace:
    """The figure-6 composition sweep as a search space: one candidate
    per composition size, ascending (the exhaustive drivers' order)."""
    return SearchSpace(
        benchmarks=tuple(benchmarks),
        candidates=tuple(Candidate(n) for n in core_counts),
        scale=scale)
