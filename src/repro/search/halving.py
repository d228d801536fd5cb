"""Successive halving over fidelity tiers: the BEST-composition search.

The exhaustive way to find a benchmark's BEST composition evaluates
every candidate in full detail.  Successive halving spends most of its
budget at *cheap* fidelity instead: rung 0 evaluates the whole
candidate set with coarse sampled simulation, each rung promotes the
top ``1/eta`` fraction to the next (more faithful) tier, and only the
final rung — always full detail — decides the argmax.  With its
three-tier ladder over the six-point composition sweep this
runs 6 coarse + 3 fine sampled evaluations and just 2 detailed ones
per benchmark, a 3x reduction in detailed-simulation work; the sampled
tiers only have to keep the true BEST *alive*, not rank it first,
which is a far weaker accuracy demand than estimating its cycles
(docs/SEARCH.md quantifies the safety margin).

Every evaluation is a plain :class:`~repro.exec.spec.JobSpec` routed
through :func:`repro.harness.runner.run_spec`, so results content-hash
into the persistent store, cold rungs fan out over the warm worker
pool, and a re-run of the same search is pure cache
replay.  The search itself adds no randomness: candidate order breaks
score ties (stable sort), and the seed only feeds the optional
deterministic subsample of oversized spaces — fixed seed, fixed
result.

Observability (docs/OBSERVABILITY.md): ``search.start`` /
``search.rung`` / ``search.best`` events; ``search.evals{fidelity=}``,
``search.eliminations`` and ``search.detailed_jobs`` counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import repro.obs as obs_lib
from repro.search.objective import Objective, get_objective
from repro.search.space import Candidate, SearchSpace

#: Sampling parameters of the built-in fidelity ladder at ``scale=1``,
#: chosen empirically on the golden suite (docs/SEARCH.md):  ``coarse``
#: always ranks the true BEST into the top 3 of 6 for all three
#: objectives, ``fine`` into the top 2 — exactly the containment the
#: 6 -> 3 -> 2 promotion schedule needs.
COARSE_SAMPLING = {"ff_blocks": 256, "window_blocks": 12, "warmup_blocks": 4}
FINE_SAMPLING = {"ff_blocks": 96, "window_blocks": 24, "warmup_blocks": 8}


@dataclass(frozen=True)
class FidelityTier:
    """One rung's evaluation fidelity: a name plus the sampled-engine
    parameters (``()`` = full detail), frozen like a JobSpec field."""

    name: str
    sampling: tuple = ()

    @staticmethod
    def make(name: str, sampling: Optional[dict] = None) -> "FidelityTier":
        frozen = (tuple(sorted((str(k), int(v)) for k, v in sampling.items()))
                  if sampling else ())
        return FidelityTier(name=name, sampling=frozen)

    @property
    def detailed(self) -> bool:
        return not self.sampling

    def sampling_dict(self) -> Optional[dict]:
        return dict(self.sampling) if self.sampling else None


#: The one ladder: coarse sampled -> fine sampled -> full detail.
DEFAULT_LADDER = (
    FidelityTier.make("coarse", COARSE_SAMPLING),
    FidelityTier.make("fine", FINE_SAMPLING),
    FidelityTier.make("detail"),
)


@dataclass(frozen=True)
class HalvingConfig:
    """Shape of one search over :data:`DEFAULT_LADDER`: the promotion
    factor, and the (subsample-only) seed and candidate cap."""

    eta: int = 2
    seed: int = 2007
    max_candidates: Optional[int] = None

    def validate(self) -> None:
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")


@dataclass
class RungReport:
    """What one rung of one benchmark's search did."""

    tier: str
    detailed: bool
    entered: list[str]                  # candidate labels evaluated
    scores: dict[str, float]            # label -> objective score
    promoted: list[str]
    eliminated: list[str]


@dataclass
class BenchSearchResult:
    """The BEST candidate for one benchmark, plus the full rung trail."""

    bench: str
    objective: str
    best: Candidate
    best_score: float
    rungs: list[RungReport] = field(default_factory=list)

    def detailed_jobs(self) -> int:
        return sum(len(r.entered) for r in self.rungs if r.detailed)

    def evaluations(self) -> dict[str, int]:
        return {r.tier: len(r.entered) for r in self.rungs}


@dataclass
class SearchResult:
    """Per-benchmark BEST compositions for one objective."""

    objective: str
    space: SearchSpace
    config: HalvingConfig
    per_bench: dict[str, BenchSearchResult]

    def best_ncores(self) -> dict[str, int]:
        return {b: r.best.ncores for b, r in self.per_bench.items()}

    def detailed_jobs(self) -> int:
        return sum(r.detailed_jobs() for r in self.per_bench.values())

    def exhaustive_detailed_jobs(self) -> int:
        """Detailed jobs the exhaustive sweep would run for the same
        answer: every candidate of every benchmark, in full detail."""
        return len(self.space.benchmarks) * len(self.space.candidates)

    def detail_reduction(self) -> float:
        """How many times fewer detailed jobs than exhaustive."""
        done = self.detailed_jobs()
        return self.exhaustive_detailed_jobs() / done if done else math.inf

    def total_evaluations(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for result in self.per_bench.values():
            for tier, count in result.evaluations().items():
                totals[tier] = totals.get(tier, 0) + count
        return totals


def _promote_count(alive: int, eta: int) -> int:
    return max(1, math.ceil(alive / eta))


def search_best(space: SearchSpace, objective: str | Objective,
                config: Optional[HalvingConfig] = None,
                jobs: int = 1, progress: bool = False) -> SearchResult:
    """Find the BEST candidate per benchmark by successive halving.

    Each rung evaluates every still-alive candidate of every benchmark
    at that tier's fidelity (one executor batch per rung, ``jobs``
    workers), scores them with ``objective``, and promotes the top
    ``1/eta`` fraction (at least one).  The final rung always runs full
    detail, so the returned score is exact.
    """
    # Lazy import: repro.harness imports repro.search for the figBest
    # driver, so the module-level dependency must stay one-directional.
    from repro.harness.runner import run_all

    config = config if config is not None else HalvingConfig()
    config.validate()
    objective = (objective if isinstance(objective, Objective)
                 else get_objective(objective))
    if config.max_candidates is not None:
        space = space.subsample(config.max_candidates, config.seed)

    obs = obs_lib.current()
    if obs.active:
        obs.emit("search.start", objective=objective.name,
                 benchmarks=list(space.benchmarks),
                 candidates=[c.label() for c in space.candidates],
                 tiers=[t.name for t in DEFAULT_LADDER], eta=config.eta,
                 seed=config.seed)

    alive: dict[str, list[Candidate]] = {
        bench: list(space.candidates) for bench in space.benchmarks}
    reports: dict[str, list[RungReport]] = {b: [] for b in space.benchmarks}
    final_scores: dict[str, dict[Candidate, float]] = {}

    for rung, tier in enumerate(DEFAULT_LADDER):
        sampling = tier.sampling_dict()
        batch = [(bench, cand, space.spec_for(bench, cand, sampling))
                 for bench in space.benchmarks for cand in alive[bench]]
        runs = run_all([spec for __, __c, spec in batch], jobs=jobs,
                       progress=progress)
        scored: dict[str, dict[Candidate, float]] = {
            b: {} for b in space.benchmarks}
        for (bench, cand, __), run in zip(batch, runs):
            scored[bench][cand] = objective(run)
            if obs.active:
                obs.metrics.inc("search.evals", fidelity=tier.name,
                                objective=objective.name)

        last = rung == len(DEFAULT_LADDER) - 1
        for bench in space.benchmarks:
            ranked = sorted(alive[bench],
                            key=lambda c: -scored[bench][c])  # stable: ties
                                                              # keep space order
            keep = (ranked if last
                    else ranked[:_promote_count(len(ranked), config.eta)])
            dropped = [c for c in alive[bench] if c not in keep]
            reports[bench].append(RungReport(
                tier=tier.name, detailed=tier.detailed,
                entered=[c.label() for c in alive[bench]],
                scores={c.label(): scored[bench][c] for c in alive[bench]},
                promoted=[c.label() for c in keep],
                eliminated=[c.label() for c in dropped]))
            if obs.active:
                obs.emit("search.rung", bench=bench,
                         objective=objective.name, rung=rung, tier=tier.name,
                         fidelity="detail" if tier.detailed else "sampled",
                         alive=len(alive[bench]), promoted=len(keep),
                         eliminated=len(dropped))
                if dropped:
                    obs.metrics.inc("search.eliminations", len(dropped),
                                    objective=objective.name, tier=tier.name)
                if tier.detailed:
                    obs.metrics.inc("search.detailed_jobs",
                                    len(alive[bench]),
                                    objective=objective.name)
            alive[bench] = keep
        if last:
            final_scores = scored

    per_bench: dict[str, BenchSearchResult] = {}
    for bench in space.benchmarks:
        # The final rung left alive[bench] ranked by detailed score with
        # ties in space order, so index 0 is the stable argmax — the
        # same tie-break as ``max`` over the exhaustive sweep's labels.
        best = alive[bench][0]
        per_bench[bench] = BenchSearchResult(
            bench=bench, objective=objective.name, best=best,
            best_score=final_scores[bench][best], rungs=reports[bench])
        if obs.active:
            obs.emit("search.best", bench=bench, objective=objective.name,
                     best=best.label(),
                     score=final_scores[bench][best],
                     detailed_jobs=per_bench[bench].detailed_jobs())

    return SearchResult(objective=objective.name, space=space, config=config,
                        per_bench=per_bench)
