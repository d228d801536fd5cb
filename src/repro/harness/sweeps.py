"""Experiment drivers that run their own simulations: figure 5 (TRIPS
versus the OoO baseline), figure 9 (distributed protocol overheads and
the ideal-handshake ablation), figure BEST (per-application best
composition by halving search) and figure R (degradation versus dead
cores).  Figure 6 and the figures reduced from it are in
:mod:`repro.harness.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.exec.spec import JobSpec
from repro.harness.experiments import CORE_COUNTS, suite_names
from repro.harness.reporting import format_table, geomean
from repro.harness.runner import RunResult, run_all
from repro.workloads.catalog import CATALOG, CATEGORIES, SETS


@dataclass
class Fig5Result:
    """Relative performance (1/cycle count) of TRIPS normalized to the
    conventional out-of-order baseline."""

    ratios: dict[str, float]       # bench -> risc_cycles / trips_cycles

    def category_mean(self, category: str) -> float:
        names = [b for b in self.ratios if CATALOG[b].category == category]
        return geomean([self.ratios[b] for b in names])

    def render(self) -> str:
        rows = [[b, CATALOG[b].category, round(r, 2)]
                for b, r in sorted(self.ratios.items())]
        rows += [[f"GEOMEAN {category}", "",
                  round(self.category_mean(category), 2)]
                 for category in CATEGORIES]
        return format_table(
            ["benchmark", "category", "TRIPS speedup vs OoO"], rows,
            title="Figure 5: TRIPS relative performance vs conventional OoO")


def fig5_baseline(scale: int = 1,
                  benchmarks: Optional[Sequence[str]] = None,
                  jobs: int = 1, progress: bool = False) -> Fig5Result:
    names = suite_names(benchmarks)
    specs = [JobSpec.edge(name, trips=True, scale=scale) for name in names]
    specs += [JobSpec.risc(name, scale=scale) for name in names]
    runs = run_all(specs, jobs=jobs, progress=progress)
    return Fig5Result(ratios={
        name: risc.cycles / trips.cycles
        for name, trips, risc in zip(names, runs, runs[len(names):])})


# ----------------------------------------------------------------------
# Figure 9: distributed fetch/commit overheads + ideal-handshake ablation
# ----------------------------------------------------------------------

@dataclass
class Fig9Result:
    core_counts: tuple[int, ...]
    fetch: dict[int, dict[str, float]]      # cores -> component -> mean cycles
    commit: dict[int, dict[str, float]]
    ablation: dict[str, float]              # bench -> relative slowdown of real
                                            # handshakes at the largest composition

    FETCH_ORDER = ("prediction", "handoff", "tag", "pipeline", "distribution",
                   "dispatch")

    def fetch_total(self, cores: int) -> float:
        return sum(self.fetch[cores].values())

    def commit_total(self, cores: int) -> float:
        return sum(self.commit[cores].values())

    def mean_ablation_impact(self) -> float:
        values = list(self.ablation.values())
        return sum(values) / len(values) if values else 0.0

    def render(self) -> str:
        rows = []
        for n in self.core_counts:
            row = [n] + [round(self.fetch[n].get(c, 0.0), 1) for c in self.FETCH_ORDER]
            row.append(round(self.fetch_total(n), 1))
            rows.append(row)
        fetch_tbl = format_table(
            ["cores"] + list(self.FETCH_ORDER) + ["total"], rows,
            title="Figure 9a: distributed fetch latency breakdown (cycles/block)")
        rows = []
        for n in self.core_counts:
            row = [n,
                   round(self.commit[n].get("state_update", 0.0), 1),
                   round(self.commit[n].get("handshake", 0.0), 1),
                   round(self.commit_total(n), 1)]
            rows.append(row)
        commit_tbl = format_table(
            ["cores", "state_update", "handshake", "total"], rows,
            title="Figure 9b: distributed commit latency breakdown (cycles/block)")
        abl = (f"Section 6.4 ablation: instantaneous handshakes speed up the "
               f"largest composition by {self.mean_ablation_impact():.1%} on average "
               f"(paper: < 2%)")
        return "\n\n".join([fetch_tbl, commit_tbl, abl])


def fig9_protocols(scale: int = 1,
                   core_counts: Sequence[int] = CORE_COUNTS,
                   benchmarks: Optional[Sequence[str]] = None,
                   jobs: int = 1, progress: bool = False) -> Fig9Result:
    names = suite_names(benchmarks)
    largest = max(core_counts)
    grid = [JobSpec.edge(name, ncores=n, scale=scale)
            for name in names for n in core_counts]
    ideal = [JobSpec.edge(name, ncores=largest, scale=scale,
                          ideal_handshake=True) for name in names]
    results = run_all(grid + ideal, jobs=jobs, progress=progress)
    real = {(spec.bench, spec.ncores): run
            for spec, run in zip(grid, results)}
    fetch: dict[int, dict[str, float]] = {}
    commit: dict[int, dict[str, float]] = {}
    for n in core_counts:
        fetch_acc: dict[str, float] = {}
        commit_acc: dict[str, float] = {}
        for name in names:
            run = real[name, n]
            for component, value in run.stats.fetch_latency.means().items():
                fetch_acc[component] = fetch_acc.get(component, 0.0) + value
            for component, value in run.stats.commit_latency.means().items():
                commit_acc[component] = commit_acc.get(component, 0.0) + value
        fetch[n] = {c: v / len(names) for c, v in fetch_acc.items()}
        commit[n] = {c: v / len(names) for c, v in commit_acc.items()}

    ablation = {}
    for name, run in zip(names, results[len(grid):]):
        cycles = real[name, largest].cycles
        ablation[name] = (cycles - run.cycles) / cycles
    return Fig9Result(core_counts=tuple(core_counts), fetch=fetch,
                      commit=commit, ablation=ablation)


# ----------------------------------------------------------------------
# Figure BEST: per-application BEST composition via halving search
# ----------------------------------------------------------------------

@dataclass
class FigBestResult:
    """The BEST lines of figures 6-8, found by successive-halving search
    instead of the exhaustive detailed sweep (see docs/SEARCH.md)."""

    scale: int
    core_counts: tuple[int, ...]
    benchmarks: list[str]
    #: objective name -> the search trail that found its BEST line.
    searches: dict[str, "object"]

    def objectives(self) -> list[str]:
        return list(self.searches)

    def best_ncores(self, objective: str) -> dict[str, int]:
        return self.searches[objective].best_ncores()

    def detailed_jobs(self) -> int:
        """Detailed-simulation jobs the searches needed, summed —
        cross-objective cache sharing makes the *executed* number lower
        still, but the per-search count is the honest accounting."""
        return sum(s.detailed_jobs() for s in self.searches.values())

    def exhaustive_detailed_jobs(self) -> int:
        """Detailed jobs the exhaustive sweep runs for the same BEST
        line: every composition of every benchmark."""
        return len(self.benchmarks) * len(self.core_counts)

    def payload(self) -> dict:
        """JSON form (the CLI's ``--out`` artifact)."""
        return {
            "scale": self.scale,
            "core_counts": list(self.core_counts),
            "benchmarks": list(self.benchmarks),
            "exhaustive_detailed_jobs": self.exhaustive_detailed_jobs(),
            "objectives": {
                name: {
                    "best": {b: r.best.ncores
                             for b, r in search.per_bench.items()},
                    "detailed_jobs": search.detailed_jobs(),
                    "detail_reduction_x": search.detail_reduction(),
                    "evaluations": search.total_evaluations(),
                }
                for name, search in self.searches.items()
            },
        }

    def render(self) -> str:
        headers = ["benchmark"] + [f"BEST@{o}" for o in self.searches]
        rows = []
        for bench in self.benchmarks:
            rows.append([bench] + [
                self.searches[o].per_bench[bench].best.ncores
                for o in self.searches])
        table = format_table(
            headers, rows,
            title="Figure BEST: per-application best composition "
                  "(cores) by objective")
        lines = [table, ""]
        for name, search in self.searches.items():
            lines.append(f"{name}: {search.detailed_jobs()} detailed jobs "
                         f"vs {search.exhaustive_detailed_jobs()} exhaustive "
                         f"({search.detail_reduction():.1f}x fewer)")
        return "\n".join(lines)


def fig_best(objectives: Optional[Sequence[str]] = None,
             scale: int = 1,
             core_counts: Sequence[int] = CORE_COUNTS,
             benchmarks: Optional[Sequence[str]] = None,
             jobs: int = 1, progress: bool = False,
             config=None) -> FigBestResult:
    """Find the per-application BEST composition for each objective by
    successive halving (``repro search`` on the CLI).

    All objectives share one result cache: a candidate two searches
    both evaluate at the same fidelity simulates once.
    """
    from repro.search import OBJECTIVE_NAMES, default_space, search_best

    names = suite_names(benchmarks)
    wanted = list(objectives) if objectives else list(OBJECTIVE_NAMES)
    space = default_space(names, core_counts=core_counts, scale=scale)
    searches = {
        objective: search_best(space, objective, config=config,
                               jobs=jobs, progress=progress)
        for objective in wanted
    }
    return FigBestResult(scale=scale, core_counts=tuple(core_counts),
                         benchmarks=names, searches=searches)


# ----------------------------------------------------------------------
# Figure R: performance degradation versus dead cores (repro.resil)
# ----------------------------------------------------------------------

@dataclass
class FigRResult:
    """Performance versus dead-core count on one chip (the composable
    graceful-degradation curve the fault model exists to plot)."""

    target_cores: int
    seed: int
    scale: int
    dead_counts: tuple[int, ...]
    benchmarks: list[str]
    runs: dict[str, dict[int, RunResult]]   # bench -> dead count -> result
    dead_sets: dict[int, list[int]]         # dead count -> core ids

    def performance(self, bench: str, dead: int) -> float:
        return self.runs[bench][dead].performance

    def relative(self, bench: str, dead: int) -> float:
        """Performance with ``dead`` cores out, relative to pristine."""
        return self.performance(bench, dead) / self.performance(bench, 0)

    def mean_relative(self, dead: int) -> float:
        return geomean([self.relative(b, dead) for b in self.benchmarks])

    def granted_cores(self, dead: int) -> int:
        """Composition size the survivors supported at this point."""
        return self.runs[self.benchmarks[0]][dead].num_cores

    def monotone_trend(self, tolerance: float = 0.02) -> bool:
        """More dead cores never *helps*: the mean curve may only fall
        (within ``tolerance``, for the flat plateaus where the dead
        set grows without crossing a composition-size boundary)."""
        means = [self.mean_relative(k) for k in self.dead_counts]
        return all(b <= a * (1.0 + tolerance)
                   for a, b in zip(means, means[1:]))

    def payload(self) -> dict:
        """JSON form of the curve (the CI artifact)."""
        return {
            "target_cores": self.target_cores,
            "seed": self.seed,
            "scale": self.scale,
            "dead_counts": list(self.dead_counts),
            "benchmarks": list(self.benchmarks),
            "dead_sets": {str(k): v for k, v in self.dead_sets.items()},
            "curve": [
                {"dead": k,
                 "granted_cores": self.granted_cores(k),
                 "mean_relative": self.mean_relative(k),
                 "relative": {b: self.relative(b, k)
                              for b in self.benchmarks},
                 "cycles": {b: self.runs[b][k].cycles
                            for b in self.benchmarks}}
                for k in self.dead_counts
            ],
            "monotone": self.monotone_trend(),
        }

    def render(self) -> str:
        headers = (["dead", "cores"]
                   + list(self.benchmarks) + ["GEOMEAN"])
        rows = []
        for k in self.dead_counts:
            rows.append([k, self.granted_cores(k)]
                        + [round(self.relative(b, k), 3)
                           for b in self.benchmarks]
                        + [round(self.mean_relative(k), 3)])
        return format_table(
            headers, rows,
            title=f"Figure R: relative performance vs dead cores "
                  f"({self.target_cores}-core chip, seed {self.seed})")


def figR_degradation(target_cores: int = 16, max_dead: int = 6,
                     benchmarks: Optional[Sequence[str]] = None,
                     seed: int = 2007, scale: int = 1,
                     jobs: int = 1, progress: bool = False) -> FigRResult:
    """Run the dead-core sweep and assemble the degradation curve.

    One seeded nested permutation supplies the dead sets: the cores
    dead at k are a subset of those dead at k+1, so the curve can only
    degrade as k grows (no lucky re-rolls).
    """
    from repro.resil.faults import FaultSchedule

    if not 0 < max_dead < target_cores:
        raise ValueError(f"max_dead must be in [1, {target_cores - 1}], "
                         f"got {max_dead}")
    names = list(benchmarks if benchmarks is not None else SETS["figR"])
    schedules = [FaultSchedule.boot_dead(k, target_cores, seed)
                 for k in range(max_dead + 1)]
    specs = [JobSpec.edge(name, ncores=target_cores, scale=scale,
                          faults=schedule.spec_items())
             for schedule in schedules for name in names]
    results = iter(run_all(specs, jobs=jobs, progress=progress))
    runs: dict[str, dict[int, RunResult]] = {b: {} for b in names}
    for k in range(len(schedules)):
        for name in names:
            runs[name][k] = next(results)
    return FigRResult(target_cores=target_cores, seed=seed, scale=scale,
                      dead_counts=tuple(range(len(schedules))),
                      benchmarks=names, runs=runs,
                      dead_sets={k: schedule.boot_dead_cores()
                                 for k, schedule in enumerate(schedules)})
