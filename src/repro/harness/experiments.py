"""Experiment drivers: one per table/figure of the paper's evaluation.

Each driver returns a result object with the raw series plus a
``render()`` that prints rows comparable to the paper's plot, and the
benchmark harness asserts the qualitative claims (who wins, roughly by
how much, where the peaks fall).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.exec.spec import JobSpec
from repro.harness.reporting import format_table, geomean
from repro.harness.runner import RunResult, run_all
from repro.power import AreaModel, EnergyModel
from repro.workloads.catalog import CATALOG, CATEGORIES, SETS
from repro.workloads.data import Lcg


CORE_COUNTS = (1, 2, 4, 8, 16, 32)


def _suite(benchmarks: Optional[Sequence[str]]) -> list[str]:
    if benchmarks is None:
        return sorted(SETS["all"])
    return list(benchmarks)


# ----------------------------------------------------------------------
# Figure 6: performance versus composition size
# ----------------------------------------------------------------------

@dataclass
class Fig6Result:
    """Cycles for every benchmark on every configuration."""

    scale: int
    core_counts: tuple[int, ...]
    benchmarks: list[str]
    runs: dict[str, dict[str, RunResult]]   # bench -> label -> result

    def cycles(self, bench: str, label: str) -> int:
        return self.runs[bench][label].cycles

    def speedup(self, bench: str, label: str) -> float:
        """Speedup over a single TFlex core (the paper's baseline)."""
        return self.cycles(bench, "tflex-1") / self.cycles(bench, label)

    def tflex_labels(self) -> list[str]:
        return [f"tflex-{n}" for n in self.core_counts]

    def labels(self) -> list[str]:
        """Every configuration the sweep ran: the compositions, then
        TRIPS when it is there."""
        return self.tflex_labels() + (["trips"] if self.has_trips() else [])

    def best_label(self, bench: str) -> str:
        return max(self.tflex_labels(), key=lambda lb: self.speedup(bench, lb))

    def best_speedup(self, bench: str) -> float:
        return self.speedup(bench, self.best_label(bench))

    def mean_speedup(self, label: str) -> float:
        return geomean([self.speedup(b, label) for b in self.benchmarks])

    def mean_best_speedup(self) -> float:
        return geomean([self.best_speedup(b) for b in self.benchmarks])

    def has_trips(self) -> bool:
        return all("trips" in self.runs[b] for b in self.benchmarks)

    def speedup_table(self, benchmarks: Optional[Sequence[str]] = None):
        """Per-benchmark cores -> performance functions for figure 10
        (a :class:`repro.sched.SpeedupTable`)."""
        from repro.sched import SpeedupTable

        names = list(benchmarks) if benchmarks is not None else self.benchmarks
        return SpeedupTable(perf={
            b: {n: 1.0 / self.cycles(b, f"tflex-{n}") for n in self.core_counts}
            for b in names
        })

    def render(self) -> str:
        labels = self.labels()
        headers = ["benchmark", "ilp"] + labels + ["BEST", "best@"]
        rows = []
        ordered = sorted(self.benchmarks,
                         key=lambda b: (CATALOG[b].ilp != "low", b))
        for bench in ordered:
            row = [bench, CATALOG[bench].ilp]
            row += [round(self.speedup(bench, lb), 2) for lb in labels]
            row += [round(self.best_speedup(bench), 2),
                    self.best_label(bench).replace("tflex-", "")]
            rows.append(row)
        mean_row = ["GEOMEAN", ""]
        mean_row += [round(self.mean_speedup(lb), 2) for lb in labels]
        mean_row += [round(self.mean_best_speedup(), 2), ""]
        rows.append(mean_row)
        return format_table(headers, rows,
                            title="Figure 6: speedup over one TFlex core")


def fig6_specs(scale: int = 1,
               core_counts: Sequence[int] = CORE_COUNTS,
               benchmarks: Optional[Sequence[str]] = None,
               include_trips: bool = True,
               sampling: Optional[dict] = None) -> list[JobSpec]:
    """Every simulation point of the figure-6 sweep, as job specs.

    ``sampling`` applies to the TFlex composition points only; the
    TRIPS baseline always runs in full detail (it anchors the paper's
    normalization and is a single fixed configuration anyway).
    """
    specs = []
    for name in _suite(benchmarks):
        for n in core_counts:
            specs.append(JobSpec.edge(name, ncores=n, scale=scale,
                                      sampling=sampling))
        if include_trips:
            specs.append(JobSpec.edge(name, trips=True, scale=scale))
    return specs


def fig6_performance(scale: int = 1,
                     core_counts: Sequence[int] = CORE_COUNTS,
                     benchmarks: Optional[Sequence[str]] = None,
                     include_trips: bool = True,
                     jobs: int = 1, progress: bool = False,
                     sampling: Optional[dict] = None) -> Fig6Result:
    names = _suite(benchmarks)
    results = iter(run_all(fig6_specs(scale, core_counts, names,
                                      include_trips, sampling),
                           jobs=jobs, progress=progress))
    labels = [f"tflex-{n}" for n in core_counts]
    if include_trips:
        labels.append("trips")
    runs = {name: {label: next(results) for label in labels}
            for name in names}
    return Fig6Result(scale=scale, core_counts=tuple(core_counts),
                      benchmarks=names, runs=runs)


# ----------------------------------------------------------------------
# Figure 5: TRIPS versus a conventional OoO superscalar
# ----------------------------------------------------------------------

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
    names = _suite(benchmarks)
    specs = [JobSpec.edge(name, trips=True, scale=scale) for name in names]
    specs += [JobSpec.risc(name, scale=scale) for name in names]
    runs = run_all(specs, jobs=jobs, progress=progress)
    return Fig5Result(ratios={
        name: risc.cycles / trips.cycles
        for name, trips, risc in zip(names, runs, runs[len(names):])})


# ----------------------------------------------------------------------
# Figure 7: performance per area
# ----------------------------------------------------------------------

class _NormalizedFigure:
    """A per-point metric over the figure-6 sweep, normalized to one
    TFlex core: what figures 7 and 8 share.  A subclass names its
    ``metric(bench, label)`` and renders with its own title."""

    fig6: Fig6Result

    def normalized(self, bench: str, label: str) -> float:
        return self.metric(bench, label) / self.metric(bench, "tflex-1")

    def mean_normalized(self, label: str) -> float:
        return geomean([self.normalized(b, label) for b in self.fig6.benchmarks])

    def best_label(self, bench: str) -> str:
        return max(self.fig6.tflex_labels(), key=lambda lb: self.normalized(bench, lb))

    def mean_best(self) -> float:
        return geomean([self.normalized(b, self.best_label(b))
                        for b in self.fig6.benchmarks])

    def _table(self, title: str) -> str:
        labels = self.fig6.labels()
        headers = ["benchmark"] + labels + ["BEST@"]
        rows = []
        for bench in self.fig6.benchmarks:
            row = [bench] + [round(self.normalized(bench, lb), 3) for lb in labels]
            row.append(self.best_label(bench).replace("tflex-", ""))
            rows.append(row)
        rows.append(["GEOMEAN"] + [round(self.mean_normalized(lb), 3) for lb in labels]
                    + [""])
        return format_table(headers, rows, title=title)


@dataclass
class Fig7Result(_NormalizedFigure):
    fig6: Fig6Result
    area: AreaModel = field(default_factory=AreaModel)

    def perf_per_area(self, bench: str, label: str) -> float:
        run = self.fig6.runs[bench][label]
        return self.area.perf_per_area(run.cycles, run.num_cores,
                                       trips=label == "trips")

    metric = perf_per_area

    def render(self) -> str:
        return self._table("Figure 7: performance/area (1/(cycles*mm^2)), "
                           "normalized to one TFlex core")


def fig7_area(fig6: Fig6Result) -> Fig7Result:
    return Fig7Result(fig6=fig6)


# ----------------------------------------------------------------------
# Figure 8: power efficiency (performance^2 / W)
# ----------------------------------------------------------------------

@dataclass
class Fig8Result(_NormalizedFigure):
    fig6: Fig6Result

    def efficiency(self, bench: str, label: str) -> float:
        run = self.fig6.runs[bench][label]
        return EnergyModel.perf2_per_watt(run.cycles, run.power.total)

    metric = efficiency

    def best_fixed_label(self) -> str:
        return max(self.fig6.tflex_labels(), key=self.mean_normalized)

    def render(self) -> str:
        return self._table(
            "Figure 8: performance^2/W, normalized to one TFlex core")


def fig8_power(fig6: Fig6Result) -> Fig8Result:
    return Fig8Result(fig6=fig6)


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
    names = _suite(benchmarks)
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
# Figure 10: multiprogrammed weighted speedup
# ----------------------------------------------------------------------

@dataclass
class Fig10Result:
    sizes: tuple[int, ...]
    granularities: tuple[int, ...]
    #: workload size -> scheme label -> average WS over sampled workloads.
    ws: dict[int, dict[str, float]]
    #: workload size -> {granularity: fraction of threads} under TFlex.
    allocation: dict[int, dict[int, float]]

    def average(self, label: str) -> float:
        return sum(self.ws[m][label] for m in self.sizes) / len(self.sizes)

    def best_fixed_label(self) -> str:
        labels = [f"CMP-{g}" for g in self.granularities]
        return max(labels, key=self.average)

    def tflex_gain_over_best_fixed(self) -> float:
        return self.average("TFlex") / self.average(self.best_fixed_label()) - 1.0

    def tflex_max_gain(self) -> float:
        best = self.best_fixed_label()
        return max(self.ws[m]["TFlex"] / self.ws[m][best] - 1.0
                   for m in self.sizes)

    def tflex_gain_over_vb(self) -> float:
        return self.average("TFlex") / self.average("VB-CMP") - 1.0

    def render(self) -> str:
        labels = [f"CMP-{g}" for g in self.granularities] + ["VB-CMP", "TFlex"]
        rows = []
        for m in self.sizes:
            rows.append([m] + [round(self.ws[m][lb], 2) for lb in labels])
        rows.append(["AVG"] + [round(self.average(lb), 2) for lb in labels])
        ws_tbl = format_table(["threads"] + labels, rows,
                              title="Figure 10: average weighted speedup")
        rows = []
        sizes_cols = sorted({g for m in self.sizes for g in self.allocation[m]})
        for m in self.sizes:
            rows.append([m] + [f"{self.allocation[m].get(g, 0.0):.0%}"
                               for g in sizes_cols])
        alloc_tbl = format_table(["threads"] + [f"{g}c" for g in sizes_cols], rows,
                                 title="TFlex allocation: fraction of threads per granularity")
        summary = (f"TFlex vs best fixed CMP ({self.best_fixed_label()}): "
                   f"avg +{self.tflex_gain_over_best_fixed():.0%}, "
                   f"max +{self.tflex_max_gain():.0%}; "
                   f"vs symmetric VB-CMP: +{self.tflex_gain_over_vb():.0%}")
        return "\n\n".join([ws_tbl, alloc_tbl, summary])


#: The paper's multiprogramming study: workload sizes (threads), the
#: fixed-CMP granularities it compares against, and the seeded draw of
#: workloads averaged at each size.
FIG10_SIZES = (2, 4, 6, 8, 12, 16)
FIG10_GRANULARITIES = (1, 2, 4, 8, 16)
FIG10_WORKLOADS_PER_SIZE = 8
FIG10_SEED = 2007


def fig10_multiprogramming(fig6: Fig6Result) -> Fig10Result:
    """Paper methodology: WS computed analytically from the figure-6
    cores->speedup functions of the 12 hand-optimized benchmarks, with
    an optimal DP allocator for TFlex."""
    from repro.sched import (fixed_cmp_assignment, optimal_assignment,
                             symmetric_best_assignment)

    apps_pool = [b for b in SETS["hand"] if b in fig6.benchmarks]
    if not apps_pool:
        apps_pool = fig6.benchmarks
    table = fig6.speedup_table(apps_pool)
    allowed = tuple(fig6.core_counts)   # only measured composition sizes
    granularities = tuple(g for g in FIG10_GRANULARITIES if g in allowed)
    rng = Lcg(FIG10_SEED)

    ws: dict[int, dict[str, float]] = {}
    allocation: dict[int, dict[int, float]] = {}
    for m in FIG10_SIZES:
        totals = {f"CMP-{g}": 0.0 for g in granularities}
        totals["VB-CMP"] = 0.0
        totals["TFlex"] = 0.0
        size_counts: dict[int, int] = {}
        for __ in range(FIG10_WORKLOADS_PER_SIZE):
            workload = [apps_pool[rng.next() % len(apps_pool)] for __ in range(m)]
            for g in granularities:
                totals[f"CMP-{g}"] += fixed_cmp_assignment(workload, table, g)[0]
            totals["VB-CMP"] += symmetric_best_assignment(
                workload, table, allowed=allowed)[0]
            tflex_ws, assigned = optimal_assignment(workload, table,
                                                    allowed=allowed)
            totals["TFlex"] += tflex_ws
            for k in assigned:
                size_counts[k] = size_counts.get(k, 0) + 1
        ws[m] = {label: total / FIG10_WORKLOADS_PER_SIZE
                 for label, total in totals.items()}
        assigned_total = sum(size_counts.values())
        allocation[m] = {k: c / assigned_total for k, c in sorted(size_counts.items())}
    return Fig10Result(sizes=FIG10_SIZES, granularities=granularities,
                       ws=ws, allocation=allocation)


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

    names = _suite(benchmarks)
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
# Table 2: area and average power breakdown
# ----------------------------------------------------------------------

@dataclass
class Table2Result:
    area: AreaModel
    tflex_power: dict[str, float]    # category -> mean W over the suite
    trips_power: dict[str, float]

    def render(self) -> str:
        area_tbl = self.area.table()
        categories = sorted(set(self.tflex_power) | set(self.trips_power))
        rows = [[c, round(self.trips_power.get(c, 0.0), 3),
                 round(self.tflex_power.get(c, 0.0), 3)]
                for c in categories]
        rows.append(["total", round(sum(self.trips_power.values()), 3),
                     round(sum(self.tflex_power.values()), 3)])
        power_tbl = format_table(["category", "TRIPS (W)", "8-core TFlex (W)"],
                                 rows, title="Table 2: average power breakdown")
        return area_tbl + "\n\n" + power_tbl


def table2_area_power(fig6: Fig6Result) -> Table2Result:
    def mean_power(label: str) -> dict[str, float]:
        acc: dict[str, float] = {}
        for bench in fig6.benchmarks:
            run = fig6.runs[bench][label]
            for category, watts in run.power.watts.items():
                acc[category] = acc.get(category, 0.0) + watts
        return {c: v / len(fig6.benchmarks) for c, v in acc.items()}

    return Table2Result(area=AreaModel(),
                        tflex_power=mean_power("tflex-8"),
                        trips_power=mean_power("trips"))


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
