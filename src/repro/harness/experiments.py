"""Experiment drivers for figure 6 and the figures reduced from it.

Figures 7 (performance/area), 8 (performance²/W), 10 (multiprogrammed
weighted speedup) and table 2 (area and power) are computed from the
one figure-6 composition sweep, as in the paper's methodology, so a
warm replay of any of them is the sweep's store reads plus a reduce.
The drivers that run their own simulations — figures 5, 9, BEST and R
— live in :mod:`repro.harness.sweeps`; this module still answers to
their names, loading that module on first use.

Each driver returns a result object with the raw series plus a
``render()`` that prints rows comparable to the paper's plot, and the
benchmark harness asserts the qualitative claims (who wins, roughly by
how much, where the peaks fall).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro._lazy import lazy_exports
from repro.exec.spec import JobSpec
from repro.harness.reporting import format_table, geomean
from repro.harness.runner import RunResult, run_all
from repro.power import AreaModel, EnergyModel
from repro.workloads.catalog import CATALOG, SETS

__getattr__, __dir__, _ = lazy_exports(__name__, {
    name: "sweeps" for name in (
        "Fig5Result", "fig5_baseline", "Fig9Result", "fig9_protocols",
        "FigBestResult", "fig_best", "FigRResult", "figR_degradation")})


CORE_COUNTS = (1, 2, 4, 8, 16, 32)


def suite_names(benchmarks: Optional[Sequence[str]]) -> list[str]:
    """The benchmarks a driver runs: ``benchmarks`` as given, or the
    whole suite in name order."""
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
    for name in suite_names(benchmarks):
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
    names = suite_names(benchmarks)
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
    from repro.workloads.data import Lcg

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
