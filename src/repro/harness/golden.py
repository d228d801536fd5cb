"""Golden-result fixtures: frozen per-figure summaries of the evaluation.

The simulator's hot path is aggressively optimized (see
docs/PERFORMANCE.md), and every optimization must be *semantics- and
timing-preserving*: cycle counts, speedups, and stat breakdowns may not
move by even one unit.  This module pins that invariant.  It runs every
figure driver at ``scale=1`` over a category-spanning benchmark subset
and reduces each result object to a deterministic, JSON-exact payload;
``tests/harness/test_golden.py`` re-runs the drivers and asserts exact
equality against the committed fixtures under ``tests/golden/``.

Regenerate fixtures (only when an *intentional* semantic change lands)
with::

    PYTHONPATH=src python -m repro.harness.golden tests/golden

Fixture values are written with full float precision (``json`` round-
trips Python floats exactly), so equality checks are bit-exact.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Optional, Sequence

from repro.harness import experiments
from repro.harness.experiments import (
    fig5_baseline,
    fig6_performance,
    fig7_area,
    fig8_power,
    fig9_protocols,
    fig10_multiprogramming,
    table2_area_power,
)
from repro.workloads.catalog import SETS

#: The benchmark set the golden suite runs (declared in the catalog).
GOLDEN_BENCHMARKS = SETS["golden"]

#: All fixtures are generated at this scale (the acceptance scale).
GOLDEN_SCALE = 1

#: Fixture file stems, in generation order.
FIXTURE_NAMES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2")


def _fig6_payload(fig6) -> dict:
    labels = fig6.labels()
    return {
        "scale": fig6.scale,
        "core_counts": list(fig6.core_counts),
        "benchmarks": list(fig6.benchmarks),
        "cycles": {b: {lb: fig6.cycles(b, lb) for lb in labels}
                   for b in fig6.benchmarks},
        "speedups": {b: {lb: fig6.speedup(b, lb) for lb in labels}
                     for b in fig6.benchmarks},
        "mean_speedups": {lb: fig6.mean_speedup(lb) for lb in labels},
        "stats": {b: {lb: fig6.runs[b][lb].stats.to_dict() for lb in labels}
                  for b in fig6.benchmarks},
        "power_total": {b: {lb: fig6.runs[b][lb].power.total for lb in labels}
                        for b in fig6.benchmarks},
        "insts_committed": {b: {lb: fig6.runs[b][lb].insts_committed
                                for lb in labels}
                            for b in fig6.benchmarks},
        "dram_requests": {b: {lb: fig6.runs[b][lb].dram_requests
                              for lb in labels}
                          for b in fig6.benchmarks},
    }


def _normalized_payload(fig) -> dict:
    """Figures 7 and 8: one normalized metric over the figure-6 sweep."""
    fig6 = fig.fig6
    labels = fig6.labels()
    return {
        "normalized": {b: {lb: fig.normalized(b, lb) for lb in labels}
                       for b in fig6.benchmarks},
        "mean_normalized": {lb: fig.mean_normalized(lb) for lb in labels},
    }


def _fig9_payload(fig9) -> dict:
    return {
        "core_counts": list(fig9.core_counts),
        "fetch": {str(n): dict(sorted(fig9.fetch[n].items()))
                  for n in fig9.core_counts},
        "commit": {str(n): dict(sorted(fig9.commit[n].items()))
                   for n in fig9.core_counts},
        "ablation": dict(sorted(fig9.ablation.items())),
    }


def _fig10_payload(fig10) -> dict:
    return {
        "sizes": list(fig10.sizes),
        "granularities": list(fig10.granularities),
        "ws": {str(m): dict(sorted(fig10.ws[m].items())) for m in fig10.sizes},
        "allocation": {str(m): {str(g): v
                                for g, v in sorted(fig10.allocation[m].items())}
                       for m in fig10.sizes},
    }


def collect_fixtures(scale: int = GOLDEN_SCALE,
                     benchmarks: Sequence[str] = GOLDEN_BENCHMARKS,
                     core_counts: Optional[Sequence[int]] = None) -> dict[str, dict]:
    """Run every figure driver and reduce each to its fixture payload.

    One shared in-process result cache serves all drivers (figures 7, 8,
    10, and table 2 reuse the figure-6 sweep; figure 9 shares its
    composition points), so each simulation point runs exactly once.
    """
    names = list(benchmarks)
    counts = tuple(core_counts) if core_counts else experiments.CORE_COUNTS
    fig6 = fig6_performance(scale=scale, core_counts=counts, benchmarks=names)
    fig5 = fig5_baseline(scale=scale, benchmarks=names)
    fig9 = fig9_protocols(scale=scale, core_counts=counts, benchmarks=names)
    fig7 = fig7_area(fig6)
    fig8 = fig8_power(fig6)
    fig10 = fig10_multiprogramming(fig6)
    table2 = table2_area_power(fig6)
    return {
        "fig5": {"ratios": dict(sorted(fig5.ratios.items()))},
        "fig6": _fig6_payload(fig6),
        "fig7": _normalized_payload(fig7),
        "fig8": _normalized_payload(fig8),
        "fig9": _fig9_payload(fig9),
        "fig10": _fig10_payload(fig10),
        "table2": {"tflex_power": dict(sorted(table2.tflex_power.items())),
                   "trips_power": dict(sorted(table2.trips_power.items()))},
    }


def write_fixtures(out_dir: pathlib.Path,
                   fixtures: Optional[dict[str, dict]] = None) -> list[pathlib.Path]:
    """Write one ``<name>.json`` per figure under ``out_dir``."""
    if fixtures is None:
        fixtures = collect_fixtures()
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIXTURE_NAMES:
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(fixtures[name], indent=1, sort_keys=True)
                        + "\n")
        written.append(path)
    return written


def load_fixture(fixtures_dir: pathlib.Path, name: str) -> dict:
    """Read one committed fixture payload."""
    return json.loads((pathlib.Path(fixtures_dir) / f"{name}.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the golden-result fixtures")
    parser.add_argument("out_dir", type=pathlib.Path,
                        help="fixture directory (normally tests/golden)")
    parser.add_argument("--scale", type=int, default=GOLDEN_SCALE)
    args = parser.parse_args(argv)
    for path in write_fixtures(args.out_dir,
                               collect_fixtures(scale=args.scale)):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
