"""Experiment harness: one driver per table/figure of the paper.

See DESIGN.md's experiment index.  Results cache within a process so
that figure 7 (area), figure 8 (power), and figure 10 (multiprogramming)
reuse the figure 6 performance sweep, as in the paper's methodology;
with ``configure_cache`` they also persist to the on-disk result store,
and the sweep drivers take ``jobs=N`` to fan cold points out over the
``repro.exec`` worker pool (docs/EXECUTION.md).
"""

from repro.harness.runner import (
    JobFailed,
    RunResult,
    RiscResult,
    run_edge_benchmark,
    run_risc_benchmark,
    cached_program,
    clear_cache,
    configure_cache,
    get_store,
    prewarm_specs,
    resolve_cache_dir,
    simulation_count,
)
from repro.harness.experiments import (
    FigBestResult,
    fig5_baseline,
    fig6_performance,
    fig6_specs,
    fig7_area,
    fig8_power,
    fig9_protocols,
    fig10_multiprogramming,
    fig_best,
    figR_degradation,
    figR_specs,
    table2_area_power,
)
from repro.harness.reporting import format_table, geomean

__all__ = [
    "JobFailed",
    "RunResult",
    "RiscResult",
    "run_edge_benchmark",
    "run_risc_benchmark",
    "cached_program",
    "clear_cache",
    "configure_cache",
    "get_store",
    "prewarm_specs",
    "resolve_cache_dir",
    "simulation_count",
    "FigBestResult",
    "fig5_baseline",
    "fig6_performance",
    "fig6_specs",
    "fig_best",
    "fig7_area",
    "fig8_power",
    "fig9_protocols",
    "fig10_multiprogramming",
    "figR_degradation",
    "figR_specs",
    "table2_area_power",
    "format_table",
    "geomean",
]
