"""Experiment harness: one driver per table/figure of the paper.

See DESIGN.md's experiment index.  Results cache within a process so
that figure 7 (area), figure 8 (power), and figure 10 (multiprogramming)
reuse the figure 6 performance sweep, as in the paper's methodology;
with ``configure_cache`` they also persist to the on-disk result store,
and the sweep drivers take ``jobs=N`` to fan cold points out over the
``repro.exec`` worker pool (docs/EXECUTION.md).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "JobFailed": "runner",
    "RunResult": "runner",
    "RiscResult": "runner",
    "run_edge_benchmark": "runner",
    "run_risc_benchmark": "runner",
    "clear_cache": "runner",
    "configure_cache": "runner",
    "get_store": "runner",
    "prewarm_specs": "runner",
    "run_all": "runner",
    "cached_program": "simulate",
    "simulation_count": "simulate",
    "FigBestResult": "experiments",
    "fig5_baseline": "experiments",
    "fig6_performance": "experiments",
    "fig6_specs": "experiments",
    "fig_best": "experiments",
    "fig7_area": "experiments",
    "fig8_power": "experiments",
    "fig9_protocols": "experiments",
    "fig10_multiprogramming": "experiments",
    "figR_degradation": "experiments",
    "figR_specs": "experiments",
    "table2_area_power": "experiments",
    "format_table": "reporting",
    "geomean": "reporting",
})
