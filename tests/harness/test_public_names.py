"""The names the repo benchmark's tracer patches, as a tier-1 contract.

``benchmarks/perf/trace.py`` (``Tracer.install``) wraps this surface by
name: module functions through ``getattr(module, attr)``, methods
through ``cls.__dict__[attr]``.  A rename or a method hoisted into a
base class only fails there in a traced benchmark rep; this mirror of
its table fails here first.  Keep the two in step.
"""

import importlib

import pytest

FUNCTIONS = {
    "repro.harness.experiments": (
        "fig6_performance", "fig_best", "fig6_specs", "fig7_area",
        "fig8_power", "table2_area_power", "fig10_multiprogramming"),
    "repro.harness.runner": (
        "prewarm_specs", "run_spec", "simulate_spec", "cached_program"),
    "repro.exec.executor": ("run_specs",),
    "repro.exec.spec": ("spec_hash",),
    "repro.search.halving": ("search_best",),
    "repro.sample.engine": ("run_sampled",),
    "repro.sample.trace": ("prewarm_partition",),
    "repro.workloads.suite": ("compile_edge", "verify_edge_run"),
}

#: (module, class) -> methods the class itself must define.
METHODS = {
    ("repro.exec.store", "ResultStore"): ("load", "store"),
    ("repro.isa.interp", "Interpreter"): ("execute_block", "commit"),
    ("repro.workloads.suite", "Benchmark"): ("build",),
    ("repro.tflex", "TFlexSystem"): ("__init__", "compose", "run"),
    ("repro.power", "EnergyModel"): ("breakdown",),
    **{("repro.harness.experiments", cls): ("render",)
       for cls in ("Fig6Result", "Fig7Result", "Fig8Result", "Fig10Result",
                   "Table2Result", "FigBestResult")},
}


@pytest.mark.parametrize("module", sorted(FUNCTIONS))
def test_patched_functions_are_module_attributes(module):
    mod = importlib.import_module(module)
    for attr in FUNCTIONS[module]:
        assert callable(getattr(mod, attr)), f"{module}.{attr}"


@pytest.mark.parametrize("module,cls", sorted(METHODS))
def test_patched_methods_are_in_the_class_dict(module, cls):
    owner = getattr(importlib.import_module(module), cls)
    for attr in METHODS[module, cls]:
        assert attr in vars(owner), f"{cls}.{attr} is inherited or gone"


def test_figure_drivers_are_resolved_through_the_module(monkeypatch):
    """A wrapper set on ``experiments.fig6_specs`` is the one
    ``fig6_performance`` calls (no reference stored at import)."""
    from repro.harness import experiments

    seen = []
    real = experiments.fig6_specs

    def wrapped(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "fig6_specs", wrapped)
    experiments.fig6_performance(core_counts=(1,), benchmarks=["dither"],
                                 include_trips=False)
    assert len(seen) == 1
