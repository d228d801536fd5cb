"""``repro.search`` — BEST-composition design-space search.

The paper's headline curves (figures 6-8) hinge on the per-application
**BEST** composition: the core count maximizing speedup, perf/area, or
perf^2/W for each benchmark.  This package finds BEST without paying
for the exhaustive detailed sweep, by **successive halving over
fidelity tiers**: cheap sampled simulation ranks the whole candidate
set, each rung promotes the top fraction to higher fidelity, and only
the final (full-detail) rung decides the argmax.

* :mod:`repro.search.space` — :class:`SearchSpace` / :class:`Candidate`:
  the explicit candidate set of composition sizes, resolving to
  ordinary job specs.
* :mod:`repro.search.objective` — the three BEST objectives, shared
  with the figure drivers' models.
* :mod:`repro.search.halving` — the halving engine, its one fidelity
  ladder (:data:`DEFAULT_LADDER`), and the per-benchmark
  :class:`SearchResult` trail.

Entry points: ``repro search`` on the CLI, or
:func:`repro.harness.fig_best` for the figure-style driver.  See
docs/SEARCH.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_CORE_COUNTS": "space",
    "Candidate": "space",
    "SearchSpace": "space",
    "default_space": "space",
    "OBJECTIVE_NAMES": "objective",
    "OBJECTIVES": "objective",
    "Objective": "objective",
    "get_objective": "objective",
    "DEFAULT_LADDER": "halving",
    "BenchSearchResult": "halving",
    "HalvingConfig": "halving",
    "RungReport": "halving",
    "SearchResult": "halving",
    "search_best": "halving",
})
