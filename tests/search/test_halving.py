"""The halving engine, isolated from the simulator.

``search_best`` batches each rung through
``repro.harness.runner.prewarm_specs`` and reads every evaluation back
through ``run_spec``; these tests monkeypatch that seam with a
synthetic score table, so rung mechanics (promotion fractions,
fidelity routing, tie-breaks, observability) are checked in
milliseconds.  The end-to-end argmax/work-reduction acceptance runs in
``test_fig_best.py``.
"""

from types import SimpleNamespace

import pytest

import repro.obs
from repro.harness.experiments import FigBestResult
from repro.search import (
    DEFAULT_LADDER,
    HalvingConfig,
    SearchResult,
    default_space,
    search_best,
)

#: The fast-forward lengths that tell the ladder's sampled tiers apart.
COARSE_FF, FINE_FF = (tier.sampling_dict()["ff_blocks"]
                      for tier in DEFAULT_LADDER[:2])
assert (COARSE_FF, FINE_FF) == (256, 96)


def install_scores(monkeypatch, table):
    """Route run_spec through ``table[(bench, ncores, ff)]`` cycles,
    where ``ff`` is the sampled fast-forward length (None = detail).
    Returns the list of (bench, ncores, ff) evaluations performed."""
    calls = []

    def fake_run_spec(spec):
        ff = spec.sampling_dict().get("ff_blocks") if spec.sampling else None
        calls.append((spec.bench, spec.ncores, ff))
        cycles = table[(spec.bench, spec.ncores, ff)]
        return SimpleNamespace(
            cycles=cycles, num_cores=spec.ncores,
            performance=1.0 / cycles,
            power=SimpleNamespace(total=1.0))

    monkeypatch.setattr("repro.harness.runner.run_spec", fake_run_spec)
    monkeypatch.setattr("repro.harness.runner.prewarm_specs",
                        lambda specs, **kwargs: [])
    return calls


def uniform_table(space, by_ncores, coarse_by_ncores=None,
                  fine_by_ncores=None):
    """Cycle table applying one cores->cycles map per fidelity to every
    benchmark (coarse/fine default to the detailed map)."""
    table = {}
    for bench in space.benchmarks:
        for cand in space.candidates:
            n = cand.ncores
            table[(bench, n, None)] = by_ncores[n]
            table[(bench, n, COARSE_FF)] = (coarse_by_ncores or by_ncores)[n]
            table[(bench, n, FINE_FF)] = (fine_by_ncores or by_ncores)[n]
    return table


class TestRungMechanics:
    def test_halving_schedule_6_3_2(self, monkeypatch):
        space = default_space(["conv"])
        cycles = {1: 600, 2: 500, 4: 400, 8: 300, 16: 200, 32: 100}
        calls = install_scores(monkeypatch,
                               uniform_table(space, cycles))
        result = search_best(space, "speedup")
        trail = result.per_bench["conv"]
        assert [len(r.entered) for r in trail.rungs] == [6, 3, 2]
        assert [r.tier for r in trail.rungs] == ["coarse", "fine", "detail"]
        assert trail.detailed_jobs() == 2
        assert result.detail_reduction() == 3.0
        # Rung fidelities actually reached the runner.
        assert {ff for __, __n, ff in calls} == {COARSE_FF, FINE_FF, None}
        assert trail.best.ncores == 32

    def test_best_survives_coarse_misranking(self, monkeypatch):
        """The sampled tiers only need to keep BEST alive, not rank it
        first: a coarse tier that puts the true best second must still
        yield the detailed argmax."""
        space = default_space(["conv"])
        detail = {1: 600, 2: 500, 4: 400, 8: 300, 16: 200, 32: 100}
        coarse = {1: 600, 2: 500, 4: 400, 8: 300, 16: 90, 32: 100}
        install_scores(monkeypatch,
                       uniform_table(space, detail, coarse_by_ncores=coarse))
        result = search_best(space, "speedup")
        assert result.per_bench["conv"].best.ncores == 32

    def test_elimination_loses_candidates_for_good(self, monkeypatch):
        """A candidate dropped at rung 0 never reaches later tiers, even
        if it would have won in detail — the fidelity contract."""
        space = default_space(["conv"])
        detail = {1: 50, 2: 500, 4: 400, 8: 300, 16: 200, 32: 100}
        coarse = {1: 999, 2: 500, 4: 400, 8: 300, 16: 200, 32: 100}
        calls = install_scores(monkeypatch,
                               uniform_table(space, detail,
                                             coarse_by_ncores=coarse))
        result = search_best(space, "speedup")
        assert result.per_bench["conv"].best.ncores != 1
        assert (("conv", 1, FINE_FF) not in calls
                and ("conv", 1, None) not in calls)

    def test_ties_resolve_to_earliest_candidate(self, monkeypatch):
        """Equal detailed scores pick the smallest composition — the
        same tie-break as ``max`` over the exhaustive sweep's ascending
        labels."""
        space = default_space(["conv"])
        cycles = {1: 100, 2: 100, 4: 100, 8: 100, 16: 100, 32: 100}
        install_scores(monkeypatch, uniform_table(space, cycles))
        result = search_best(space, "speedup")
        assert result.per_bench["conv"].best.ncores == 1

    def test_eta_3_schedule(self, monkeypatch):
        space = default_space(["conv"])
        cycles = {1: 600, 2: 500, 4: 400, 8: 300, 16: 200, 32: 100}
        install_scores(monkeypatch, uniform_table(space, cycles))
        result = search_best(space, "speedup",
                             HalvingConfig(eta=3))
        assert [len(r.entered)
                for r in result.per_bench["conv"].rungs] == [6, 2, 1]

    def test_benchmarks_promoted_independently(self, monkeypatch):
        space = default_space(["a", "b"])
        table = {}
        for n, cyc in ((1, 600), (2, 500), (4, 400), (8, 300),
                       (16, 200), (32, 100)):
            for ff in (COARSE_FF, FINE_FF, None):
                table[("a", n, ff)] = cyc          # "a" peaks at 32
                table[("b", n, ff)] = 700 - cyc    # "b" peaks at 1
        install_scores(monkeypatch, table)
        result = search_best(space, "speedup")
        assert result.per_bench["a"].best.ncores == 32
        assert result.per_bench["b"].best.ncores == 1

    def test_max_candidates_subsamples_deterministically(self, monkeypatch):
        space = default_space(["conv"])
        cycles = {1: 600, 2: 500, 4: 400, 8: 300, 16: 200, 32: 100}
        install_scores(monkeypatch, uniform_table(space, cycles))
        cfg = HalvingConfig(max_candidates=4, seed=7)
        first = search_best(space, "speedup", cfg)
        again = search_best(space, "speedup", cfg)
        assert len(first.per_bench["conv"].rungs[0].entered) == 4
        assert (first.per_bench["conv"].rungs[0].entered
                == again.per_bench["conv"].rungs[0].entered)


class TestConfigValidation:
    def test_final_tier_must_be_detail(self):
        # The argmax is decided on exact cycle counts.
        assert [t.detailed for t in DEFAULT_LADDER] == [False, False, True]

    def test_eta_below_2_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            search_best(default_space(["conv"]), "speedup",
                        HalvingConfig(eta=1))

    def test_unknown_objective_rejected(self, monkeypatch):
        install_scores(monkeypatch, {})
        with pytest.raises(ValueError, match="bogus"):
            search_best(default_space(["conv"]), "bogus")


class TestObservability:
    def test_events_and_metrics(self, monkeypatch):
        space = default_space(["conv"])
        cycles = {1: 600, 2: 500, 4: 400, 8: 300, 16: 200, 32: 100}
        install_scores(monkeypatch, uniform_table(space, cycles))
        obs = repro.obs.configure(metrics=True)
        events = []
        obs.bus.attach(repro.obs.CallbackSink(events.append))
        try:
            search_best(space, "speedup")
            kinds = [e["kind"] for e in events]
            assert kinds[0] == "search.start"
            assert kinds.count("search.rung") == 3
            assert kinds[-1] == "search.best"
            rung0 = next(e for e in events if e["kind"] == "search.rung")
            assert rung0["alive"] == 6
            assert rung0["eliminated"] == 3
            assert rung0["fidelity"] == "sampled"
            best = events[-1]
            assert best["best"] == "tflex-32"
            assert best["detailed_jobs"] == 2
            metrics = obs.metrics
            assert metrics.counter("search.evals", fidelity="coarse",
                                   objective="speedup") == 6
            assert metrics.counter("search.evals", fidelity="detail",
                                   objective="speedup") == 2
            assert metrics.counter("search.detailed_jobs",
                                   objective="speedup") == 2
            assert metrics.counter("search.eliminations",
                                   objective="speedup", tier="coarse") == 3
        finally:
            repro.obs.reset()


class TestRendering:
    def test_render_mentions_reduction(self, monkeypatch):
        space = default_space(["conv"])
        cycles = {1: 600, 2: 500, 4: 400, 8: 300, 16: 200, 32: 100}
        install_scores(monkeypatch, uniform_table(space, cycles))
        result = search_best(space, "speedup")
        assert isinstance(result, SearchResult)
        text = FigBestResult(scale=1, core_counts=(1, 2, 4, 8, 16, 32),
                             benchmarks=["conv"],
                             searches={"speedup": result}).render()
        assert text.splitlines()[3].split() == ["conv", "|", "32"]
        assert "3.0x fewer" in text
