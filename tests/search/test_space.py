"""Search spaces: candidate sets, spec resolution, subsampling."""

import pytest

from repro.exec import JobSpec, spec_hash
from repro.search import Candidate, SearchSpace, default_space
from repro.search.space import DEFAULT_CORE_COUNTS


class TestCandidate:
    def test_label_matches_sweep_label(self):
        assert Candidate(8).label() == "tflex-8"
        spec = JobSpec.edge("conv", ncores=8)
        assert Candidate(8).label() == spec.label()


class TestSearchSpace:
    def test_default_space_is_the_fig6_sweep(self):
        space = default_space(["conv", "gzip"])
        assert space.benchmarks == ("conv", "gzip")
        assert tuple(c.ncores for c in space.candidates) == DEFAULT_CORE_COUNTS
        assert len(space.candidates) == 6

    def test_spec_for_resolves_to_sweep_point(self):
        """A candidate at full detail hashes identically to the
        exhaustive sweep's spec — search results share its cache."""
        space = default_space(["conv"], scale=2)
        spec = space.spec_for("conv", Candidate(8))
        assert spec_hash(spec) == spec_hash(JobSpec.edge("conv", ncores=8,
                                                         scale=2))

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="benchmark"):
            SearchSpace(benchmarks=(), candidates=(Candidate(1),))
        with pytest.raises(ValueError, match="candidate"):
            SearchSpace(benchmarks=("conv",), candidates=())

    def test_rejects_duplicate_candidates(self):
        with pytest.raises(ValueError, match="unique"):
            SearchSpace(benchmarks=("conv",),
                        candidates=(Candidate(4), Candidate(4)))


class TestSubsample:
    def test_identity_when_budget_covers_space(self):
        space = default_space(["conv"])
        assert space.subsample(6, seed=1) is space
        assert space.subsample(99, seed=1) is space

    def test_deterministic_and_order_preserving(self):
        space = default_space(["conv"])
        a = space.subsample(3, seed=42)
        b = space.subsample(3, seed=42)
        assert a.candidates == b.candidates
        assert len(a.candidates) == 3
        # Original (ascending-cores) order survives the draw.
        sizes = [c.ncores for c in a.candidates]
        assert sizes == sorted(sizes)

    def test_seed_changes_draw(self):
        space = default_space(["conv"])
        draws = {space.subsample(3, seed=s).candidates for s in range(8)}
        assert len(draws) > 1

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError, match="max_candidates"):
            default_space(["conv"]).subsample(0, seed=1)
