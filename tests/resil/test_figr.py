"""Degradation-experiment tests: the figure-R dead-core sweep, its
points and the curve it assembles."""

import pytest

from repro.harness import figR_degradation


NAMES = ["conv", "dither"]


@pytest.fixture(scope="module")
def figR_pair():
    """Two benchmarks on a 4-core target, up to two dead cores."""
    return figR_degradation(target_cores=4, max_dead=2, benchmarks=NAMES)


class TestFigRSpecs:
    def test_one_spec_per_point(self, figR_pair):
        assert figR_pair.dead_counts == (0, 1, 2)
        assert figR_pair.benchmarks == NAMES
        assert {b: sorted(runs) for b, runs in figR_pair.runs.items()} \
            == {b: [0, 1, 2] for b in NAMES}

    def test_zero_dead_point_is_the_plain_spec(self, figR_pair):
        plain = figR_pair.runs["conv"][0]
        assert plain.resil is None
        assert "resil" not in plain.to_dict()
        assert plain.label == "tflex-4"
        assert figR_pair.dead_sets[0] == []
        assert len(figR_pair.dead_sets[1]) == 1
        assert figR_pair.runs["conv"][1].resil is not None

    def test_bounds(self):
        """Out-of-range dead counts raise before any point runs."""
        with pytest.raises(ValueError, match="max_dead"):
            figR_degradation(target_cores=8, max_dead=8)
        with pytest.raises(ValueError, match="max_dead"):
            figR_degradation(target_cores=8, max_dead=0)


class TestFigRDegradation:
    @pytest.fixture(scope="class")
    def figR(self):
        return figR_degradation(target_cores=8, max_dead=2,
                                benchmarks=["conv"], seed=2007)

    def test_curve_shape(self, figR):
        assert figR.dead_counts == (0, 1, 2)
        assert figR.relative("conv", 0) == pytest.approx(1.0)
        assert figR.mean_relative(0) == pytest.approx(1.0)
        # Granted composition sizes can only shrink along the sweep.
        granted = [figR.granted_cores(k) for k in figR.dead_counts]
        assert granted[0] == 8
        assert all(b <= a for a, b in zip(granted, granted[1:]))

    def test_monotone_trend(self, figR):
        assert figR.monotone_trend()

    def test_dead_sets_nested(self, figR):
        sets = [set(figR.dead_sets[k]) for k in figR.dead_counts]
        assert sets[0] == set()
        assert sets[0] < sets[1] < sets[2]

    def test_runs_follow_spec_order(self, figR_pair):
        """The driver builds the points dead-count-major and reads them
        back in that order: ``runs[b][k]`` is bench ``b`` under
        schedule ``k``."""
        for k in figR_pair.dead_counts:
            assert len(figR_pair.dead_sets[k]) == k
            for name in NAMES:
                run = figR_pair.runs[name][k]
                assert run.bench == name
                assert run.label == "tflex-4" + (f"+faults{k}" if k else "")
                if k:
                    assert run.resil["boot_faulty"] == figR_pair.dead_sets[k]

    def test_payload_and_render(self, figR):
        payload = figR.payload()
        assert payload["monotone"] is True
        assert len(payload["curve"]) == 3
        point = payload["curve"][1]
        assert point["dead"] == 1
        assert 0 < point["mean_relative"] <= 1.0
        assert point["cycles"]["conv"] > 0
        assert "Figure R" in figR.render()
