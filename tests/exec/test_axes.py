"""Every pair of JobSpec axes either runs and verifies, normalises, or is
rejected at construction with one ``ValueError`` — whichever way the
spec is built (``JobSpec.edge``, ``JobSpec(...)``, ``from_dict``,
``dataclasses.replace``)."""

import itertools
from dataclasses import replace

import pytest

from repro.exec import JobSpec, spec_hash
from repro.harness.simulate import simulate_spec
from repro.resil import FaultSchedule

SAMPLING = {"ff_blocks": 40, "window_blocks": 12, "warmup_blocks": 4}
#: Core 1 of a 2-core dither run dies mid-run (the run takes 3 300
#: cycles fault-free), so the thread finishes on one core.
KILL = FaultSchedule.single_kill(1, 1500).spec_items()

AXES = {
    "sampling": {"sampling": SAMPLING},
    "faults": {"faults": KILL},
    "trips": {"trips": True},
    "ideal_handshake": {"ideal_handshake": True},
    "overrides": {"overrides": {"max_inflight": 1}},
}
PAIRS = list(itertools.combinations(AXES, 2))
REJECTED = {("sampling", "faults"), ("faults", "trips")}
NORMALISED = {("sampling", "trips")}


def spec(*axes):
    kwargs = {}
    for axis in axes:
        kwargs.update(AXES[axis])
    return JobSpec.edge("dither", ncores=2, **kwargs)


def test_the_matrix_is_every_pair():
    assert len(PAIRS) == 10
    assert REJECTED | NORMALISED < set(PAIRS)


@pytest.mark.parametrize("pair", PAIRS, ids="+".join)
def test_pair(pair):
    if pair in REJECTED:
        with pytest.raises(ValueError):
            spec(*pair)
        # The same spec built around the fault-free axis, by every
        # other constructor.
        other = spec(*(axis for axis in pair if axis != "faults"))
        with pytest.raises(ValueError):
            replace(other, faults=KILL)
        with pytest.raises(ValueError):
            JobSpec.from_dict(dict(other.to_dict(), faults=list(KILL)))
        return
    if pair in NORMALISED:
        assert spec(*pair) == spec("trips")
        assert spec_hash(spec(*pair)) == spec_hash(spec("trips"))
        return
    result = simulate_spec(spec(*pair))      # verify=True: memory checked
    assert (result.sampling is not None) == ("sampling" in pair)
    assert (result.resil is not None) == ("faults" in pair)
    if "faults" in pair:
        assert len(result.resil["recoveries"]) == 1
        assert result.num_cores == 1
    assert result.label.startswith("trips" if "trips" in pair else "tflex-2")


class TestSamplingContract:
    """Sampling items are checked by ``SamplingConfig``'s rules when the
    spec is built, not after a worker picked the job up."""

    @pytest.mark.parametrize("items", [
        {"ff": 40},
        {"ff_blocks": 0},
        {"window_blocks": 0},
        {"warmup_blocks": -1},
        {"window_blocks": 8, "warmup_blocks": 8},
    ], ids=["unknown-key", "ff", "window", "warmup", "warmup-vs-window"])
    def test_malformed_sampling_rejected_at_construction(self, items):
        sampling = dict(SAMPLING, **items)
        with pytest.raises(ValueError):
            JobSpec.edge("dither", ncores=2, sampling=sampling)
        data = dict(spec().to_dict(),
                    sampling=[[k, v] for k, v in sorted(sampling.items())])
        with pytest.raises(ValueError):
            JobSpec.from_dict(data)
        with pytest.raises(ValueError):
            replace(spec(), sampling=tuple(sorted(sampling.items())))

    def test_only_tflex_edge_specs_sample(self):
        items = tuple(sorted(SAMPLING.items()))
        with pytest.raises(ValueError, match="full detail"):
            JobSpec(kind="edge", bench="dither", ncores=0, trips=True,
                    sampling=items)
        with pytest.raises(ValueError, match="full detail"):
            JobSpec(kind="risc", bench="dither", ncores=1, sampling=items)

    def test_trips_drops_sampling_like_ncores(self):
        sampled = JobSpec.edge("conv", trips=True, sampling=SAMPLING)
        assert sampled.label() == "trips"
        assert spec_hash(sampled) == spec_hash(JobSpec.edge("conv", trips=True))
