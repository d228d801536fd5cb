"""Every pair of JobSpec axes either runs and verifies, normalises, or is
rejected at construction with one ``ValueError`` — whichever way the
spec is built (``JobSpec.edge``, ``JobSpec(...)``, ``from_dict``,
``dataclasses.replace``)."""

import functools
import itertools
from dataclasses import replace

import pytest

from repro.exec import JobSpec, spec_hash
from repro.harness.simulate import simulate_spec
from repro.resil import FaultSchedule

SAMPLING = {"ff_blocks": 40, "window_blocks": 12, "warmup_blocks": 4}
#: Every pair runs on both: dither is the shortest, gzip adds a
#: memory-heavy mix of loads and stores.
BENCHES = ("dither", "gzip")

AXES = {
    "sampling": {"sampling": SAMPLING},
    "faults": {},                   # kill(bench, scale), see spec()
    "trips": {"trips": True},
    "ideal_handshake": {"ideal_handshake": True},
    "overrides": {"overrides": {"max_inflight": 1}},
    "core_overrides": {"core_overrides": {"issue_int": 1}},
    "scale": {"scale": 2},
}
PAIRS = list(itertools.combinations(AXES, 2))
REJECTED = {("sampling", "faults"), ("faults", "trips")}
NORMALISED = {("sampling", "trips")}


@functools.cache
def kill(bench, scale):
    """Core 1 of the 2-core run dies at half its fault-free cycles, so
    the kill fires mid-run at every scale and the thread finishes on
    one core."""
    cycles = simulate_spec(JobSpec.edge(bench, ncores=2, scale=scale)).cycles
    return FaultSchedule.single_kill(1, cycles // 2).spec_items()


def spec(bench, *axes):
    kwargs = {}
    for axis in axes:
        kwargs.update(AXES[axis])
    if "faults" in axes:
        kwargs["faults"] = kill(bench, kwargs.get("scale", 1))
    return JobSpec.edge(bench, ncores=2, **kwargs)


def test_the_matrix_is_every_pair():
    assert len(PAIRS) == 21
    assert REJECTED | NORMALISED < set(PAIRS)


@pytest.mark.parametrize("pair", PAIRS, ids="+".join)
def test_pair(pair):
    for bench in BENCHES:
        check_pair(bench, pair)


def check_pair(bench, pair):
    if pair in REJECTED:
        with pytest.raises(ValueError):
            spec(bench, *pair)
        # The same spec built around the fault-free axis, by every
        # other constructor.
        other = spec(bench, *(axis for axis in pair if axis != "faults"))
        faults = kill(bench, other.scale)
        with pytest.raises(ValueError):
            replace(other, faults=faults)
        with pytest.raises(ValueError):
            JobSpec.from_dict(dict(other.to_dict(), faults=list(faults)))
        return
    if pair in NORMALISED:
        assert spec(bench, *pair) == spec(bench, "trips")
        assert spec_hash(spec(bench, *pair)) == spec_hash(spec(bench, "trips"))
        return
    result = simulate_spec(spec(bench, *pair))   # verify=True: memory checked
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
        data = dict(spec("dither").to_dict(),
                    sampling=[[k, v] for k, v in sorted(sampling.items())])
        with pytest.raises(ValueError):
            JobSpec.from_dict(data)
        with pytest.raises(ValueError):
            replace(spec("dither"), sampling=tuple(sorted(sampling.items())))

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
