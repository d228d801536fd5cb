"""The sampled-simulation acceptance gates.

Two end-to-end properties:

* **Accuracy** — on the golden ``scale=1`` suite, sampled runs with the
  accuracy-oriented parameters must land within 5% geomean IPC error of
  the full-detail runs the golden suite locks down.
* **Sampled work** — on a ``scale=4`` figure-6 subset, sampled runs with
  the throughput-oriented parameters simulate at least 100x fewer
  instructions in detail than the program commits, in aggregate.

The second gate is the deterministic quantity behind the sampled
speedup — total instructions over instructions simulated in detail,
read from ``RunResult.sampling`` — pinned as integer pairs.  What that
ratio buys in wall-clock is the benchmark's to measure
(``benchmarks/perf``: ``sampled_ff_share`` and ``search_halving``).
"""

import math

import pytest

from repro.exec.spec import JobSpec
from repro.harness.golden import GOLDEN_BENCHMARKS, GOLDEN_SCALE
from repro.harness.runner import simulate_spec

pytestmark = pytest.mark.slow

#: Accuracy-oriented parameters: dense windows, most blocks detailed.
ACCURACY_SAMPLING = {"ff_blocks": 16, "window_blocks": 32,
                     "warmup_blocks": 8}
#: Throughput-oriented parameters: long fast-forward gaps for scale>1
#: sweeps (the defaults wired into the ``--sample`` CLI flags sit
#: between these two).
SPEEDUP_SAMPLING = {"ff_blocks": 4000, "window_blocks": 12,
                    "warmup_blocks": 8}

#: The figure-6 subset behind the sampled-work gate: two golden
#: benchmarks long enough at scale=4 that sampling has room to work,
#: at two composition sizes, each with its exact ``(window_insts,
#: total_insts)`` — instructions simulated in detail, instructions
#: committed.
SAMPLED_WORK = {
    ("conv", 8): (533, 27333),
    ("conv", 16): (533, 27333),
    ("ammp", 8): (463, 93252),
    ("ammp", 16): (464, 93253),
}
SPEEDUP_SCALE = 4

GEOMEAN_ERROR_GATE = 0.05
SAMPLED_WORK_GATE = 100.0


def test_sampled_accuracy_gate_golden_suite():
    """Geomean IPC error across the golden suite must be within 5%."""
    errors = {}
    for bench in GOLDEN_BENCHMARKS:
        full = simulate_spec(JobSpec.edge(bench, 8, scale=GOLDEN_SCALE))
        sampled = simulate_spec(JobSpec.edge(
            bench, 8, scale=GOLDEN_SCALE, sampling=ACCURACY_SAMPLING))
        # Both modes execute the identical committed block stream, so
        # relative cycle error IS the IPC error for the workload.  (The
        # reported insts_committed can differ by a hair — fast-forward
        # counts interpreter-fired instructions — so comparing the two
        # ratios directly would conflate that counting difference in.)
        assert sampled.stats.blocks_committed == full.stats.blocks_committed
        errors[bench] = abs(sampled.cycles - full.cycles) / full.cycles

    geomean = math.exp(
        sum(math.log1p(e) for e in errors.values()) / len(errors)) - 1
    detail = ", ".join(f"{b}={e:.1%}" for b, e in sorted(errors.items()))
    assert geomean <= GEOMEAN_ERROR_GATE, (
        f"geomean IPC error {geomean:.2%} exceeds "
        f"{GEOMEAN_ERROR_GATE:.0%} ({detail})")


def test_sampled_speedup_gate_scale4_subset():
    """Sampled mode simulates >=100x fewer instructions in detail, in
    aggregate, on the scale=4 figure-6 subset."""
    measured = {}
    for bench, ncores in SAMPLED_WORK:
        info = simulate_spec(JobSpec.edge(
            bench, ncores, scale=SPEEDUP_SCALE,
            sampling=SPEEDUP_SAMPLING)).sampling
        measured[bench, ncores] = (info["window_insts"], info["total_insts"])
    assert measured == SAMPLED_WORK

    detailed = sum(window for window, __ in measured.values())
    total = sum(total for __, total in measured.values())
    assert total / detailed >= SAMPLED_WORK_GATE, (
        f"only {total / detailed:.1f}x fewer instructions in detail "
        f"({detailed} of {total})")
