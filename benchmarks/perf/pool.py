"""The seed pool: every input the benchmark can hand the program.

A workload's *set* of work is fixed — the same specs, the same number
of CLI invocations — so that a metric read at one seed is comparable
with the same metric at another.  ``--seed`` draws the *order* of that
work (spec order, the benchmark order a driver receives, the order of
CLI invocations inside a chain) and the search's subsample seed; the
program only ever sees the generated ``JobSpec``s and argv lists.

Sizes are chosen so one rep measures 5-8 s on a 2-core sandbox (the
driver's budget is ~30 s per run of three reps); the ``quick`` plans
are the sub-second variants ``tests/test_bench.py`` runs.  Every spec
either plan can produce is pinned in ``expected/<workload>.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.exec import JobSpec

from .metrics import WORKLOADS

CORE_COUNTS = (1, 2, 4, 8, 16, 32)

#: Worker processes for the pooled workloads: min(2, nproc) per the
#: isolation rule, and the sandbox has two cores.
JOBS = 2

# detail_serial: (bench, scale) per stratum — hand/high-ILP (conv,
# autocor), spec_int/low-ILP and memory-heavy (mcf, bzip2, gzip),
# spec_fp/high-ILP (swim) — on a small, two mid and the largest
# composition, so noc cost (grows with cores) and lsq cost (the
# memory-heavy members) both show.
DETAIL_PROGRAMS = (("conv", 2), ("autocor", 2), ("mcf", 2), ("bzip2", 2),
                   ("gzip", 2), ("swim", 2))
DETAIL_CORES = (1, 4, 16, 32)
DETAIL_PROGRAMS_QUICK = (("conv", 1), ("gzip", 1))

# sampled_ff_share: ~26 k blocks per program and a 16000-block
# fast-forward, so each run is two short windows around one long
# fast-forward interval and a tail; per program one composition records
# and the others replay.  (Shorter programs let the windows' tflex time
# pass 15 % of the rep.)
SAMPLED_PROGRAMS = (("conv", 192), ("gzip", 320))
SAMPLED_SAMPLING = {"ff_blocks": 16000, "window_blocks": 12,
                    "warmup_blocks": 4}
#: (ncores, ideal_handshake): fig6 compositions plus the fig9 ideal point.
SAMPLED_COMPOSITIONS = ((1, False), (4, False), (16, False), (32, False),
                        (32, True))
SAMPLED_PROGRAMS_QUICK = (("conv", 8), ("gzip", 8))
SAMPLED_SAMPLING_QUICK = {"ff_blocks": 300, "window_blocks": 12,
                          "warmup_blocks": 4}
SAMPLED_COMPOSITIONS_QUICK = ((1, False), (8, False), (32, True))

# search_halving: five golden benchmarks at scale 2, all objectives.
SEARCH_BENCHMARKS = ("a2time", "ammp", "bzip2", "conv", "dither")
SEARCH_SCALE = 2
SEARCH_BENCHMARKS_QUICK = ("conv", "gzip")

# fig6_pool_cold / warm_replay: the whole suite at scale 1 (None = all
# 26); the quick plans restrict the drivers with ``--bench``.
FIG_BENCHMARKS_QUICK = ("conv", "gzip")
WARM_COMMANDS = ("fig6", "fig7", "fig8", "fig10", "table2")
WARM_CHAINS = 3
WARM_CHAINS_QUICK = 1


@dataclass(frozen=True)
class Plan:
    """One workload's inputs for one seed."""

    workload: str
    seed: int
    quick: bool
    #: Specs the rep runs itself, in order (in-process workloads), or
    #: the set whose records must exist afterwards (fig6_pool_cold,
    #: warm_replay); empty where only the program decides
    #: (search_halving).
    specs: tuple = ()
    #: Benchmark names handed to a figure/search driver, in order.
    benchmarks: tuple = ()
    scale: int = 1
    #: (bench, scale) programs built during set-up.
    programs: tuple = ()
    #: warm_replay: argv tails (``repro <cmd> ...``) per chain.
    chains: tuple = ()
    #: search_halving: ``HalvingConfig.seed``.
    search_seed: int = 2007


def _suite() -> tuple:
    from repro.workloads import BENCHMARKS

    return tuple(sorted(BENCHMARKS))


def _fig6_specs(benchmarks) -> tuple:
    from repro.harness import fig6_specs

    return tuple(fig6_specs(scale=1, benchmarks=list(benchmarks)))


def plan(workload: str, seed: int, quick: bool = False) -> Plan:
    """The inputs of ``workload`` at ``seed`` (same seed, same plan)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "detail_serial":
        programs = DETAIL_PROGRAMS_QUICK if quick else DETAIL_PROGRAMS
        specs = [JobSpec.edge(bench, ncores=n, scale=scale)
                 for bench, scale in programs for n in DETAIL_CORES]
        rng.shuffle(specs)
        return Plan(workload, seed, quick, specs=tuple(specs),
                    programs=programs)
    if workload == "sampled_ff_share":
        programs = SAMPLED_PROGRAMS_QUICK if quick else SAMPLED_PROGRAMS
        sampling = SAMPLED_SAMPLING_QUICK if quick else SAMPLED_SAMPLING
        comps = (SAMPLED_COMPOSITIONS_QUICK if quick
                 else SAMPLED_COMPOSITIONS)
        specs = [JobSpec.edge(bench, ncores=n, scale=scale,
                              ideal_handshake=ideal, sampling=sampling)
                 for bench, scale in programs for n, ideal in comps]
        rng.shuffle(specs)
        return Plan(workload, seed, quick, specs=tuple(specs),
                    programs=programs)
    if workload in ("fig6_pool_cold", "warm_replay"):
        names = list(FIG_BENCHMARKS_QUICK if quick else _suite())
        specs = _fig6_specs(names)
        rng.shuffle(names)
        chains = ()
        if workload == "warm_replay":
            bench_args = ([arg for name in sorted(names)
                           for arg in ("--bench", name)] if quick else [])
            chains = []
            for _ in range(WARM_CHAINS_QUICK if quick else WARM_CHAINS):
                commands = list(WARM_COMMANDS)
                rng.shuffle(commands)
                chains.append(tuple((cmd, *bench_args) for cmd in commands))
        return Plan(workload, seed, quick, specs=specs,
                    benchmarks=tuple(names), chains=tuple(chains))
    if workload == "search_halving":
        names = list(SEARCH_BENCHMARKS_QUICK if quick else SEARCH_BENCHMARKS)
        rng.shuffle(names)
        return Plan(workload, seed, quick, benchmarks=tuple(names),
                    scale=1 if quick else SEARCH_SCALE,
                    search_seed=rng.randrange(1, 1 << 16))
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{WORKLOADS}")
