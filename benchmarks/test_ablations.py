"""Ablations of the design choices DESIGN.md calls out.

The paper credits TFlex's advantage over TRIPS at equal issue width to
three microarchitectural deltas (section 5): doubled operand-network
bandwidth, dual-issue cores, and fine-grained distribution of the
D-cache/LSQ banks; plus full distribution of the next-block predictor
(section 4.3) as the composability enabler.  Each ablation disables one
delta on an 8-core TFlex and measures the cost across a representative
benchmark mix.
"""

from repro.harness import format_table, geomean, run_edge_benchmark

from benchmarks.conftest import save_result


MIX = ["conv", "ct", "bezier", "autocor", "mcf", "gzip", "mgrid", "equake"]
NCORES = 8


def _mean_slowdown(overrides=None, core_overrides=None) -> float:
    """Geomean cycles(ablated)/cycles(default) over the mix."""
    ratios = []
    for name in MIX:
        base = run_edge_benchmark(name, ncores=NCORES)
        ablated = run_edge_benchmark(name, ncores=NCORES, overrides=overrides,
                                     core_overrides=core_overrides)
        ratios.append(ablated.cycles / base.cycles)
    return geomean(ratios)


def _placement_speedup() -> float:
    """Geomean cycles(sequential ids)/cycles(greedy placement) at 8 cores."""
    from repro.compiler import place_program
    from repro.harness import run_edge_benchmark as run
    from repro.tflex import run_program
    from repro.workloads import BENCHMARKS

    ratios = []
    for name in MIX:
        base = run(name, ncores=NCORES).cycles
        program, __, __k = BENCHMARKS[name].edge_program()
        placed = run_program(place_program(program, NCORES), num_cores=NCORES,
                             max_cycles=30_000_000).stats.cycles
        ratios.append(base / placed)
    return geomean(ratios)


def _storeset_speedup() -> float:
    """Geomean cycles(blunt throttle)/cycles(store-set predictor)."""
    ratios = []
    for name in MIX:
        base = run_edge_benchmark(name, ncores=NCORES)
        with_sets = run_edge_benchmark(name, ncores=NCORES,
                                       overrides={"store_sets": True})
        ratios.append(base.cycles / with_sets.cycles)
    return geomean(ratios)


def test_ablations(results_dir):
    slowdowns = {
        "operand bandwidth 2 -> 1 channels": _mean_slowdown(
            overrides={"opn_channels": 1}),
        "dual issue -> single issue": _mean_slowdown(
            core_overrides={"issue_int": 1, "issue_total": 1}),
        "distributed -> centralized predictor": _mean_slowdown(
            overrides={"centralized_predictor": True}),
        "8 D-cache/LSQ banks -> 2": _mean_slowdown(
            overrides={"dcache_banks": 2}),
        "8 register banks -> 2": _mean_slowdown(
            overrides={"regfile_banks": 2}),
        "greedy placement vs sequential ids": _placement_speedup(),
        "store-set predictor vs blunt throttle": _storeset_speedup(),
    }
    rows = [[k, round(v, 3)] for k, v in slowdowns.items()]
    save_result(results_dir, "ablations", format_table(
        ["ablation (on 8-core TFlex)", "impact (x)"], rows,
        title="Design-choice ablations over " + ", ".join(MIX)))

    # No ablation may *help* beyond noise...
    for name, slowdown in slowdowns.items():
        assert slowdown > 0.97, (name, slowdown)
    # ...and scheduling placement (the paper's toolchain step) pays.
    assert slowdowns["greedy placement vs sequential ids"] > 1.03
    # ...and the communication-side deltas are the big ones: operand
    # bandwidth (the paper's headline TFlex optimization), bank
    # distribution, and predictor distribution.  Issue width barely
    # binds at this composition — execution is operand-latency bound,
    # which is exactly why the paper doubles the operand network.
    assert slowdowns["operand bandwidth 2 -> 1 channels"] > 1.04
    assert slowdowns["8 D-cache/LSQ banks -> 2"] > 1.02
    assert slowdowns["distributed -> centralized predictor"] > 1.01
