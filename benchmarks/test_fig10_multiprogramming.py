"""Figure 10: multiprogrammed throughput (weighted speedup) of TFlex
versus fixed-granularity CMPs and the symmetric VB CMP.

Paper methodology: WS computed from the figure-6 cores->speedup
functions of the hand-optimized suite, with an optimal DP core
allocator for TFlex.  Claims reproduced in shape: the best fixed
granularity shifts with workload size (large processors for few
threads, small for many); TFlex beats every fixed CMP on average
(paper: +26% avg / +47% max over the best fixed CMP) and beats the
symmetric variable-best CMP (paper: +6%); the optimal allocation mixes
granularities even within one workload size.
"""

from repro.harness import fig10_multiprogramming

from benchmarks.conftest import save_result


def test_fig10_multiprogramming(fig6, results_dir):
    result = fig10_multiprogramming(fig6)
    save_result(results_dir, "fig10_multiprogramming", result.render())

    # TFlex wins at every workload size against every fixed CMP.
    for m in result.sizes:
        for g in result.granularities:
            assert result.ws[m]["TFlex"] >= result.ws[m][f"CMP-{g}"] - 1e-9, (m, g)

    # Average and max gains over the best fixed CMP (paper: +26%/+47%).
    assert result.tflex_gain_over_best_fixed() > 0.05
    assert result.tflex_max_gain() > result.tflex_gain_over_best_fixed()

    # Asymmetric composition beats the symmetric VB CMP (paper: +6%).
    assert result.tflex_gain_over_vb() >= 0.0

    # The best fixed granularity shifts with workload size: few threads
    # prefer bigger processors than many threads.
    def best_g(m):
        return max(result.granularities, key=lambda g: result.ws[m][f"CMP-{g}"])
    assert best_g(min(result.sizes)) >= best_g(max(result.sizes))

    # The optimal allocation uses more than one granularity overall.
    for m in result.sizes:
        if len(result.allocation[m]) > 1:
            break
    else:
        raise AssertionError("optimal allocation never mixed granularities")
