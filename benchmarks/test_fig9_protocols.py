"""Figure 9: latency breakdowns of the distributed fetch and commit
protocols, plus the section-6.4 instantaneous-handshake ablation.

Paper claims reproduced in shape:
* 9a — prediction + tag + fetch pipeline are a seven-cycle constant
  (no prediction at one core); control hand-off and fetch-command
  distribution grow with composition size (distribution dominates at
  16+ cores); dispatch time shrinks as per-core bandwidth aggregates.
* 9b — commit handshake grows with distance; architectural state
  update shrinks with added register/cache bandwidth.
* ablation — making every handshake instantaneous buys little even at
  32 cores (paper: <2%; our kernels are shorter, so protocol warmup
  weighs somewhat more).
"""

from repro.harness import fig9_protocols

from benchmarks.conftest import save_result


PROTOCOL_BENCHES = ["conv", "ct", "bezier", "mcf", "gzip", "mgrid"]


def test_fig9_protocols(results_dir):
    result = fig9_protocols(benchmarks=PROTOCOL_BENCHES)
    save_result(results_dir, "fig9_protocols", result.render())

    # 9a: the constant front end.
    for n in result.core_counts:
        if n == 1:
            assert result.fetch[n]["prediction"] == 0    # no speculation
        else:
            assert result.fetch[n]["prediction"] == 3
        assert result.fetch[n]["tag"] == 1
        assert result.fetch[n]["pipeline"] == 3

    # 9a: distribution grows; dispatch shrinks.
    assert result.fetch[32]["distribution"] > result.fetch[2]["distribution"]
    assert result.fetch[32]["dispatch"] < result.fetch[1]["dispatch"]
    # Distribution dominates hand-off at large sizes.
    assert result.fetch[32]["distribution"] > result.fetch[32]["handoff"]

    # 9b: handshake grows with cores, state update shrinks.
    assert result.commit[32]["handshake"] > result.commit[2]["handshake"]
    assert result.commit[32]["state_update"] <= result.commit[1]["state_update"]

    # Ablation: distributed handshakes cost little at the largest
    # composition (paper < 2%; shorter kernels here, so allow < 15%).
    assert 0.0 <= result.mean_ablation_impact() < 0.15
