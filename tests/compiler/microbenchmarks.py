"""Synthetic microbenchmarks isolating one microarchitectural behaviour.

These are not part of the paper's 26-benchmark suite, and only
``tests/workloads/test_micro.py`` runs them: each checks the simulator's
response to one behaviour (the paper's authors used microbenchmarks the
same way to validate the simulator and power model against the TRIPS
prototype, section 5).  Each returns ``(KernelProgram, expected)`` like
the suite factories.
"""

from __future__ import annotations

from repro.compiler import (
    Array, Assign, Bin, Cmp, Const, For, Function, If, KernelProgram, Load,
    Store, Var,
)
from repro.workloads.data import Lcg


def pointer_chase(length: int = 64, hops: int = 128):
    """Serial dependent loads: every load's address comes from the
    previous load (memory-latency bound; zero MLP)."""
    rng = Lcg(211)
    # A random cycle over the nodes guarantees `hops` distinct steps.
    order = list(range(1, length))
    for i in range(len(order) - 1, 0, -1):
        j = rng.next() % (i + 1)
        order[i], order[j] = order[j], order[i]
    nodes = [0] * length
    prev = 0
    for node in order:
        nodes[prev] = node
        prev = node
    nodes[prev] = 0
    kernel = KernelProgram(
        name="pointer_chase",
        arrays=[Array("next", "int", length, nodes), Array("out", "int", 1)],
        functions=[Function("main", body=[
            Assign("p", Const(0)),
            For("i", Const(0), Const(hops), body=[
                Assign("p", Load("next", Var("p"))),
            ]),
            Store("out", Const(0), Var("p")),
        ])])
    p = 0
    for __ in range(hops):
        p = nodes[p]
    return kernel, {"out": [p]}


def branch_random(n: int = 128, seed: int = 223):
    """Data-dependent unpredictable branches (misprediction bound)."""
    rng = Lcg(seed)
    data = rng.ints(n, 0, 1)
    kernel = KernelProgram(
        name="branch_random",
        arrays=[Array("bits", "int", n, data), Array("out", "int", 1)],
        functions=[Function("main", body=[
            Assign("acc", Const(0)),
            For("i", Const(0), Const(n), body=[
                If(Cmp("==", Load("bits", Var("i")), Const(1)), then=[
                    Assign("acc", Bin("+", Var("acc"), Const(3))),
                ], else_=[
                    Assign("acc", Bin("-", Var("acc"), Const(1))),
                ]),
            ]),
            Store("out", Const(0), Var("acc")),
        ])])
    acc = sum(3 if b else -1 for b in data)
    return kernel, {"out": [acc]}


def memory_stream(n: int = 256):
    """Unit-stride streaming read-modify-write (bandwidth bound)."""
    rng = Lcg(227)
    data = rng.ints(n, 0, 1000)
    kernel = KernelProgram(
        name="memory_stream",
        arrays=[Array("a", "int", n, data), Array("b", "int", n)],
        functions=[Function("main", body=[
            For("i", Const(0), Const(n), unroll=8, body=[
                Store("b", Var("i"), Bin("+", Load("a", Var("i")), Const(1))),
            ]),
        ])])
    return kernel, {"b": [v + 1 for v in data]}


def alu_chain(length: int = 256):
    """One long serial ALU dependence chain (pure latency bound;
    composition cannot help — the anti-scaling control)."""
    kernel = KernelProgram(
        name="alu_chain",
        arrays=[Array("out", "int", 1)],
        functions=[Function("main", body=[
            Assign("v", Const(1)),
            For("i", Const(0), Const(length), unroll=8, body=[
                Assign("v", Bin("^", Bin("*", Var("v"), Const(3)), Const(17))),
            ]),
            Store("out", Const(0), Var("v")),
        ])])
    from repro.util import wrap64
    v = 1
    for __ in range(length):
        v = wrap64(v * 3) ^ 17
    return kernel, {"out": [v]}


def fanout_tree(width: int = 24, rounds: int = 16):
    """Wide independent dataflow (ILP bound; the pro-scaling control)."""
    kernel_body = [Assign("s", Const(0))]
    for w in range(width):
        kernel_body.append(Assign(f"v{w}", Const(w + 1)))
    loop_body = []
    for w in range(width):
        loop_body.append(Assign(f"v{w}", Bin("+", Bin("*", Var(f"v{w}"),
                                                      Const(3)), Const(w))))
    kernel_body.append(For("i", Const(0), Const(rounds), body=loop_body))
    for w in range(width):
        kernel_body.append(Assign("s", Bin("^", Var("s"), Var(f"v{w}"))))
    kernel_body.append(Store("out", Const(0), Var("s")))
    kernel = KernelProgram(
        name="fanout_tree",
        arrays=[Array("out", "int", 1)],
        functions=[Function("main", body=kernel_body)])

    from repro.util import wrap64
    values = [w + 1 for w in range(width)]
    for __ in range(rounds):
        values = [wrap64(v * 3 + w) for w, v in enumerate(values)]
    s = 0
    for v in values:
        s ^= v
    return kernel, {"out": [wrap64(s)]}


MICROBENCHMARKS = {
    "pointer_chase": pointer_chase,
    "branch_random": branch_random,
    "memory_stream": memory_stream,
    "alu_chain": alu_chain,
    "fanout_tree": fanout_tree,
}
