"""The 14 compiled SPEC CPU stand-ins (8 integer, 6 floating point).

Matched in *character* to the paper's compiled suite: branchy,
table-driven, pointer/index-chasing integer codes with modest ILP, and
memory-bound stencil/gather floating-point codes.  Unrolling hints are
low — these model compiler-generated (not hand-scheduled) code.
"""

from __future__ import annotations

from repro.compiler import (
    Array, Assign, Bin, Cmp, Const, For, Function, If, KernelProgram, Load,
    Store, Un, Var,
)
from repro.workloads.data import Lcg


# ----------------------------------------------------------------------
# SPEC INT stand-ins
# ----------------------------------------------------------------------

def bzip2(scale: int = 1):
    """Run-length encoding pass (branchy byte scanning)."""
    n = 96 * scale
    rng = Lcg(101)
    raw = []
    while len(raw) < n:
        value = rng.next() % 6
        raw += [value] * (1 + rng.next() % 5)
    data = raw[:n]
    kernel = KernelProgram(
        name="bzip2",
        arrays=[Array("inp", "int", n, data), Array("vals", "int", n),
                Array("lens", "int", n), Array("count", "int", 1)],
        functions=[Function("main", body=[
            Assign("runs", Const(0)),
            Assign("cur", Load("inp", Const(0))),
            Assign("runlen", Const(1)),
            For("i", Const(1), Const(n), body=[
                Assign("v", Load("inp", Var("i"))),
                If(Cmp("==", Var("v"), Var("cur")), then=[
                    Assign("runlen", Bin("+", Var("runlen"), Const(1))),
                ], else_=[
                    Store("vals", Var("runs"), Var("cur")),
                    Store("lens", Var("runs"), Var("runlen")),
                    Assign("runs", Bin("+", Var("runs"), Const(1))),
                    Assign("cur", Var("v")),
                    Assign("runlen", Const(1)),
                ]),
            ]),
            Store("vals", Var("runs"), Var("cur")),
            Store("lens", Var("runs"), Var("runlen")),
            Store("count", Const(0), Bin("+", Var("runs"), Const(1))),
        ])])
    vals, lens = [], []
    cur, runlen = data[0], 1
    for v in data[1:]:
        if v == cur:
            runlen += 1
        else:
            vals.append(cur)
            lens.append(runlen)
            cur, runlen = v, 1
    vals.append(cur)
    lens.append(runlen)
    return kernel, {"vals": vals, "lens": lens, "count": [len(vals)]}


def gzip(scale: int = 1):
    """Hash-chain match search (LZ77 core; data-dependent loads)."""
    n = 80 * scale
    hbits = 5
    rng = Lcg(103)
    data = rng.ints(n, 0, 7)
    kernel = KernelProgram(
        name="gzip",
        arrays=[Array("inp", "int", n, data),
                Array("head", "int", 1 << hbits),
                Array("matches", "int", n), Array("total", "int", 1)],
        functions=[Function("main", body=[
            Assign("found", Const(0)),
            For("i", Const(1), Const(n), body=[
                Assign("h", Bin("&", Bin("^", Load("inp", Var("i")),
                                         Bin("<<", Load("inp", Bin("-", Var("i"), Const(1))),
                                             Const(2))),
                                Const((1 << hbits) - 1))),
                Assign("prev", Load("head", Var("h"))),
                Assign("m", Const(0)),
                If(Cmp(">", Var("prev"), Const(0)), then=[
                    If(Cmp("==", Load("inp", Var("prev")), Load("inp", Var("i"))), then=[
                        Assign("m", Const(1)),
                        Assign("found", Bin("+", Var("found"), Const(1))),
                    ]),
                ]),
                Store("matches", Var("i"), Var("m")),
                Store("head", Var("h"), Var("i")),
            ]),
            Store("total", Const(0), Var("found")),
        ])])
    head = [0] * (1 << hbits)
    matches, found = [0], 0
    for i in range(1, n):
        h = (data[i] ^ (data[i - 1] << 2)) & ((1 << hbits) - 1)
        prev = head[h]
        m = 0
        if prev > 0 and data[prev] == data[i]:
            m = 1
            found += 1
        matches.append(m)
        head[h] = i
    return kernel, {"matches": matches, "total": [found]}


def mcf(scale: int = 1):
    """Single-source relaxation sweep over an edge list (gather+branch)."""
    nodes = 24 * scale
    edges = 64 * scale
    rng = Lcg(107)
    src = rng.ints(edges, 0, nodes - 1)
    dst = rng.ints(edges, 0, nodes - 1)
    cost = rng.ints(edges, 1, 9)
    dist0 = [0] + [10_000] * (nodes - 1)
    kernel = KernelProgram(
        name="mcf",
        arrays=[Array("src", "int", edges, src), Array("dst", "int", edges, dst),
                Array("cost", "int", edges, cost),
                Array("dist", "int", nodes, dist0),
                Array("relaxed", "int", 1)],
        functions=[Function("main", body=[
            Assign("changes", Const(0)),
            For("sweep", Const(0), Const(3), body=[
                For("e", Const(0), Const(edges), body=[
                    Assign("u", Load("src", Var("e"))),
                    Assign("v", Load("dst", Var("e"))),
                    Assign("nd", Bin("+", Load("dist", Var("u")), Load("cost", Var("e")))),
                    If(Cmp("<", Var("nd"), Load("dist", Var("v"))), then=[
                        Store("dist", Var("v"), Var("nd")),
                        Assign("changes", Bin("+", Var("changes"), Const(1))),
                    ]),
                ]),
            ]),
            Store("relaxed", Const(0), Var("changes")),
        ])])
    dist = list(dist0)
    changes = 0
    for __ in range(3):
        for e in range(edges):
            nd = dist[src[e]] + cost[e]
            if nd < dist[dst[e]]:
                dist[dst[e]] = nd
                changes += 1
    return kernel, {"dist": dist, "relaxed": [changes]}


def parser(scale: int = 1):
    """Table-driven finite-state machine over a token stream."""
    n = 96 * scale
    states = 8
    symbols = 4
    rng = Lcg(109)
    trans = rng.ints(states * symbols, 0, states - 1)
    tokens = rng.ints(n, 0, symbols - 1)
    kernel = KernelProgram(
        name="parser",
        arrays=[Array("trans", "int", states * symbols, trans),
                Array("tok", "int", n, tokens),
                Array("visits", "int", states),
                Array("final", "int", 1)],
        functions=[Function("main", body=[
            Assign("state", Const(0)),
            For("i", Const(0), Const(n), body=[
                Assign("state", Load("trans",
                                     Bin("+", Bin("*", Var("state"), Const(symbols)),
                                         Load("tok", Var("i"))))),
                Store("visits", Var("state"),
                      Bin("+", Load("visits", Var("state")), Const(1))),
            ]),
            Store("final", Const(0), Var("state")),
        ])])
    visits = [0] * states
    state = 0
    for t in tokens:
        state = trans[state * symbols + t]
        visits[state] += 1
    return kernel, {"visits": visits, "final": [state]}


def twolf(scale: int = 1):
    """Placement-swap cost deltas with accept/reject (annealing core)."""
    cells = 32 * scale
    swaps = 48 * scale
    rng = Lcg(113)
    xs = rng.ints(cells, 0, 63)
    ys = rng.ints(cells, 0, 63)
    a_idx = rng.ints(swaps, 0, cells - 1)
    b_idx = rng.ints(swaps, 0, cells - 1)
    kernel = KernelProgram(
        name="twolf",
        arrays=[Array("x", "int", cells, xs), Array("y", "int", cells, ys),
                Array("ai", "int", swaps, a_idx), Array("bi", "int", swaps, b_idx),
                Array("accepted", "int", 1), Array("costsum", "int", 1)],
        functions=[Function("main", body=[
            Assign("acc", Const(0)),
            Assign("total", Const(0)),
            For("s", Const(0), Const(swaps), body=[
                Assign("a", Load("ai", Var("s"))),
                Assign("b", Load("bi", Var("s"))),
                Assign("dx", Un("abs", Bin("-", Load("x", Var("a")), Load("x", Var("b"))))),
                Assign("dy", Un("abs", Bin("-", Load("y", Var("a")), Load("y", Var("b"))))),
                Assign("delta", Bin("-", Var("dx"), Var("dy"))),
                If(Cmp("<", Var("delta"), Const(0)), then=[
                    Assign("acc", Bin("+", Var("acc"), Const(1))),
                    Store("x", Var("a"), Load("x", Var("b"))),
                ]),
                Assign("total", Bin("+", Var("total"), Var("delta"))),
            ]),
            Store("accepted", Const(0), Var("acc")),
            Store("costsum", Const(0), Var("total")),
        ])])
    x = list(xs)
    acc = total = 0
    for s in range(swaps):
        a, b = a_idx[s], b_idx[s]
        dx = abs(x[a] - x[b])
        dy = abs(ys[a] - ys[b])
        delta = dx - dy
        if delta < 0:
            acc += 1
            x[a] = x[b]
        total += delta
    return kernel, {"accepted": [acc], "costsum": [total], "x": x}


def vpr(scale: int = 1):
    """Routing-cost evaluation: bounding-box updates with minima."""
    nets = 48 * scale
    rng = Lcg(127)
    x1 = rng.ints(nets, 0, 99)
    y1 = rng.ints(nets, 0, 99)
    x2 = rng.ints(nets, 0, 99)
    y2 = rng.ints(nets, 0, 99)
    kernel = KernelProgram(
        name="vpr",
        arrays=[Array("x1", "int", nets, x1), Array("y1", "int", nets, y1),
                Array("x2", "int", nets, x2), Array("y2", "int", nets, y2),
                Array("cost", "int", nets), Array("worst", "int", 1)],
        functions=[Function("main", body=[
            Assign("wmax", Const(0)),
            For("i", Const(0), Const(nets), unroll=2, body=[
                Assign("c", Bin("+",
                                Un("abs", Bin("-", Load("x1", Var("i")), Load("x2", Var("i")))),
                                Un("abs", Bin("-", Load("y1", Var("i")), Load("y2", Var("i")))))),
                Store("cost", Var("i"), Var("c")),
                If(Cmp(">", Var("c"), Var("wmax")), then=[
                    Assign("wmax", Var("c")),
                ]),
            ]),
            Store("worst", Const(0), Var("wmax")),
        ])])
    cost = [abs(a - b) + abs(c - d) for a, b, c, d in zip(x1, x2, y1, y2)]
    return kernel, {"cost": cost, "worst": [max([0] + cost)]}


def gcc(scale: int = 1):
    """Symbol-table hashing with chained buckets (pointer-ish code)."""
    n = 64 * scale
    buckets = 16
    rng = Lcg(131)
    symbols = rng.ints(n, 1, 500)
    kernel = KernelProgram(
        name="gcc",
        arrays=[Array("sym", "int", n, symbols),
                Array("bucket", "int", buckets),
                Array("chain_len", "int", n),
                Array("maxlen", "int", 1)],
        functions=[Function("main", body=[
            Assign("worst", Const(0)),
            For("i", Const(0), Const(n), body=[
                Assign("s", Load("sym", Var("i"))),
                Assign("h", Bin("%", Bin("*", Var("s"), Const(2654435761)), Const(buckets))),
                Assign("depth", Bin("+", Load("bucket", Var("h")), Const(1))),
                Store("bucket", Var("h"), Var("depth")),
                Store("chain_len", Var("i"), Var("depth")),
                If(Cmp(">", Var("depth"), Var("worst")), then=[
                    Assign("worst", Var("depth")),
                ]),
            ]),
            Store("maxlen", Const(0), Var("worst")),
        ])])
    bucket = [0] * buckets
    chain_len = []
    for s in symbols:
        h = (s * 2654435761) % buckets
        bucket[h] += 1
        chain_len.append(bucket[h])
    return kernel, {"bucket": bucket, "chain_len": chain_len,
                    "maxlen": [max(bucket)]}


def perlbmk(scale: int = 1):
    """String hashing and pattern counting (byte loops)."""
    n = 96 * scale
    rng = Lcg(137)
    text = rng.ints(n, 97, 104)          # 'a'..'h'
    needle = [97, 98]                    # "ab"
    kernel = KernelProgram(
        name="perlbmk",
        arrays=[Array("text", "int", n, text),
                Array("hashes", "int", n), Array("hits", "int", 1)],
        functions=[Function("main", body=[
            Assign("h", Const(5381)),
            Assign("count", Const(0)),
            For("i", Const(0), Const(n - 1), body=[
                Assign("c", Load("text", Var("i"))),
                Assign("h", Bin("&", Bin("+", Bin("*", Var("h"), Const(33)), Var("c")),
                                Const(0xFFFFFF))),
                Store("hashes", Var("i"), Var("h")),
                If(Cmp("==", Var("c"), Const(needle[0])), then=[
                    If(Cmp("==", Load("text", Bin("+", Var("i"), Const(1))),
                           Const(needle[1])), then=[
                        Assign("count", Bin("+", Var("count"), Const(1))),
                    ]),
                ]),
            ]),
            Store("hits", Const(0), Var("count")),
        ])])
    hashes, h, count = [], 5381, 0
    for i in range(n - 1):
        c = text[i]
        h = (h * 33 + c) & 0xFFFFFF
        hashes.append(h)
        if c == needle[0] and text[i + 1] == needle[1]:
            count += 1
    return kernel, {"hashes": hashes, "hits": [count]}


# ----------------------------------------------------------------------
# SPEC FP stand-ins
# ----------------------------------------------------------------------

def mgrid(scale: int = 1):
    """Three-point smoothing sweeps (multigrid relaxation, stencil)."""
    n = 64 * scale
    rng = Lcg(139)
    grid0 = rng.floats(n, -1.0, 1.0)
    kernel = KernelProgram(
        name="mgrid",
        arrays=[Array("g", "float", n, grid0), Array("tmp", "float", n)],
        functions=[Function("main", body=[
            For("sweep", Const(0), Const(2), body=[
                For("i", Const(1), Const(n - 1), unroll=4, body=[
                    Store("tmp", Var("i"),
                          Bin("*", Const(0.25),
                              Bin("+", Bin("+", Load("g", Bin("-", Var("i"), Const(1))),
                                           Bin("*", Const(2.0), Load("g", Var("i")))),
                                  Load("g", Bin("+", Var("i"), Const(1)))))),
                ]),
                For("i", Const(1), Const(n - 1), unroll=4, body=[
                    Store("g", Var("i"), Load("tmp", Var("i"))),
                ]),
            ]),
        ])])
    g = list(grid0)
    for __ in range(2):
        tmp = list(g)
        for i in range(1, n - 1):
            tmp[i] = 0.25 * (g[i - 1] + 2.0 * g[i] + g[i + 1])
        g = tmp[:]
        # Reference matches kernel: tmp[0]/tmp[-1] keep stale values; the
        # copy loop writes only 1..n-2, so boundaries stay from grid0.
        g[0], g[-1] = grid0[0], grid0[-1]
    return kernel, {"g": g}


def applu(scale: int = 1):
    """Lower-triangular SOR sweep (loop-carried float recurrence)."""
    n = 64 * scale
    rng = Lcg(149)
    rhs = rng.floats(n, -1.0, 1.0)
    kernel = KernelProgram(
        name="applu",
        arrays=[Array("rhs", "float", n, rhs), Array("u", "float", n)],
        functions=[Function("main", body=[
            Assign("prev", Const(0.0)),
            For("i", Const(0), Const(n), unroll=2, body=[
                Assign("v", Bin("+", Load("rhs", Var("i")),
                                Bin("*", Const(0.5), Var("prev")))),
                Store("u", Var("i"), Var("v")),
                Assign("prev", Var("v")),
            ]),
        ])])
    u, prev = [], 0.0
    for r in rhs:
        v = r + 0.5 * prev
        u.append(v)
        prev = v
    return kernel, {"u": u}


def swim(scale: int = 1):
    """Shallow-water 2-D stencil on a flattened grid."""
    w = 10 * scale
    h = 8 * scale
    rng = Lcg(151)
    p0 = rng.floats(w * h, 0.0, 2.0)
    kernel = KernelProgram(
        name="swim",
        arrays=[Array("p", "float", w * h, p0), Array("pn", "float", w * h)],
        functions=[Function("main", body=[
            For("y", Const(1), Const(h - 1), body=[
                For("x", Const(1), Const(w - 1), unroll=2, body=[
                    Assign("idx", Bin("+", Bin("*", Var("y"), Const(w)), Var("x"))),
                    Store("pn", Var("idx"),
                          Bin("*", Const(0.25),
                              Bin("+",
                                  Bin("+", Load("p", Bin("-", Var("idx"), Const(1))),
                                      Load("p", Bin("+", Var("idx"), Const(1)))),
                                  Bin("+", Load("p", Bin("-", Var("idx"), Const(w))),
                                      Load("p", Bin("+", Var("idx"), Const(w))))))),
                ]),
            ]),
        ])])
    pn = [0.0] * (w * h)
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            idx = y * w + x
            pn[idx] = 0.25 * (p0[idx - 1] + p0[idx + 1] + p0[idx - w] + p0[idx + w])
    return kernel, {"pn": pn}


def art(scale: int = 1):
    """Adaptive-resonance F1 matching: dot products + winner search."""
    patterns = 12 * scale
    dims = 8
    rng = Lcg(157)
    weights = rng.floats(patterns * dims, 0.0, 1.0)
    inp = rng.floats(dims, 0.0, 1.0)
    kernel = KernelProgram(
        name="art",
        arrays=[Array("w", "float", patterns * dims, weights),
                Array("inp", "float", dims, inp),
                Array("act", "float", patterns),
                Array("winner", "int", 1)],
        functions=[Function("main", body=[
            Assign("besti", Const(0)),
            Assign("bestv", Const(-1.0e9)),
            For("p", Const(0), Const(patterns), body=[
                Assign("acc", Const(0.0)),
                For("d", Const(0), Const(dims), unroll=dims, body=[
                    Assign("acc", Bin("+", Var("acc"),
                                      Bin("*", Load("w", Bin("+", Bin("*", Var("p"), Const(dims)),
                                                             Var("d"))),
                                          Load("inp", Var("d"))))),
                ]),
                Store("act", Var("p"), Var("acc")),
                If(Cmp(">", Var("acc"), Var("bestv")), then=[
                    Assign("bestv", Var("acc")),
                    Assign("besti", Var("p")),
                ]),
            ]),
            Store("winner", Const(0), Var("besti")),
        ])])
    act = [sum(weights[p * dims + d] * inp[d] for d in range(dims))
           for p in range(patterns)]
    winner = max(range(patterns), key=lambda p: (act[p], -p))
    return kernel, {"act": act, "winner": [winner]}


def equake(scale: int = 1):
    """Sparse matrix-vector product in CSR form (irregular gather)."""
    rows = 24 * scale
    nnz_per_row = 4
    rng = Lcg(163)
    cols = rng.ints(rows * nnz_per_row, 0, rows - 1)
    vals = rng.floats(rows * nnz_per_row, -1.0, 1.0)
    vec = rng.floats(rows, -1.0, 1.0)
    kernel = KernelProgram(
        name="equake",
        arrays=[Array("cols", "int", rows * nnz_per_row, cols),
                Array("vals", "float", rows * nnz_per_row, vals),
                Array("vec", "float", rows, vec),
                Array("out", "float", rows)],
        functions=[Function("main", body=[
            For("r", Const(0), Const(rows), body=[
                Assign("acc", Const(0.0)),
                Assign("base", Bin("*", Var("r"), Const(nnz_per_row))),
                For("k", Const(0), Const(nnz_per_row), unroll=nnz_per_row, body=[
                    Assign("j", Bin("+", Var("base"), Var("k"))),
                    Assign("acc", Bin("+", Var("acc"),
                                      Bin("*", Load("vals", Var("j")),
                                          Load("vec", Load("cols", Var("j")))))),
                ]),
                Store("out", Var("r"), Var("acc")),
            ]),
        ])])
    out = []
    for r in range(rows):
        acc = 0.0
        for k in range(nnz_per_row):
            j = r * nnz_per_row + k
            acc += vals[j] * vec[cols[j]]
        out.append(acc)
    return kernel, {"out": out}


def ammp(scale: int = 1):
    """Pairwise force magnitudes with a cutoff (molecular dynamics)."""
    atoms = 16 * scale
    rng = Lcg(167)
    xs = rng.floats(atoms, 0.0, 10.0)
    ys = rng.floats(atoms, 0.0, 10.0)
    cutoff_sq = 9.0
    kernel = KernelProgram(
        name="ammp",
        arrays=[Array("x", "float", atoms, xs), Array("y", "float", atoms, ys),
                Array("force", "float", atoms)],
        functions=[Function("main", body=[
            For("i", Const(0), Const(atoms), body=[
                Assign("fi", Const(0.0)),
                Assign("xi", Load("x", Var("i"))),
                Assign("yi", Load("y", Var("i"))),
                For("j", Const(0), Const(atoms), unroll=2, body=[
                    Assign("dx", Bin("-", Var("xi"), Load("x", Var("j")))),
                    Assign("dy", Bin("-", Var("yi"), Load("y", Var("j")))),
                    Assign("r2", Bin("+", Bin("*", Var("dx"), Var("dx")),
                                     Bin("*", Var("dy"), Var("dy")))),
                    If(Cmp("<", Var("r2"), Const(cutoff_sq)), then=[
                        Assign("fi", Bin("+", Var("fi"),
                                         Bin("/", Const(1.0),
                                             Bin("+", Var("r2"), Const(0.5))))),
                    ]),
                ]),
                Store("force", Var("i"), Var("fi")),
            ]),
        ])])
    force = []
    for i in range(atoms):
        fi = 0.0
        for j in range(atoms):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            r2 = dx * dx + dy * dy
            if r2 < cutoff_sq:
                fi += 1.0 / (r2 + 0.5)
        force.append(fi)
    return kernel, {"force": force}


SPEC_INT = {
    "bzip2": bzip2,
    "gzip": gzip,
    "mcf": mcf,
    "parser": parser,
    "twolf": twolf,
    "vpr": vpr,
    "gcc": gcc,
    "perlbmk": perlbmk,
}

SPEC_FP = {
    "mgrid": mgrid,
    "applu": applu,
    "swim": swim,
    "art": art,
    "equake": equake,
    "ammp": ammp,
}
