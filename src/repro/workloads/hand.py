"""The 12 hand-optimized benchmarks (3 kernels, 7 EEMBC, 2 Versabench).

High-ILP, aggressively unrolled kernels, as the paper's hand-optimized
programs were scheduled by hand for the TRIPS substrate.  Each factory
returns ``(KernelProgram, expected)`` where ``expected`` maps output
array names to reference values computed in Python.
"""

from __future__ import annotations

from repro.compiler import (
    Array, Assign, Bin, Cmp, Const, For, Function, If, ItoF, KernelProgram,
    Load, Store, Un, Var,
)
from repro.util import wrap64
from repro.workloads.data import Lcg


def conv(scale: int = 1):
    """1-D convolution with an 8-tap filter (kernel; high ILP)."""
    n = 64 * scale
    taps = 8
    rng = Lcg(11)
    xs = rng.ints(n + taps, -30, 30)
    hs = rng.ints(taps, -4, 4)
    kernel = KernelProgram(
        name="conv",
        arrays=[Array("x", "int", n + taps, xs), Array("h", "int", taps, hs),
                Array("y", "int", n)],
        functions=[Function("main", body=[
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("acc", Const(0)),
                For("k", Const(0), Const(taps), unroll=taps, body=[
                    Assign("acc", Bin("+", Var("acc"),
                                      Bin("*", Load("x", Bin("+", Var("i"), Var("k"))),
                                          Load("h", Var("k"))))),
                ]),
                Store("y", Var("i"), Var("acc")),
            ]),
        ])])
    expected = {"y": [sum(xs[i + k] * hs[k] for k in range(taps)) for i in range(n)]}
    return kernel, expected


def ct(scale: int = 1):
    """Blocked 4-point butterfly transform (kernel; float, high ILP)."""
    blocks = 16 * scale
    n = blocks * 4
    rng = Lcg(23)
    xs = rng.floats(n, -2.0, 2.0)
    kernel = KernelProgram(
        name="ct",
        arrays=[Array("x", "float", n, xs), Array("y", "float", n)],
        functions=[Function("main", body=[
            For("b", Const(0), Const(blocks), unroll=2, body=[
                Assign("base", Bin("*", Var("b"), Const(4))),
                Assign("a0", Load("x", Var("base"))),
                Assign("a1", Load("x", Bin("+", Var("base"), Const(1)))),
                Assign("a2", Load("x", Bin("+", Var("base"), Const(2)))),
                Assign("a3", Load("x", Bin("+", Var("base"), Const(3)))),
                Assign("s0", Bin("+", Var("a0"), Var("a2"))),
                Assign("s1", Bin("-", Var("a0"), Var("a2"))),
                Assign("s2", Bin("+", Var("a1"), Var("a3"))),
                Assign("s3", Bin("-", Var("a1"), Var("a3"))),
                Store("y", Var("base"), Bin("+", Var("s0"), Var("s2"))),
                Store("y", Bin("+", Var("base"), Const(1)), Bin("+", Var("s1"), Var("s3"))),
                Store("y", Bin("+", Var("base"), Const(2)), Bin("-", Var("s0"), Var("s2"))),
                Store("y", Bin("+", Var("base"), Const(3)), Bin("-", Var("s1"), Var("s3"))),
            ]),
        ])])
    out = []
    for b in range(blocks):
        a0, a1, a2, a3 = xs[4 * b:4 * b + 4]
        s0, s1, s2, s3 = a0 + a2, a0 - a2, a1 + a3, a1 - a3
        out += [s0 + s2, s1 + s3, s0 - s2, s1 - s3]
    return kernel, {"y": out}


def genalg(scale: int = 1):
    """Genetic-algorithm fitness + tournament selection step (kernel)."""
    pop = 32 * scale
    genes = 4
    rng = Lcg(37)
    chrom = rng.ints(pop * genes, 0, 15)
    weights = rng.ints(genes, 1, 5)
    kernel = KernelProgram(
        name="genalg",
        arrays=[Array("chrom", "int", pop * genes, chrom),
                Array("w", "int", genes, weights),
                Array("fit", "int", pop),
                Array("best", "int", 2)],
        functions=[Function("main", body=[
            Assign("bestf", Const(-1)),
            Assign("besti", Const(0)),
            For("p", Const(0), Const(pop), unroll=2, body=[
                Assign("f", Const(0)),
                For("g", Const(0), Const(genes), unroll=genes, body=[
                    Assign("f", Bin("+", Var("f"),
                                    Bin("*", Load("chrom",
                                                  Bin("+", Bin("*", Var("p"), Const(genes)),
                                                      Var("g"))),
                                        Load("w", Var("g"))))),
                ]),
                Store("fit", Var("p"), Var("f")),
                If(Cmp(">", Var("f"), Var("bestf")), then=[
                    Assign("bestf", Var("f")),
                    Assign("besti", Var("p")),
                ]),
            ]),
            Store("best", Const(0), Var("bestf")),
            Store("best", Const(1), Var("besti")),
        ])])
    fit = [sum(chrom[p * genes + g] * weights[g] for g in range(genes))
           for p in range(pop)]
    besti = max(range(pop), key=lambda p: (fit[p], -p))
    return kernel, {"fit": fit, "best": [fit[besti], besti]}


def a2time(scale: int = 1):
    """EEMBC automotive angle-to-time: division-heavy with clamping."""
    n = 48 * scale
    rng = Lcg(41)
    angles = rng.ints(n, 1, 3599)
    rpm = rng.ints(n, 600, 6000)
    kernel = KernelProgram(
        name="a2time",
        arrays=[Array("angle", "int", n, angles), Array("rpm", "int", n, rpm),
                Array("tim", "int", n)],
        functions=[Function("main", body=[
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("a", Load("angle", Var("i"))),
                Assign("r", Load("rpm", Var("i"))),
                # time = angle * 60_000_00 / (rpm * 3600), clamped.
                Assign("t", Bin("/", Bin("*", Var("a"), Const(6_000_000)),
                                Bin("*", Var("r"), Const(3600)))),
                If(Cmp(">", Var("t"), Const(500)), then=[
                    Assign("t", Const(500)),
                ]),
                Store("tim", Var("i"), Var("t")),
            ]),
        ])])
    expected = {"tim": [min(500, (a * 6_000_000) // (r * 3600))
                        for a, r in zip(angles, rpm)]}
    return kernel, expected


def autocor(scale: int = 1):
    """EEMBC autocorrelation (high ILP reduction)."""
    n = 64 * scale
    lags = 8
    rng = Lcg(53)
    xs = rng.ints(n + lags, -20, 20)
    kernel = KernelProgram(
        name="autocor",
        arrays=[Array("x", "int", n + lags, xs), Array("r", "int", lags)],
        functions=[Function("main", body=[
            For("lag", Const(0), Const(lags), body=[
                Assign("acc", Const(0)),
                For("i", Const(0), Const(n), unroll=8, body=[
                    Assign("acc", Bin("+", Var("acc"),
                                      Bin("*", Load("x", Var("i")),
                                          Load("x", Bin("+", Var("i"), Var("lag")))))),
                ]),
                Store("r", Var("lag"), Var("acc")),
            ]),
        ])])
    expected = {"r": [sum(xs[i] * xs[i + lag] for i in range(n))
                      for lag in range(lags)]}
    return kernel, expected


def basefp(scale: int = 1):
    """EEMBC basic floating point: Horner polynomial over an array."""
    n = 64 * scale
    rng = Lcg(59)
    xs = rng.floats(n, -1.5, 1.5)
    coeffs = [0.5, -1.25, 0.75, 2.0, -0.3]
    kernel = KernelProgram(
        name="basefp",
        arrays=[Array("x", "float", n, xs), Array("y", "float", n)],
        functions=[Function("main", body=[
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("v", Load("x", Var("i"))),
                Assign("acc", Const(coeffs[0])),
                Assign("acc", Bin("+", Bin("*", Var("acc"), Var("v")), Const(coeffs[1]))),
                Assign("acc", Bin("+", Bin("*", Var("acc"), Var("v")), Const(coeffs[2]))),
                Assign("acc", Bin("+", Bin("*", Var("acc"), Var("v")), Const(coeffs[3]))),
                Assign("acc", Bin("+", Bin("*", Var("acc"), Var("v")), Const(coeffs[4]))),
                Store("y", Var("i"), Var("acc")),
            ]),
        ])])

    def horner(v: float) -> float:
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = acc * v + c
        return acc

    return kernel, {"y": [horner(v) for v in xs]}


def bezier(scale: int = 1):
    """EEMBC cubic Bezier evaluation at n parameter samples (float)."""
    n = 48 * scale
    p0, p1, p2, p3 = 0.0, 1.5, -0.5, 2.0
    kernel = KernelProgram(
        name="bezier",
        arrays=[Array("y", "float", n)],
        functions=[Function("main", body=[
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("t", Bin("/", ItoF(Var("i")), Const(float(n)))),
                Assign("u", Bin("-", Const(1.0), Var("t"))),
                Assign("uu", Bin("*", Var("u"), Var("u"))),
                Assign("tt", Bin("*", Var("t"), Var("t"))),
                Assign("b0", Bin("*", Var("uu"), Var("u"))),
                Assign("b1", Bin("*", Bin("*", Const(3.0), Var("uu")), Var("t"))),
                Assign("b2", Bin("*", Bin("*", Const(3.0), Var("u")), Var("tt"))),
                Assign("b3", Bin("*", Var("tt"), Var("t"))),
                Store("y", Var("i"),
                      Bin("+",
                          Bin("+", Bin("*", Var("b0"), Const(p0)),
                              Bin("*", Var("b1"), Const(p1))),
                          Bin("+", Bin("*", Var("b2"), Const(p2)),
                              Bin("*", Var("b3"), Const(p3))))),
            ]),
        ])])
    out = []
    for i in range(n):
        t = i / float(n)
        u = 1.0 - t
        out.append((u * u * u) * p0 + 3 * u * u * t * p1
                   + 3 * u * t * t * p2 + t * t * t * p3)
    return kernel, {"y": out}


def dither(scale: int = 1):
    """EEMBC dithering: threshold with error diffusion (loop-carried)."""
    n = 96 * scale
    rng = Lcg(61)
    pixels = rng.ints(n, 0, 255)
    kernel = KernelProgram(
        name="dither",
        arrays=[Array("pix", "int", n, pixels), Array("out", "int", n)],
        functions=[Function("main", body=[
            Assign("err", Const(0)),
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("v", Bin("+", Load("pix", Var("i")), Var("err"))),
                Assign("o", Const(0)),
                If(Cmp(">=", Var("v"), Const(128)), then=[
                    Assign("o", Const(255)),
                ]),
                Assign("err", Bin("-", Var("v"), Var("o"))),
                Store("out", Var("i"), Var("o")),
            ]),
        ])])
    out, err = [], 0
    for p in pixels:
        v = p + err
        o = 255 if v >= 128 else 0
        err = v - o
        out.append(o)
    return kernel, {"out": out}


def rspeed(scale: int = 1):
    """EEMBC road speed: pulse-interval to speed with hysteresis."""
    n = 48 * scale
    rng = Lcg(67)
    intervals = rng.ints(n, 50, 4000)
    kernel = KernelProgram(
        name="rspeed",
        arrays=[Array("pulse", "int", n, intervals), Array("speed", "int", n)],
        functions=[Function("main", body=[
            Assign("prev", Const(0)),
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("p", Load("pulse", Var("i"))),
                Assign("s", Bin("/", Const(360_000), Var("p"))),
                # Hysteresis: ignore changes of less than 3 units.
                Assign("d", Un("abs", Bin("-", Var("s"), Var("prev")))),
                If(Cmp("<", Var("d"), Const(3)), then=[
                    Assign("s", Var("prev")),
                ]),
                Assign("prev", Var("s")),
                Store("speed", Var("i"), Var("s")),
            ]),
        ])])
    out, prev = [], 0
    for p in intervals:
        s = 360_000 // p
        if abs(s - prev) < 3:
            s = prev
        prev = s
        out.append(s)
    return kernel, {"speed": out}


def tblook(scale: int = 1):
    """EEMBC table lookup with linear interpolation (gather)."""
    n = 48 * scale
    table_size = 17
    rng = Lcg(71)
    table = sorted(rng.ints(table_size, 0, 1000))
    queries = rng.ints(n, 0, 15 * 64 - 1)
    kernel = KernelProgram(
        name="tblook",
        arrays=[Array("tab", "int", table_size, table),
                Array("q", "int", n, queries),
                Array("out", "int", n)],
        functions=[Function("main", body=[
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("x", Load("q", Var("i"))),
                Assign("idx", Bin(">>", Var("x"), Const(6))),
                Assign("frac", Bin("&", Var("x"), Const(63))),
                Assign("lo", Load("tab", Var("idx"))),
                Assign("hi", Load("tab", Bin("+", Var("idx"), Const(1)))),
                Store("out", Var("i"),
                      Bin("+", Var("lo"),
                          Bin(">>", Bin("*", Bin("-", Var("hi"), Var("lo")),
                                        Var("frac")), Const(6)))),
            ]),
        ])])
    out = []
    for x in queries:
        idx, frac = x >> 6, x & 63
        lo, hi = table[idx], table[idx + 1]
        value = lo + (((hi - lo) * frac) >> 6)
        out.append(wrap64(value))
    return kernel, {"out": out}


def b802_11b(scale: int = 1):
    """Versabench 802.11b scrambler (bit-serial LFSR over words)."""
    n = 64 * scale
    rng = Lcg(73)
    data = rng.ints(n, 0, 255)
    kernel = KernelProgram(
        name="802.11b",
        arrays=[Array("inp", "int", n, data), Array("out", "int", n),
                Array("state_out", "int", 1)],
        functions=[Function("main", body=[
            Assign("state", Const(0x5B)),
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("b", Load("inp", Var("i"))),
                # Scrambler feedback: x^7 + x^4 + 1 approximated per byte.
                Assign("fb", Bin("^", Bin(">>", Var("state"), Const(3)),
                                 Bin(">>", Var("state"), Const(6)))),
                Assign("state", Bin("&", Bin("|", Bin("<<", Var("state"), Const(1)),
                                             Bin("&", Var("fb"), Const(1))),
                                    Const(0x7F))),
                Store("out", Var("i"), Bin("^", Var("b"), Var("state"))),
            ]),
            Store("state_out", Const(0), Var("state")),
        ])])
    out, state = [], 0x5B
    for b in data:
        fb = (state >> 3) ^ (state >> 6)
        state = ((state << 1) | (fb & 1)) & 0x7F
        out.append(b ^ state)
    return kernel, {"out": out, "state_out": [state]}


def b8b10b(scale: int = 1):
    """Versabench 8b/10b encoder: table lookup + running disparity."""
    n = 64 * scale
    rng = Lcg(79)
    data = rng.ints(n, 0, 31)
    # 5b/6b code table (simplified): value -> (code, disparity).
    codes = [(v * 2 + 1) & 0x3F for v in range(32)]
    disp = [(bin(c).count("1") * 2 - 6) for c in codes]
    kernel = KernelProgram(
        name="8b10b",
        arrays=[Array("inp", "int", n, data),
                Array("codes", "int", 32, codes),
                Array("disp", "int", 32, disp),
                Array("out", "int", n),
                Array("rd_out", "int", 1)],
        functions=[Function("main", body=[
            Assign("rd", Const(-1)),
            For("i", Const(0), Const(n), unroll=4, body=[
                Assign("v", Load("inp", Var("i"))),
                Assign("c", Load("codes", Var("v"))),
                Assign("d", Load("disp", Var("v"))),
                # Invert the code when the running disparity and the
                # code's disparity have the same sign.
                If(Cmp(">", Bin("*", Var("rd"), Var("d")), Const(0)), then=[
                    Assign("c", Bin("&", Un("~", Var("c")), Const(0x3F))),
                    Assign("d", Un("-", Var("d"))),
                ]),
                If(Cmp("!=", Var("d"), Const(0)), then=[
                    Assign("rd", Var("d")),
                ]),
                Store("out", Var("i"), Var("c")),
            ]),
            Store("rd_out", Const(0), Var("rd")),
        ])])
    out, rd = [], -1
    for v in data:
        c, d = codes[v], disp[v]
        if rd * d > 0:
            c = (~c) & 0x3F
            d = -d
        if d != 0:
            rd = d
        out.append(c)
    return kernel, {"out": out, "rd_out": [rd]}


HAND_OPTIMIZED = {
    "conv": conv,
    "ct": ct,
    "genalg": genalg,
    "a2time": a2time,
    "autocor": autocor,
    "basefp": basefp,
    "bezier": bezier,
    "dither": dither,
    "rspeed": rspeed,
    "tblook": tblook,
    "802.11b": b802_11b,
    "8b10b": b8b10b,
}
