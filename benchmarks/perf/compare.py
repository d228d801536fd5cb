"""``--compare A.json B.json``: is B worse than A, per workload row?

Applies each metric's bound to the medians.  A host-time metric whose
rep-to-rep spread (quartile distance over the reps, as a share of the
median) exceeds the bound while the two runs' rep ranges overlap is
``unresolved``, not ``ok``; exact simulated metrics are compared for
equality.  Every ratio is printed with its base (A).  Exit 1 on any
``regressed`` row.
"""

from __future__ import annotations

import json
import statistics

from .metrics import END_TO_END, WORKLOAD_METRICS


def _spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def _host_verdict(name: str, a: dict, b: dict) -> tuple:
    unit, better, bound = END_TO_END[name]
    base, new = a["end_to_end"][name], b["end_to_end"][name]
    reps_a, reps_b = a["rep_values"][name], b["rep_values"][name]
    ratio = new / base if base else float("inf")
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spread = max(_spread(reps_a), _spread(reps_b))
    overlap = min(reps_a) <= max(reps_b) and min(reps_b) <= max(reps_a)
    if spread > bound and overlap:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return verdict, (f"{new:.6g} {unit} vs base {base:.6g} {unit} "
                     f"(x{ratio:.4f}, bound {bound:.0%}, "
                     f"spread {spread:.1%})")


def _exact_verdict(name: str, a: dict, b: dict) -> tuple:
    unit, better, bound, kind = WORKLOAD_METRICS[name]
    base = a["workload_metrics"][name]
    new = b["workload_metrics"][name]
    worse = new - base if better == "lower" else base - new
    if kind == "exact":
        bad = abs(new - base) > 1e-9 * max(1.0, abs(base))
    elif kind == "abs":
        bad = worse > bound
    else:
        bad = base > 0 and worse / base > bound
    ratio = f"x{new / base:.4f}" if base else "base 0"
    return ("regressed" if bad else "ok",
            f"{new:.6g} {unit} vs base {base:.6g} {unit} ({ratio}, "
            f"{kind} bound {bound:g})")


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as source:
        a = json.load(source)
    with open(path_b, encoding="utf-8") as source:
        b = json.load(source)
    if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
        print(f"note: runs differ in plan (seed {a['seed']} vs {b['seed']}, "
              f"quick {a['quick']} vs {b['quick']}); exact metrics "
              f"compare only at equal plans")
    regressed = 0
    for workload, row_a in a["workloads"].items():
        row_b = b["workloads"].get(workload)
        if row_b is None:
            print(f"{workload}: missing from {path_b}")
            regressed += 1
            continue
        print(f"== {workload} ==")
        rows = [(name, _host_verdict(name, row_a, row_b))
                for name in END_TO_END]
        rows += [(name, _exact_verdict(name, row_a, row_b))
                 for name in WORKLOAD_METRICS]
        for name, (verdict, detail) in rows:
            print(f"  {verdict:<10} {name:<24} {detail}")
            regressed += verdict == "regressed"
    print(f"{regressed} regressed")
    return 1 if regressed else 0
