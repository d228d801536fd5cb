"""Weighted-speedup maximizing core allocation (paper section 7).

The paper's methodology: per-benchmark cores→performance functions are
measured once (figure 6), then an optimal dynamic-programming algorithm
assigns cores to the threads of a multiprogrammed workload to maximize
weighted speedup.  Comparators: fixed-granularity CMPs (every processor
k cores, CMP-k) and the hypothetical symmetric "variable best" CMP
(granularity chosen per workload but equal for all threads).

Weighted speedup follows Snavely & Tullsen: each thread contributes its
multiprogrammed performance relative to running *alone* (here: alone at
its best composition on the chip); a workload of m threads has WS <= m.
When a workload exceeds a fixed CMP's processor count, WS stays
constant, the paper's assumption for oversubscribed fixed machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence


#: The chip every allocation divides: the paper's 32-core TFlex array.
CHIP_CORES = 32

#: Composition sizes a thread may receive.
ALLOWED_SIZES = (1, 2, 4, 8, 16, 32)


@dataclass
class SpeedupTable:
    """Per-benchmark performance as a function of composition size.

    ``perf[bench][k]`` is a performance value (e.g. 1/cycles) for
    benchmark ``bench`` on ``k`` cores.
    """

    perf: dict[str, dict[int, float]]

    def performance(self, bench: str, cores: int) -> float:
        try:
            return self.perf[bench][cores]
        except KeyError:
            raise KeyError(f"no measurement for {bench!r} at {cores} cores") from None

    def alone(self, bench: str) -> float:
        """Best performance the benchmark achieves with the chip to itself."""
        return max(self.perf[bench].values())


def weighted_speedup(apps: Sequence[str], sizes: Sequence[int],
                     table: SpeedupTable) -> float:
    """WS of an assignment: sum of per-thread relative performance."""
    if len(apps) != len(sizes):
        raise ValueError("one size per app required")
    return sum(
        table.performance(app, k) / table.alone(app)
        for app, k in zip(apps, sizes)
    )


def optimal_assignment(apps: Sequence[str], table: SpeedupTable,
                       allowed: Sequence[int] = ALLOWED_SIZES,
                       ) -> tuple[float, list[int]]:
    """Maximize WS by dynamic programming over the chip's cores.

    Returns ``(ws, sizes)``.  Every thread receives at least the
    smallest allowed size; raises if the workload cannot fit.
    """
    allowed = sorted(set(allowed))
    if len(apps) * allowed[0] > CHIP_CORES:
        raise ValueError(
            f"{len(apps)} threads cannot fit in {CHIP_CORES} cores "
            f"at minimum size {allowed[0]}")

    # dp[c] = (ws, sizes) best over the first i apps using exactly <= c cores.
    NEG = float("-inf")
    dp: list[tuple[float, list[int]]] = [(0.0, [])] + [(NEG, [])] * CHIP_CORES
    for app in apps:
        new: list[tuple[float, list[int]]] = [(NEG, [])] * (CHIP_CORES + 1)
        for used in range(CHIP_CORES + 1):
            ws, sizes = dp[used]
            if ws == NEG:
                continue
            for k in allowed:
                if used + k > CHIP_CORES:
                    break
                gain = table.performance(app, k) / table.alone(app)
                candidate = ws + gain
                if candidate > new[used + k][0]:
                    new[used + k] = (candidate, sizes + [k])
        dp = new
    best = max(dp, key=lambda entry: entry[0])
    if best[0] == NEG:
        raise ValueError("no feasible assignment")
    return best


def brute_force_assignment(apps: Sequence[str], table: SpeedupTable,
                           allowed: Sequence[int] = ALLOWED_SIZES,
                           ) -> tuple[float, list[int]]:
    """Exhaustive reference for testing the DP (exponential; small inputs)."""
    best_ws, best_sizes = float("-inf"), None
    for sizes in product(sorted(set(allowed)), repeat=len(apps)):
        if sum(sizes) > CHIP_CORES:
            continue
        ws = weighted_speedup(apps, sizes, table)
        if ws > best_ws:
            best_ws, best_sizes = ws, list(sizes)
    if best_sizes is None:
        raise ValueError("no feasible assignment")
    return best_ws, best_sizes


def fixed_cmp_assignment(apps: Sequence[str], table: SpeedupTable,
                         granularity: int) -> tuple[float, list[int]]:
    """WS on a fixed CMP of ``CHIP_CORES/granularity`` processors, each
    of ``granularity`` cores.

    With more threads than processors, WS stays constant (paper
    assumption): only the first ``processors`` threads contribute.
    """
    processors = CHIP_CORES // granularity
    if processors < 1:
        raise ValueError(f"granularity {granularity} exceeds {CHIP_CORES} cores")
    scheduled = list(apps[:processors])
    sizes = [granularity] * len(scheduled)
    return weighted_speedup(scheduled, sizes, table), sizes


def symmetric_best_assignment(apps: Sequence[str], table: SpeedupTable,
                              allowed: Sequence[int] = ALLOWED_SIZES,
                              ) -> tuple[float, list[int]]:
    """The hypothetical VB CMP: granularity variable per workload, but
    every processor equal-sized.  Picks the best granularity."""
    best = (float("-inf"), [])
    for granularity in sorted(set(allowed)):
        if granularity > CHIP_CORES:
            continue
        ws, sizes = fixed_cmp_assignment(apps, table, granularity)
        if ws > best[0]:
            best = (ws, sizes)
    return best
