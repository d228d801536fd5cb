"""The 26-benchmark suite (paper Table 1).

The paper evaluates 12 hand-optimized programs (3 kernels, 7 EEMBC, 2
Versabench) and 14 compiled SPEC CPU programs.  Those binaries require
the proprietary TRIPS toolchain; this package substitutes DSL kernels
*matched in character* — the hand-optimized set is high-ILP, unrolled,
dataflow-dense; the SPEC set is branchy, pointer/table-driven, or
memory-bound — under the paper's benchmark names.  Every kernel has a
Python reference implementation used to verify simulator output.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Benchmark": "suite",
    "BENCHMARKS": "suite",
    "hand_optimized": "suite",
    "spec_fp": "suite",
    "spec_int": "suite",
    "compiled_suite": "suite",
    "verify_edge_run": "suite",
    "read_array_values": "suite",
})
