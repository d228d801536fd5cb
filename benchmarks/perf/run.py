"""The repo's benchmark: five named workloads, measured from outside.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed 0]
        [--seconds 20] [--trace 0|1] [--out FILE] [--quick]
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --regen-expected

(``PYTHONPATH=src python -m benchmarks.perf`` is the same program.)
Each (workload, rep) runs in a fresh child process with fresh store and
trace directories under ``benchmarks/perf/out/``; see README.md.  The
last line printed is one JSON object ``{correct, attempted, failed,
metrics}``: with ``--trace 0`` the end-to-end metrics (medians over at
least three untraced reps), with ``--trace 1`` the per-layer metrics of
one traced rep, with neither both.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

MIN_REPS = 3
#: The driver allows a run 180 s; a hung rep must not eat all of it.
REP_TIMEOUT_S = 90


def _bootstrap() -> None:
    """Started by path: make ``benchmarks.perf`` and ``repro``
    importable, and refuse to run without the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmarks/perf: no program to measure — {SRC}/repro is "
              f"missing (run from a full checkout)", file=sys.stderr)
        sys.exit(2)
    # This directory's ``trace.py`` must not shadow the standard
    # library's when the file is started by path.
    sys.path[:] = [p for p in sys.path if pathlib.Path(p or ".").resolve()
                   != HERE]
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def host_spin_s() -> float:
    """The same 2 M-iteration spin loop as ``calibrate()`` in
    benchmarks/test_perf_smoke.py (kept apart: this directory imports
    nothing outside itself and ``src/``).  Context only, never compared."""
    began = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x ^= i
    return time.perf_counter() - began


# ----------------------------------------------------------------------
# Reps
# ----------------------------------------------------------------------

class Runner:
    """Spawns reps of one benchmark invocation under one scratch dir."""

    def __init__(self, seed: int, quick: bool) -> None:
        from .child import child_env
        from .pool import JOBS

        self.seed = seed
        self.quick = quick
        self.jobs = min(JOBS, os.cpu_count() or 1)
        self.env = child_env()
        OUT_DIR.mkdir(exist_ok=True)
        self.scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-",
                                                     dir=OUT_DIR))
        self._filled = {}

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _filled_store(self, quick: bool) -> pathlib.Path:
        """warm_replay's store, filled once per invocation by the
        canonical cold command (untimed); every rep copies it."""
        if quick not in self._filled:
            from .pool import plan

            target = self.scratch / f"filled-{int(quick)}"
            work = self.scratch / f"fill-{int(quick)}"
            work.mkdir()
            tail = plan("warm_replay", self.seed, quick).chains[0][0][1:]
            done = subprocess.run(
                [sys.executable, "-m", "repro", "fig6", "--jobs",
                 str(self.jobs), "--cache-dir", str(target), *tail],
                env=self.env, cwd=work, capture_output=True, text=True,
                check=False)
            if done.returncode != 0:
                raise RuntimeError(f"store fill failed: {done.stderr[-500:]}")
            self._filled[quick] = target
        return self._filled[quick]

    def rep(self, workload: str, index: int, traced: bool = False,
            quick: bool = None, references: bool = False) -> dict:
        quick = self.quick if quick is None else quick
        work = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                             dir=self.scratch))
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--rep", str(index), "--jobs", str(self.jobs),
               "--work-dir", str(work)]
        if workload == "warm_replay":
            cmd += ["--store-src", str(self._filled_store(quick))]
        for flag, on in (("--quick", quick), ("--traced", traced),
                         ("--references", references)):
            if on:
                cmd.append(flag)
        cmd += ["--t0", repr(time.perf_counter())]
        # A rep is 5-10 s; reference runs (--regen-expected) take minutes.
        done = subprocess.run(cmd, env=self.env, cwd=work, text=True,
                              capture_output=True, check=False,
                              timeout=None if references else REP_TIMEOUT_S)
        report_path = work / "report.json"
        if done.returncode != 0 or not report_path.exists():
            raise RuntimeError(
                f"{workload} rep {index} died (exit {done.returncode}):\n"
                f"{done.stderr[-2000:]}")
        with open(report_path, encoding="utf-8") as source:
            report = json.load(source)
        shutil.rmtree(work, ignore_errors=True)
        return report


def _p66(samples: list) -> float:
    """The 66.7th percentile (nearest rank) when at least ten samples
    lie beyond it, else the median."""
    ordered = sorted(samples)
    index = (2 * len(ordered)) // 3
    if len(ordered) - index - 1 < 10:
        return statistics.median(ordered)
    return ordered[index]


def run_workload(runner: Runner, workload: str, seconds: float,
                 trace) -> dict:
    """All reps of one workload; ``trace`` is 0 (untraced reps only),
    1 (one untraced + one traced), or None (untraced reps + traced)."""
    from . import expected
    from .metrics import END_TO_END, PER_LAYER, WORKLOAD_METRICS

    pins = expected.load(workload)
    floor = 1 if (runner.quick or trace == 1) else MIN_REPS
    reps = []
    began = time.perf_counter()
    while True:
        rep_began = time.perf_counter()
        reps.append(runner.rep(workload, len(reps)))
        now = time.perf_counter()
        if len(reps) >= floor and (
                floor == 1 or now - began + (now - rep_began) > seconds):
            break
    traced = runner.rep(workload, len(reps), traced=True) \
        if trace != 0 else None

    attempted = failed = 0
    mismatches = []
    failures = []
    fidelity = {}
    for report in reps + ([traced] if traced else []):
        verdict = expected.check(report, pins)
        bad = len(verdict["mismatches"])
        attempted += report["attempted"]
        failed += min(report["attempted"], report["failed"] + bad)
        mismatches += verdict["mismatches"]
        failures += report["guards"] + [
            f"{op['op']}: {op['error']}" for op in report["ops"]
            if op["error"]]
        fidelity = verdict["fidelity"]     # exact: same on every rep

    result = {"workload": workload, "seed": runner.seed,
              "quick": runner.quick, "attempted": attempted,
              "failed": failed, "mismatches": sorted(set(mismatches)),
              "failures": failures[:20], "reps": len(reps)}
    result["rep_values"] = {name: [r["end_to_end"][name] for r in reps]
                            for name in END_TO_END}
    result["end_to_end"] = {
        name: statistics.median(values)
        for name, values in result["rep_values"].items()}

    latencies = ([op["seconds"] for r in reps for op in r["ops"]]
                 if workload == "warm_replay" else [])
    specific = dict.fromkeys(WORKLOAD_METRICS, 0.0)
    specific.update(fidelity)
    specific["failed_frac"] = failed / attempted if attempted else 1.0
    specific["result_mismatches"] = len(mismatches)
    if latencies:
        specific["invoke_p50_s"] = statistics.median(latencies)
        specific["invoke_p66_s"] = _p66(latencies)
        result["invoke_samples"] = len(latencies)
    result["workload_metrics"] = specific

    if traced is not None:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(traced["layers"])
        layers["obs.trace_overhead_frac"] = (
            traced["end_to_end"]["wall_s"]
            / result["end_to_end"]["wall_s"] - 1.0)
        result["layers"] = layers
        result["unattributed_s"] = layers["unattributed_s"]
        trace_path = OUT_DIR / f"trace-{workload}.json"
        with open(trace_path, "w", encoding="utf-8") as sink:
            json.dump(traced["trace"], sink)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def print_workload(result: dict, trace) -> dict:
    """Print every metric by name with its unit; returns the contract's
    ``metrics`` object for this workload."""
    from .metrics import unit_of

    shown = {}
    if trace != 1:
        shown.update(result["end_to_end"])
    if trace != 0:
        shown.update(result["workload_metrics"])
        shown.update(result.get("layers", {}))
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['reps']} untraced reps"
          f"{', quick plan' if result['quick'] else ''}) ==")
    for name, value in shown.items():
        print(f"  {name:<28} {value:>16.6f} {unit_of(name)}")
    if "invoke_samples" in result:
        print(f"  (invoke_p50_s/p66_s over n={result['invoke_samples']} "
              f"invocations; p66 falls back to the median below n=30)")
    for line in result["mismatches"][:10]:
        print(f"  MISMATCH {line}")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in shown.items()}


def host_info() -> dict:
    return {"machine": platform.machine(), "system": platform.platform(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "host_spin_s": host_spin_s()}


def main(argv=None) -> int:
    from .metrics import WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring budget per workload: untraced reps "
                             f"repeat while they fit (floor {MIN_REPS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="result JSON (default "
                             "benchmarks/perf/out/result.json)")
    parser.add_argument("--quick", action="store_true",
                        help="the sub-second plans, one rep (tests)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        from .compare import compare_files

        return compare_files(*args.compare)

    runner = Runner(args.seed, args.quick)
    try:
        if args.regen_expected:
            from . import expected

            return expected.regen(
                lambda workload, quick: runner.rep(
                    workload, 0, quick=quick, references=True))

        names = [args.workload] if args.workload else list(WORKLOADS)
        results = {}
        metrics = {}
        for name in names:
            results[name] = run_workload(runner, name, args.seconds,
                                         args.trace)
            shown = print_workload(results[name], args.trace)
            if args.workload:
                metrics = shown
            else:
                metrics.update({f"{name}.{key}": value
                                for key, value in shown.items()})
    finally:
        runner.close()

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and attempted > 0
    out_path = pathlib.Path(args.out) if args.out else OUT_DIR / "result.json"
    with open(out_path, "w", encoding="utf-8") as sink:
        json.dump({"schema": 1, "seed": args.seed, "quick": args.quick,
                   "host": host_info(), "workloads": results}, sink, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    _bootstrap()
    from benchmarks.perf import run as _self

    sys.exit(_self.main())
