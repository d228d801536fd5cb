"""Pinned outputs: what every spec in the seed pool must produce.

``expected/<workload>.json`` holds, keyed by ``spec_hash``, the sha256
of the canonical result payload plus cycles/insts/blocks, the
full-detail reference cycles of every sampled spec, the exhaustive BEST
argmax per (bench, objective), and the sha256 of each warm CLI
command's output.  Only ``--regen-expected`` writes these files.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess

from .metrics import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
ROOT = HERE.parents[1]


def variant(quick: bool) -> str:
    return "quick" if quick else "full"


def load(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return {"specs": {}, "best": {}, "stdout": {}}
    with open(path, encoding="utf-8") as source:
        return json.load(source)


def check(report: dict, pins: dict) -> dict:
    """Compare one rep's report with the pins.

    Returns ``mismatches`` (result keys and CLI ops whose output is not
    the pinned one, or has no pin) and the exact fidelity metrics that
    need the pinned references.
    """
    mismatches = []
    errors = []
    for key, result in sorted(report["results"].items()):
        pin = pins["specs"].get(key)
        if pin is None or pin["digest"] != result["digest"]:
            mismatches.append(f"{result['bench']}/{result['label']}"
                              f"@{result['scale']}")
        elif result["sampled"] and result["simulated"]:
            errors.append(abs(result["cycles"] - pin["ref_cycles"])
                          / pin["ref_cycles"])
    outputs = pins["stdout"].get(variant(report["quick"]), {})
    for op in report["ops"]:
        if "stdout_sha256" in op and not op["error"] and (
                outputs.get(op["op"]) != op["stdout_sha256"]):
            mismatches.append(f"stdout of repro {op['op']}")

    fidelity = {"sampled_err_pct": 0.0, "best_agree_frac": 0.0,
                "detail_job_reduction_x": 0.0,
                "paper_gap_pct": report["extra"].get("paper_gap_pct", 0.0)}
    if errors:
        fidelity["sampled_err_pct"] = 100.0 * math.exp(
            sum(math.log(max(e, 1e-12)) for e in errors) / len(errors))
    found = report["extra"].get("best")
    if found:
        pinned = pins["best"].get(variant(report["quick"]), {})
        pairs = [(objective, bench) for objective, per_bench in found.items()
                 for bench in per_bench]
        agree = sum(1 for objective, bench in pairs
                    if pinned.get(objective, {}).get(bench)
                    == found[objective][bench])
        fidelity["best_agree_frac"] = agree / len(pairs)
        fidelity["detail_job_reduction_x"] = (
            report["extra"]["exhaustive_detailed_jobs"]
            / report["extra"]["detailed_jobs"])
    return {"mismatches": mismatches, "fidelity": fidelity}


# ----------------------------------------------------------------------
# --regen-expected
# ----------------------------------------------------------------------

def _src_is_clean() -> tuple[bool, str]:
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        return False, f"cannot ask git whether src/ is clean: {exc}"
    if status.strip():
        return False, "src/ has uncommitted changes:\n" + status
    return True, ""


def pins_from(reports: dict) -> dict:
    """Pins for one workload from its ``{variant: report}`` regen reps
    (each run with ``--references``)."""
    pins = {"specs": {}, "best": {}, "stdout": {}}
    for name, report in reports.items():
        refs = report["references"]
        for key, result in report["results"].items():
            pin = {field: result[field]
                   for field in ("bench", "label", "scale", "digest",
                                 "cycles", "insts", "blocks")}
            if key in refs["ref_cycles"]:
                pin["ref_cycles"] = refs["ref_cycles"][key]
            pins["specs"][key] = pin
        if refs["best"]:
            pins["best"][name] = refs["best"]
        outputs = {op["op"]: op["stdout_sha256"] for op in report["ops"]
                   if "stdout_sha256" in op}
        if outputs:
            pins["stdout"][name] = outputs
    return pins


def diff_summary(workload: str, old: dict, new: dict) -> list[str]:
    lines = []
    old_specs, new_specs = old["specs"], new["specs"]
    added = sorted(set(new_specs) - set(old_specs))
    removed = sorted(set(old_specs) - set(new_specs))
    changed = [k for k in sorted(set(old_specs) & set(new_specs))
               if old_specs[k] != new_specs[k]]
    lines.append(f"{workload}: {len(new_specs)} specs pinned "
                 f"(+{len(added)} -{len(removed)} ~{len(changed)})")
    for key in changed:
        a, b = old_specs[key], new_specs[key]
        lines.append(f"  ~ {b['bench']}/{b['label']}@{b['scale']}: cycles "
                     f"{a['cycles']} -> {b['cycles']}, insts {a['insts']} "
                     f"-> {b['insts']}, ref {a.get('ref_cycles')} -> "
                     f"{b.get('ref_cycles')}")
    for section in ("best", "stdout"):
        if old.get(section) != new.get(section):
            lines.append(f"  ~ {section}: {json.dumps(old.get(section))} -> "
                         f"{json.dumps(new.get(section))}")
    return lines


def regen(run_regen_rep) -> int:
    """Rewrite every ``expected/*.json``; ``run_regen_rep(workload,
    quick)`` runs one untimed rep with references and returns its
    report."""
    clean, why = _src_is_clean()
    if not clean:
        print(f"--regen-expected refused: {why}")
        return 2
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        reports = {variant(quick): run_regen_rep(workload, quick)
                   for quick in (False, True)}
        bad = [r for r in reports.values() if r["failed"] or r["guards"]]
        if bad:
            print(f"{workload}: regen rep failed: "
                  f"{bad[0]['guards'] or bad[0]['ops']}")
            return 1
        old = load(workload)
        new = pins_from(reports)
        for line in diff_summary(workload, old, new):
            print(line)
        with open(EXPECTED_DIR / f"{workload}.json", "w",
                  encoding="utf-8") as sink:
            json.dump(new, sink, indent=1, sort_keys=True)
            sink.write("\n")
    return 0
