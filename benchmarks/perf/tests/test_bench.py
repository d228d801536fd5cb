"""The benchmark's own checks, on the sub-second ``--quick`` plans.

Run explicitly (not part of tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/perf/tests/test_bench.py
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.perf import metrics, trace

ROOT = pathlib.Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "perf" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Counts that depend on which pool worker a job lands on (each worker
#: builds a program the first time it sees it), so they are exact only
#: on the in-process workloads.
SCHEDULING_DEPENDENT = {"workloads.builds"}
POOLED = {"fig6_pool_cold", "search_halving"}


def bench(*args, env=None):
    done = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, env=env,
                          check=False)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    runs = []
    for name in ("a", "b"):
        path = out / f"{name}.json"
        stdout = bench("--quick", "--seed", "0", "--out", str(path))
        with open(path, encoding="utf-8") as source:
            runs.append((json.load(source), stdout))
    return runs


def test_benchmark_json_is_generated_from_the_tables():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as source:
        declared = json.load(source)
    assert declared == metrics.benchmark_json()
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in declared["end_to_end"])
    assert max(m["bound"] for m in declared["end_to_end"]) <= 0.25
    assert len(declared["per_layer"]) <= 128


def test_every_declared_metric_is_printed_with_its_unit(quick_runs):
    result, stdout = quick_runs[0]
    assert set(result["workloads"]) == set(metrics.WORKLOADS)
    for workload, row in result["workloads"].items():
        assert row["failed"] == 0 and not row["mismatches"], row
        assert set(row["end_to_end"]) == set(metrics.END_TO_END)
        assert all(value > 0 for value in row["end_to_end"].values()), row
        assert set(row["workload_metrics"]) == set(metrics.WORKLOAD_METRICS)
        assert set(row["layers"]) == set(metrics.PER_LAYER)
    final = json.loads(stdout.strip().splitlines()[-1])
    assert final["correct"] is True and final["failed"] == 0
    for workload in metrics.WORKLOADS:
        for name in (*metrics.END_TO_END, *metrics.WORKLOAD_METRICS,
                     *metrics.PER_LAYER):
            entry = final["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == metrics.unit_of(name)
            assert re.search(rf"^  {re.escape(name)}\s+\S+ "
                             rf"{re.escape(entry['unit'])}$", stdout, re.M)


@pytest.mark.parametrize("flag,table", [
    ("0", metrics.END_TO_END),
    ("1", {**metrics.WORKLOAD_METRICS, **metrics.PER_LAYER}),
])
def test_contract_line_has_exactly_the_declared_metrics(flag, table):
    stdout = bench("--workload", "detail_serial", "--seed", "3", "--seconds",
                   "1", "--trace", flag, "--quick")
    final = json.loads(stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["attempted"] >= 1
    assert set(final["metrics"]) == set(table)
    for name, entry in final["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metrics.unit_of(name)


def test_counts_repeat_exactly(quick_runs):
    (first, _), (second, _) = quick_runs
    exact_units = ("count", "B")
    for workload in metrics.WORKLOADS:
        a, b = first["workloads"][workload], second["workloads"][workload]
        assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
        for name, (unit, _) in metrics.PER_LAYER.items():
            if unit not in exact_units or (
                    name in SCHEDULING_DEPENDENT and workload in POOLED):
                continue
            assert a["layers"][name] == b["layers"][name], (workload, name)
        for name, (_, _, _, kind) in metrics.WORKLOAD_METRICS.items():
            if kind != "rel":
                assert (a["workload_metrics"][name]
                        == b["workload_metrics"][name]), (workload, name)


def test_spans_resolve_and_the_ledger_sums_to_the_wall(quick_runs):
    result, _ = quick_runs[-1]
    for workload, row in result["workloads"].items():
        with open(ROOT / row["trace_file"], encoding="utf-8") as source:
            spans = json.load(source)["spans"]
        ids = {span["id"] for span in spans}
        assert len(ids) == len(spans)
        for span in spans:
            assert span["parent"] is None or span["parent"] in ids, span
            assert span["end"] >= span["start"], span
            assert span["workload"] == workload
        for entry in trace.self_times(spans, "bench.timed_region"):
            assert entry["self"] >= 0.0 and 0.0 < entry["weight"] <= 1.0
        layers = row["layers"]
        charged = sum(layers[f"self.{layer}_s"]
                      for layer in metrics.LAYERS) + layers["unattributed_s"]
        assert charged == pytest.approx(layers["traced_wall_s"], rel=0.01)
    assert result["workloads"]["warm_replay"]["layers"]["tflex.events"] == 0


def test_explicit_dirs_defeat_the_pytest_cache_redirection(tmp_path):
    assert "PYTEST_CURRENT_TEST" in os.environ
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               REPRO_CACHE_DIR=str(tmp_path / "leak"))
    out = tmp_path / "out.json"
    bench("--workload", "fig6_pool_cold", "--quick", "--out", str(out),
          env=env)
    with open(out, encoding="utf-8") as source:
        row = json.load(source)["workloads"]["fig6_pool_cold"]
    # The records went to the rep's own directory: nothing under the
    # redirection root or the leaked REPRO_CACHE_DIR.
    assert row["layers"]["exec.store_writes"] == row["attempted"] / 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
