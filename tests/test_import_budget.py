"""The import layering is a checked contract (docs/EXECUTION.md,
"Import layering"): a command imports what it reads.  Each case runs
``repro.cli.main`` in a fresh interpreter and dumps ``sys.modules``.

* ``--help``, ``list`` and a warm figure replay load no simulator
  package and no ``multiprocessing``;
* the same command against an empty store loads the simulator from
  that light start and prints what a fully pre-imported run prints;
* a ``--jobs 2`` parent imports the worker side before its first fork,
  so no worker imports anything after its first job.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
BENCHES = ("--bench", "dither", "--bench", "conv")
FIG6_DERIVED = ("fig6", "fig7", "fig8", "fig10", "table2")

#: What only a cold spec may import.
SIMULATOR = ("repro.compiler", "repro.isa", "repro.risc", "repro.mem",
             "repro.noc", "repro.lsq", "repro.predictor", "repro.resil",
             "repro.sample.engine", "repro.sample.shadow",
             "repro.search.halving", "repro.workloads.suite")
LIGHT_TFLEX = {"repro.tflex", "repro.tflex.stats", "repro.tflex.config",
               "repro.tflex.placement"}
#: What only a batch with a cold spec (or a non-figure command, or an
#: observed run) may import, beyond the simulator.
COLD_ONLY = ("repro.exec.executor", "repro.exec.worker",
             "repro.exec.progress", "repro.exec.pool", "repro.obs",
             "repro.commands")

#: ``python -c`` driver: argv = [modules-out, *repro argv].
DRIVER = """
import json, sys
{prelude}
from repro.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as sink:
    json.dump(sorted(sys.modules), sink)
sys.exit(code)
"""

PRELOAD_EVERYTHING = """
import multiprocessing
import repro.harness.simulate, repro.harness.experiments, repro.resil
import repro.search.halving, repro.sched, repro.exec.pool
"""

#: Logs the worker process's ``repro`` modules after every job.  The
#: wrapper replaces ``execute_spec`` before the executor binds it, so
#: it *is* the default worker (and the pool still pre-imports for it).
PROBE_WORKERS = """
import os
import repro.exec.worker as _worker_mod
_real = _worker_mod.execute_spec
def _probe(spec):
    payload = _real(spec)
    with open(os.environ["IMPORT_BUDGET_LOG"], "a") as sink:
        sink.write(json.dumps({"pid": os.getpid(), "modules": sorted(
            m for m in sys.modules if m.startswith("repro"))}) + "\\n")
    return payload
_worker_mod.execute_spec = _probe
"""


def heavy(modules):
    return sorted(
        m for m in modules
        if m.split(".")[0] == "multiprocessing"
        or any(m == p or m.startswith(p + ".") for p in SIMULATOR)
        or (m.startswith("repro.tflex") and m not in LIGHT_TFLEX))


class Invocation:
    def __init__(self, tmp, argv, prelude="", env=None):
        out = tmp / "modules.json"
        done = subprocess.run(
            [sys.executable, "-c", DRIVER.format(prelude=prelude), str(out),
             *argv],
            cwd=tmp, text=True, capture_output=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC), **(env or {})})
        self.code, self.stdout, self.stderr = (
            done.returncode, done.stdout, done.stderr)
        self.modules = json.loads(out.read_text())
        self.repro = [m for m in self.modules
                      if m == "repro" or m.startswith("repro.")]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """``fig6`` for two benchmarks into an empty store, from a light
    start; the filled store serves the warm cases."""
    tmp = tmp_path_factory.mktemp("cold")
    run = Invocation(tmp, ["fig6", *BENCHES, "--cache-dir", str(tmp / "s")])
    assert run.code == 0, run.stderr
    run.store = tmp / "s"
    return run


class TestLightCommands:
    @pytest.mark.parametrize("argv", [["--help"], ["list"],
                                      ["fig6", "--help"]],
                             ids=["help", "list", "fig6-help"])
    def test_no_simulator_to_print_a_name(self, tmp_path, argv):
        run = Invocation(tmp_path, argv)
        assert run.code == 0, run.stderr
        assert run.stdout.strip()
        assert heavy(run.modules) == []
        assert "repro.harness.runner" not in run.modules
        assert "repro.sample.trace" not in run.modules

    @pytest.mark.parametrize("command", FIG6_DERIVED)
    def test_warm_replay_reads_the_store_and_nothing_else(
            self, tmp_path, cold, command):
        run = Invocation(tmp_path, [command, *BENCHES, "--cache-dir",
                                    str(cold.store)])
        assert run.code == 0, run.stderr
        assert run.stdout.strip()
        assert heavy(run.modules) == []
        assert "repro.sample.trace" not in run.modules
        assert not [m for m in run.repro if m in COLD_ONLY
                    or m.startswith("repro.search")], run.repro
        # 20 (fig10 adds repro.sched and its allocator) plus 2; 29
        # before an all-hit batch skipped the executor, 90 before the
        # layering.
        measured = 22 if command == "fig10" else 20
        assert len(run.repro) <= measured + 2, run.repro
        assert ("repro.sched" in run.modules) == (command == "fig10")

    def test_misuse_fails_before_the_simulator_loads(self, tmp_path):
        run = Invocation(tmp_path, ["fig6", "--bench", "nosuch",
                                    "--jobs", "2"])
        assert run.code == 2
        assert "unknown benchmark 'nosuch'" in run.stderr
        assert heavy(run.modules) == []


def test_warm_sweep_hashes_and_reads_each_spec_once(tmp_path, monkeypatch):
    """In process: a warm figure-6 sweep hashes every spec once and
    reads every record once — no re-hash for the store read or the
    read-back."""
    from collections import Counter

    from repro.exec import spec as spec_mod, store as store_mod
    from repro.harness import experiments, runner

    subset = dict(benchmarks=["dither"], core_counts=(1, 2))
    runner.clear_cache()
    runner.configure_cache(tmp_path / "s")
    try:
        cold = experiments.fig6_performance(**subset).render()
        runner.clear_cache()                        # a fresh process
        hashed, read = Counter(), Counter()
        real_hash, real_read = spec_mod.spec_hash, store_mod.ResultStore._read

        def counting_hash(spec, *args, **kwargs):
            key = real_hash(spec, *args, **kwargs)
            hashed[key] += 1
            return key

        def counting_read(store, key):
            read[key] += 1
            return real_read(store, key)

        for module in (spec_mod, store_mod, runner):
            monkeypatch.setattr(module, "spec_hash", counting_hash)
        monkeypatch.setattr(store_mod.ResultStore, "_read", counting_read)
        warm = experiments.fig6_performance(**subset).render()
        keys = {real_hash(spec) for spec in experiments.fig6_specs(**subset)}
        assert len(keys) == 3                       # two sizes and TRIPS
        assert hashed == read == Counter(dict.fromkeys(keys, 1))
        assert warm == cold
    finally:
        runner.clear_cache()
        runner.configure_cache(enabled=False)


class TestColdPath:
    def test_an_empty_store_loads_the_simulator(self, cold):
        for module in ("repro.harness.simulate", "repro.tflex.system",
                       "repro.workloads.suite", "repro.sample.engine"):
            assert module in cold.modules
        # jobs=1 runs in this process: no pool, no multiprocessing.
        assert "multiprocessing" not in cold.modules
        assert len(list(cold.store.glob("??/*.json"))) == 14

    def test_light_start_prints_what_a_preloaded_run_prints(
            self, tmp_path, cold):
        eager = Invocation(tmp_path, ["fig6", *BENCHES, "--cache-dir",
                                      str(tmp_path / "s")],
                           prelude=PRELOAD_EVERYTHING)
        assert eager.code == 0, eager.stderr
        assert eager.stdout == cold.stdout
        warm = Invocation(tmp_path, ["fig6", *BENCHES, "--cache-dir",
                                     str(cold.store)])
        assert warm.stdout == cold.stdout

    def test_pool_parent_imports_the_worker_side_before_forking(
            self, tmp_path):
        log = tmp_path / "workers.jsonl"
        run = Invocation(tmp_path, ["fig6", *BENCHES, "--jobs", "2",
                                    "--cache-dir", str(tmp_path / "s")],
                         prelude=PROBE_WORKERS,
                         env={"IMPORT_BUDGET_LOG": str(log)})
        assert run.code == 0, run.stderr
        for module in ("multiprocessing", "repro.exec.pool",
                       "repro.harness.simulate", "repro.tflex.system",
                       "repro.sample.engine"):
            assert module in run.modules
        per_worker = {}
        for line in log.read_text().splitlines():
            record = json.loads(line)
            per_worker.setdefault(record["pid"], []).append(
                record["modules"])
        assert len(per_worker) == 2
        assert sum(len(jobs) for jobs in per_worker.values()) == 14
        for jobs in per_worker.values():
            assert all(modules == jobs[0] for modules in jobs)
            # ... and the first job imported nothing the fork had not
            # already handed it.
            assert set(jobs[0]) <= set(run.repro)


def test_resil_imports_no_harness():
    """``repro.resil`` is what the one edge driver arms, not a second
    driver: importing it loads neither the harness nor the chip."""
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, repro.resil; "
                               "print(json.dumps(sorted(sys.modules)))"],
        text=True, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout)
    assert "repro.resil.recompose" in modules
    assert [m for m in modules if m.startswith("repro.harness")] == []
    assert "repro.tflex.system" not in modules
