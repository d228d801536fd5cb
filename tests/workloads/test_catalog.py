"""The literal catalog and the suite built from it agree, every named
set is declared once, and a disagreement stops ``suite`` importing."""

import os
import pathlib
import subprocess
import sys

from repro.workloads import suite
from repro.workloads.catalog import CATALOG, CATEGORIES, SETS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_catalog_matches_the_suite():
    assert list(CATALOG) == list(suite.BENCHMARKS) == list(SETS["all"])
    for name, entry in CATALOG.items():
        bench = suite.BENCHMARKS[name]
        assert (entry.name, entry.category, entry.ilp) == (
            name, bench.category, bench.ilp)
        assert entry.ilp == ("high" if name in SETS["high_ilp"] else "low")


def test_every_set_is_a_subset_of_all():
    everything = set(SETS["all"])
    assert len(everything) == len(SETS["all"]) == 26
    for name, members in SETS.items():
        assert len(set(members)) == len(members), name
        assert set(members) <= everything, name
    assert sum(len(SETS[c]) for c in CATEGORIES) == 26


def test_the_suite_helpers_and_aliases_read_the_sets():
    from repro.harness.golden import GOLDEN_BENCHMARKS

    assert [b.name for b in suite.hand_optimized()] == list(SETS["hand"])
    assert [b.name for b in suite.compiled_suite()] == list(
        SETS["spec_int"] + SETS["spec_fp"])
    assert GOLDEN_BENCHMARKS is SETS["golden"]
    assert not hasattr(suite, "_HIGH_ILP")


def _import_suite_after(patch: str) -> subprocess.CompletedProcess:
    code = ("from repro.workloads import catalog\n"
            f"{patch}\n"
            "import repro.workloads.suite\n")
    return subprocess.run(
        [sys.executable, "-c", code], text=True, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)


def test_a_seeded_disagreement_stops_suite_importing():
    renamed = _import_suite_after(
        "catalog.SETS['spec_fp'] = catalog.SETS['spec_fp'][:-1] + ('amp',)")
    assert renamed.returncode != 0
    assert "ImportError" in renamed.stderr
    assert "spec_fp factories disagree" in renamed.stderr

    # Order is part of the contract: figure 10 draws its workloads by
    # index from the hand set.
    reordered = _import_suite_after(
        "catalog.SETS['hand'] = tuple(reversed(catalog.SETS['hand']))")
    assert reordered.returncode != 0
    assert "hand factories disagree" in reordered.stderr

    assert _import_suite_after("pass").returncode == 0
