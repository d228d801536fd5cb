"""Shared fixtures for the unit/integration suite."""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness import clear_cache, configure_cache


ROOT = pathlib.Path(__file__).resolve().parents[1]

#: What a run may add to the repo root: the git-ignored tool caches
#: (``.coverage`` when CI runs this suite under ``--cov``).
TOOL_CACHES = {".pytest_cache", ".hypothesis", "__pycache__", ".coverage"}


@pytest.fixture(scope="session", autouse=True)
def _repo_root_stays_clean():
    """No test writes into the working tree: records, traces and
    timings belong under ``tmp_path`` (or in ``benchmarks/perf``)."""
    before = set(os.listdir(ROOT))
    yield
    leaked = set(os.listdir(ROOT)) - before - TOOL_CACHES
    assert not leaked, f"the test run left {sorted(leaked)} in the repo root"


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache():
    """Hermetic tier-1 runs: empty in-process cache, persistent store
    off and with it the fast-forward trace store (tests that exercise
    either enable it on a tmp_path and restore this state afterwards)."""
    clear_cache()
    configure_cache(enabled=False)
    yield
    clear_cache()
    configure_cache(enabled=False)
