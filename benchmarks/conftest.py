"""Shared fixtures for the per-figure benchmark harness.

The figure-6 sweep (26 benchmarks x 6 TFlex compositions + TRIPS) is
computed once per session and reused by the area (figure 7), power
(figure 8), and multiprogramming (figure 10) analyses — the paper's own
methodology.  Every harness writes its rendered output under
``results/`` so EXPERIMENTS.md can reference the exact series.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness import clear_cache, configure_cache, fig6_performance


RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache():
    """Keep tier-1 runs hermetic: start from an empty in-process cache
    and never read or write a persistent store (results or fast-forward
    traces, which follow it) left over from earlier CLI invocations."""
    clear_cache()
    configure_cache(enabled=False)
    yield
    clear_cache()


@pytest.fixture(scope="session")
def fig6():
    return fig6_performance(scale=1)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
