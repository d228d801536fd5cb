"""Where the stores live: ``configure_cache`` alone picks the root.

Nothing reads the environment: with nothing configured there is no
result store and no trace store, so a library run writes nothing; the
default root, once enabled, is ``.repro-cache`` in the working
directory.
"""

import os
import pathlib
import subprocess
import sys

from repro.harness import configure_cache, get_store
from repro.harness.runner import DEFAULT_CACHE_DIR
from repro.sample.trace import trace_root

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: A two-point sweep in a fresh process that configures nothing.
SWEEP = """
from repro.exec import JobSpec
from repro.harness.runner import run_all
run_all([JobSpec.edge("dither", n, sampling={sampling}) for n in (1, 2)])
"""


def _sweep_in(cwd: pathlib.Path, sampling=None, **env) -> None:
    environ = {k: v for k, v in os.environ.items()
               if k != "PYTEST_CURRENT_TEST"}
    subprocess.run([sys.executable, "-c", SWEEP.format(sampling=sampling)],
                   cwd=cwd, check=True,
                   env={**environ, "PYTHONPATH": str(SRC), **env})


def test_default_is_hermetic_under_pytest():
    # The session fixture configured nothing but "off".
    assert get_store() is None
    assert trace_root() is None


def test_env_var_is_ignored(tmp_path):
    """``REPRO_CACHE_DIR`` is no switch: a sweep with nothing
    configured writes nothing there (nor into its cwd)."""
    _sweep_in(tmp_path, REPRO_CACHE_DIR=str(tmp_path / "env"))
    assert list(tmp_path.iterdir()) == []


def test_storeless_sampled_run_leaves_cwd_empty(tmp_path):
    """Traces follow the store: with it off and no trace override, a
    sampled sweep outside pytest records no trace."""
    _sweep_in(tmp_path, sampling={
        "ff_blocks": 64, "window_blocks": 16, "warmup_blocks": 4})
    assert list(tmp_path.iterdir()) == []


def test_default_outside_pytest_is_cwd_store(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
    try:
        store = configure_cache()  # default-enabled, no explicit dir
        assert store.root == pathlib.Path(DEFAULT_CACHE_DIR)
        assert trace_root() == store.root / "traces"
    finally:
        configure_cache(enabled=False)


def test_explicit_dir_still_honoured(tmp_path):
    try:
        store = configure_cache(cache_dir=tmp_path / "mystore")
        assert pathlib.Path(store.root) == tmp_path / "mystore"
    finally:
        configure_cache(enabled=False)
