"""The seven re-export-only packages serve their public names lazily
(``repro/_lazy.py``): one ``name -> submodule`` table per package, the
same objects as before, nothing imported until it is read."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PACKAGES = ("repro.exec", "repro.harness", "repro.sample", "repro.sched",
            "repro.search", "repro.tflex", "repro.workloads")

#: One submodule of each package that its table does not need loaded
#: for the check below to be meaningful.
A_SUBMODULE = {"repro.exec": "store", "repro.harness": "reporting",
               "repro.sample": "config", "repro.sched": "controller",
               "repro.search": "objective",
               "repro.tflex": "stats", "repro.workloads": "catalog"}


def _env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _table(package):
    """``name -> submodule`` as the package declares it: the closure of
    its module ``__getattr__``."""
    getter = vars(importlib.import_module(package))["__getattr__"]
    tables = [cell.cell_contents for cell in getter.__closure__
              if isinstance(cell.cell_contents, dict)]
    assert len(tables) == 1
    return tables[0]


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyPackage:
    def test_every_name_is_the_submodules_object(self, package):
        pkg = importlib.import_module(package)
        table = _table(package)
        assert table
        for name, submodule in table.items():
            source = importlib.import_module(f"{package}.{submodule}")
            assert getattr(pkg, name) is getattr(source, name), name

    def test_all_and_dir_come_from_the_table(self, package):
        pkg = importlib.import_module(package)
        assert pkg.__all__ == list(_table(package))
        assert len(set(pkg.__all__)) == len(pkg.__all__)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name)

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
            pkg.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})
        assert not hasattr(pkg, "__wrapped__")

    def test_nothing_is_imported_until_read(self, package):
        """A bare ``import pkg`` loads no submodule; attribute access
        to a submodule name then imports exactly that one."""
        submodule = A_SUBMODULE[package]
        code = (
            "import sys, importlib\n"
            f"pkg = importlib.import_module({package!r})\n"
            f"loaded = [m for m in sys.modules if m.startswith({package!r} "
            "+ '.')]\n"
            "assert not loaded, loaded\n"
            f"module = getattr(pkg, {submodule!r})\n"
            f"assert module is sys.modules[{package!r} + '.' + "
            f"{submodule!r}]\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=_env(), timeout=60)


def test_a_broken_submodule_is_not_mistaken_for_a_missing_name(tmp_path):
    """An import error *inside* a submodule must surface, not turn into
    ``AttributeError`` (which ``from pkg import x`` would then report
    as a missing name)."""
    pkg = tmp_path / "lazypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "__getattr__, __dir__, __all__ = lazy_exports(__name__, "
        "{'thing': 'broken'})\n")
    (pkg / "broken.py").write_text("import no_such_dependency\n")
    code = ("import lazypkg\n"
            "for name in ('thing', 'broken'):\n"
            "    try:\n"
            "        getattr(lazypkg, name)\n"
            "    except ModuleNotFoundError as exc:\n"
            "        assert exc.name == 'no_such_dependency'\n"
            "    else:\n"
            "        raise SystemExit('import error was swallowed')\n")
    env = _env()
    env["PYTHONPATH"] += f":{tmp_path}"
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=60)


def test_runner_keeps_the_worker_side_names():
    """``repro.harness.runner`` is light, but the worker-side names it
    used to define still resolve there (the benchmark patches them via
    ``getattr(runner, name)``)."""
    from repro.harness import runner, simulate

    for name in ("simulate_spec", "cached_program", "build_edge_config",
                 "simulation_count"):
        assert getattr(runner, name) is getattr(simulate, name)
        assert name in dir(runner)
