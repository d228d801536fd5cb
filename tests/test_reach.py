"""Every module-level definition in ``src/repro`` has a caller outside
the tests.

The check parses ``src/repro`` for module-level functions, classes and
UPPER_CASE constants, and fails on any that ``src/``, ``benchmarks/``
and ``examples/`` never name except at the definition itself and in a
package's export lists (``__all__``, a ``lazy_exports`` map, or an
``__init__`` re-import).  A name counts as used where it is read: a
bare name, an attribute, or a string equal to it (``getattr`` by
name).  Imports never count, so a name that is only re-exported, or
imported and then left unused, is still unreached.

What it cannot see:

* a parameter, option or branch that only tests exercise — it checks
  names, not arguments;
* a definition whose name is read for some other purpose: a method,
  a string or a same-named definition elsewhere (a method ``run``
  keeps a function ``run`` alive);
* a definition reached only from another unreached one.

:data:`ALLOWED` holds the few definitions that only tests call on
purpose.  The functions and classes among them are the
``tests/census.py`` :data:`~tests.census.REASONS` entries that give
:data:`~tests.census.TESTS_ONLY` as their reason, so "only tests call
this" is said once; the census cannot list a constant, so the one
constant is named here.
"""

import ast
import pathlib
import re

from tests.census import REASONS, TESTS_ONLY

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("src", "benchmarks", "examples")

#: Module-level name -> why only tests name it.
ALLOWED = {
    **{key.split(".")[1]: TESTS_ONLY
       for key, why in REASONS.items() if why == TESTS_ONLY},
    "PHASES": "the profiler's phase registry, which tests check the "
              "profiler against",
}

_UPPER = re.compile(r"[A-Z][A-Z0-9_]*$")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _definitions():
    """``{name: "path:line"}`` for every module-level definition."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(ROOT)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found.setdefault(node.name, f"{where}:{node.lineno}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if (isinstance(name, ast.Name)
                                and _UPPER.match(name.id)):
                            found.setdefault(name.id,
                                             f"{where}:{node.lineno}")
    return found


def _is_export_list(node):
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(name, ast.Name) and name.id == "__all__"
               for target in targets for name in ast.walk(target))


def _used_names():
    """Every name read anywhere under :data:`CALLERS`."""
    used = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            stack = [ast.parse(path.read_text())]
            while stack:
                node = stack.pop()
                if _is_export_list(node):
                    if isinstance(node.value, ast.Call):
                        stack.append(node.value)    # lazy_exports(...)
                    continue
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "lazy_exports"):
                    stack.append(node.func)     # the map is an export list
                    continue
                if isinstance(node, ast.Name) and not isinstance(
                        node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and _IDENT.match(node.value)):
                    used.add(node.value)
                stack.extend(ast.iter_child_nodes(node))
    return used


def _unreached():
    used = _used_names()
    return {name: where for name, where in _definitions().items()
            if name not in used}


def test_every_definition_has_a_caller():
    dead = {name: where for name, where in _unreached().items()
            if name not in ALLOWED}
    assert not dead, (
        "defined in src/repro but named by nothing in src/, benchmarks/ "
        "or examples/ (delete it, or add it to ALLOWED with a reason): "
        + ", ".join(f"{name} ({where})" for name, where in sorted(
            dead.items())))


def test_the_allowlist_is_not_stale():
    """Each allowed name is still defined, and still has no caller
    outside the tests (once it has one, it leaves the list)."""
    assert set(ALLOWED) <= set(_definitions())
    assert set(ALLOWED) <= set(_unreached())
