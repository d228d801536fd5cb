"""REP1xx — transfer-surface completeness.

Replay fidelity (sampled simulation, recomposition) assumes
that every *mutable* attribute of a warm structure moves with its
transfer surface — the one vocabulary ``state_dict``/``load_state``
(staged by ``stage_state``)/``swap_state``.  A mutable attribute the surface misses is warm state
that silently stays behind — exactly the drift that breaks the paper's
"identical architectural state regardless of composition" invariant.

A leaf structure declares its fields once (``WARM = (("_stack", list,
list), ...)``, :mod:`repro.warm`) and inherits the three operations; a
composite (``PredictorBank``, ``ShadowUarch``) writes them as
delegations.  For every class with a ``WARM`` literal or a surface
method this pass:

1. collects every ``self.<attr>`` assignment/mutation across all
   methods (including ``object.__setattr__(self, "x", ...)``, subscript
   stores, ``+=``, and in-place mutator calls such as ``.append``);
2. decides whether the attribute is *state* (assigned outside
   ``__init__``, or initialised to a mutable value) or *config*
   (scalar/param-derived, assigned once in ``__init__``);
3. flags state attributes that are not named in ``WARM`` — or, for a
   class without one, never read by a surface method — and ``WARM``
   names that ``__init__`` never assigns (both REP101).

Suppress intentional exclusions at the assignment site::

    self.stats = CacheStats()  # lint: ok(REP101) history, not warm state
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.source import SourceModule, const_str, dotted_name

RULE_UNCOVERED = "REP101"

#: Defining any of these makes a class a transfer-surface owner.
SURFACE_DEF_METHODS = frozenset({"state_dict", "swap_state"})
#: Reads in any of these count as surface coverage.
SURFACE_READ_METHODS = SURFACE_DEF_METHODS | {"load_state", "stage_state"}

#: Calls (last dotted segment) whose result is mutable state.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "OrderedDict", "deque", "defaultdict",
     "Counter", "bytearray"})

#: Method calls on an attribute that mutate it in place.
_MUTATOR_METHODS = frozenset(
    {"append", "appendleft", "add", "update", "pop", "popitem", "clear",
     "extend", "insert", "discard", "remove", "setdefault", "move_to_end"})

_INIT_METHODS = frozenset({"__init__", "__post_init__"})


def _is_mutable_value(node) -> bool:
    """Heuristic: does this initialiser expression produce mutable state?

    Containers, comprehensions, and constructor calls count; constants,
    parameters, and arithmetic over them read as config.
    """
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp):  # e.g. [0] * n
        return _is_mutable_value(node.left) or _is_mutable_value(node.right)
    if isinstance(node, ast.IfExp):
        return _is_mutable_value(node.body) or _is_mutable_value(node.orelse)
    if isinstance(node, ast.Call):
        name = dotted_name(node.func).rsplit(".", 1)[-1]
        if name in _MUTABLE_FACTORIES:
            return True
        # Class instantiation (CapWords convention): nested structures
        # like PredictorBank(...) or ExitStats() carry their own state.
        return bool(name) and name[0].isupper()
    return False


def _self_attr(node):
    """'x' if node is ``self.x``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _target_attrs(node, direct=True):
    """Yield ``(node, attr, direct)`` for every self-attribute stored to
    by an assignment target.  Only the store chain is walked — subscript
    *indices* are reads, not stores (``self._t[self._index(k)] = v``
    mutates ``_t``, it does not make ``_index`` state)."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _target_attrs(elt, direct)
    elif isinstance(node, ast.Starred):
        yield from _target_attrs(node.value, direct)
    elif isinstance(node, ast.Subscript):
        yield from _target_attrs(node.value, False)
    elif isinstance(node, ast.Attribute):
        attr = _self_attr(node)
        if attr is not None:
            yield node, attr, direct
        else:
            # self.a.b = ... stores through a: a is mutated state.
            yield from _target_attrs(node.value, False)


def _collect_assignments(assignments: dict, method: ast.FunctionDef) -> None:
    """Add ``attr -> [(line, method name, value node or None, is
    mutation), ...]`` for every self-attribute ``method`` writes."""
    def record(attr, line, value, mutation):
        assignments.setdefault(attr, []).append(
            (line, method.name, value, mutation))

    in_surface = method.name in SURFACE_READ_METHODS
    for node in ast.walk(method):
        targets = []
        value = None
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            func = node.func
            # object.__setattr__(self, "x", value) — frozen dataclasses.
            if dotted_name(func).endswith("__setattr__") and len(node.args) >= 3 \
                    and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id == "self" \
                    and const_str(node.args[1]) is not None:
                record(node.args[1].value, node.lineno, node.args[2], False)
                continue
            # self.x.append(...) and friends — in-place mutation.
            if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
                attr = _self_attr(func.value)
                if attr and not in_surface:
                    record(attr, node.lineno, None, True)
            continue
        else:
            continue
        for target in targets:
            for leaf, attr, direct in _target_attrs(target):
                mutation = not direct or isinstance(node, ast.AugAssign)
                val = value if direct and not isinstance(
                    target, (ast.Tuple, ast.List)) else None
                record(attr, leaf.lineno, val, mutation)


def _warm_names(node: ast.ClassDef):
    """``{attribute: line}`` declared by the class's ``WARM`` literal,
    or None when the class has none."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Tuple) \
                and any(dotted_name(t) == "WARM" for t in stmt.targets):
            return {name: entry.lineno for entry in stmt.value.elts
                    if isinstance(entry, ast.Tuple) and entry.elts
                    and (name := const_str(entry.elts[0])) is not None}
    return None


def _needs_coverage(records) -> bool:
    """State vs config decision for one attribute."""
    for line, method_name, value, mutation in records:
        if method_name in SURFACE_READ_METHODS:
            continue  # the surface's own writes restore state
        if method_name not in _INIT_METHODS:
            return True  # written during simulation → warm state
        if mutation or _is_mutable_value(value):
            return True  # mutable container / nested structure
    return False


_HINT_UNCOVERED = ("name it in WARM (or read it in the composite's "
                   "state_dict/load_state/swap_state), or mark the assignment "
                   "`# lint: ok(REP101) <why>` if it is config, derived, or stats")


def _check_class(mod: SourceModule, node: ast.ClassDef):
    """Yield ``(line, message, hint)`` for one class."""
    methods = [n for n in node.body
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defined = sorted(m.name for m in methods if m.name in SURFACE_DEF_METHODS)
    warm = _warm_names(node)
    if warm is None and not defined:
        return
    assignments: dict = {}
    covered = set(warm or ())
    for method in methods:
        _collect_assignments(assignments, method)
        if warm is None and method.name in SURFACE_READ_METHODS:
            covered.update(filter(None, map(_self_attr, ast.walk(method))))
    surface = "WARM" if warm is not None else "/".join(defined)
    for attr, records in sorted(assignments.items()):
        if attr in covered or not _needs_coverage(records) or any(
                mod.suppressed(RULE_UNCOVERED, line) for line, *_ in records):
            continue
        yield (min(line for line, *_ in records),
               f"{node.name}.{attr} looks like mutable state but is not "
               f"covered by the transfer surface ({surface})", _HINT_UNCOVERED)
    for attr, line in sorted((warm or {}).items()):
        in_init = any(method in _INIT_METHODS
                      for __, method, *_ in assignments.get(attr, ()))
        if not in_init and not mod.suppressed(RULE_UNCOVERED, line):
            yield (line, f"{node.name}.WARM names {attr}, which __init__ "
                   f"never assigns",
                   "declare only attributes the constructor creates")


def check_surfaces(modules, ctx=None):
    """Run the transfer-surface pass over parsed modules."""
    return [Finding(rule=RULE_UNCOVERED, severity="P1", file=mod.relpath,
                    line=line, message=message, hint=hint)
            for mod in modules
            for node in ast.walk(mod.tree) if isinstance(node, ast.ClassDef)
            for line, message, hint in _check_class(mod, node)]
