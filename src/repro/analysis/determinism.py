"""REP2xx — bit-determinism lint.

The exec engine fans simulations out across processes and trusts that
the same :class:`JobSpec` always produces the same result (content-
addressed caching, trace replay, successive-halving comparisons all
assume it).  Anything that lets host state leak into simulated state
breaks that:

* REP201 — wall-clock reads (``time.time``, ``datetime.now``, ...)
* REP202 — entropy (``os.urandom``, unseeded ``random``, ``uuid``,
  ``secrets``)
* REP203 — builtin ``hash()``/``id()`` (process-salted / address-based)
* REP204 — iterating a ``set``/``frozenset`` in an order-sensitive
  position (iteration order varies with PYTHONHASHSEED)

REP201–203 apply only to modules inside the simulation/hashing scope
(``ctx.sim_paths`` prefixes); exec scheduling, obs, and the CLI
legitimately read wall clocks.  REP204 applies everywhere scanned:
consuming a set through an order-insensitive reducer (``sorted``,
``sum``, ``any``, ``min``, ``set``, ...) is fine and not flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.source import SourceModule, dotted_name

RULE_WALLCLOCK = "REP201"
RULE_ENTROPY = "REP202"
RULE_HASH_ID = "REP203"
RULE_SET_ITER = "REP204"

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})

_ENTROPY_CALLS = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    "secrets.choice",
})

#: Reducers whose result does not depend on iteration order (or that
#: impose one), so feeding them a set is safe.
_ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "sum", "len", "min", "max", "any", "all",
    "set", "frozenset", "Counter",
})

_SET_ANNOTATIONS = ("set[", "set", "frozenset[", "frozenset",
                    "Set[", "AbstractSet[", "FrozenSet[")


def _annotation_is_set(node) -> bool:
    if node is None:
        return False
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return False
    text = text.strip().strip("'\"")
    if text.startswith("Optional[") and text.endswith("]"):
        text = text[len("Optional["):-1]
    return any(text == a or text.startswith(a) for a in _SET_ANNOTATIONS)


class _SetTypes:
    """Names/attributes statically known to hold sets in one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.attrs: set = set()       # attribute names annotated as sets
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
                target = node.target
                if isinstance(target, ast.Attribute):
                    self.attrs.add(target.attr)
                elif isinstance(target, ast.Name):
                    # class-body field annotation (dataclass field) —
                    # readable later as self.<name>.
                    self.attrs.add(target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _annotation_is_set(node.returns):
                    # property/method returning a set: self.x or x()
                    self.attrs.add(node.name)


def _is_set_expr(node, local_sets, set_types) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in local_sets
    if isinstance(node, ast.Attribute):
        return node.attr in set_types.attrs
    if isinstance(node, ast.Call):
        name = dotted_name(node.func).rsplit(".", 1)[-1]
        if name in ("set", "frozenset"):
            return True
        if name in set_types.attrs:  # method with set return annotation
            return True
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("union", "intersection", "difference",
                                       "symmetric_difference") \
                and _is_set_expr(node.func.value, local_sets, set_types):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, local_sets, set_types)
                or _is_set_expr(node.right, local_sets, set_types))
    return False


def _collect_local_sets(func, set_types) -> set:
    """One forward pass over a function body: names bound to set exprs."""
    local_sets: set = set()
    for arg in list(getattr(func.args, "args", ())) \
            + list(getattr(func.args, "kwonlyargs", ())):
        if _annotation_is_set(arg.annotation):
            local_sets.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            if _is_set_expr(node.value, local_sets, set_types):
                local_sets.add(node.targets[0].id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation) \
                    or _is_set_expr(node.value, local_sets, set_types):
                local_sets.add(node.target.id)
    return local_sets


def _order_free_parents(tree) -> set:
    """ids of GeneratorExp/comprehension nodes consumed by order-free
    reducers (``sorted(x for x in s)``), which are safe over sets."""
    safe = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func).rsplit(".", 1)[-1]
            if name in _ORDER_FREE_CONSUMERS:
                for arg in node.args:
                    safe.add(id(arg))
    return safe


def check_determinism(modules, ctx):
    findings = []
    for mod in modules:
        in_sim = ctx.in_sim_scope(mod.relpath)
        if in_sim:
            findings.extend(_check_calls(mod))
        findings.extend(_check_set_iteration(mod))
    return findings


def _check_calls(mod: SourceModule):
    findings = []
    # Map from-imported names back to their dotted origin so that
    # ``from time import perf_counter`` is still caught.
    aliases: dict = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module in ("time", "datetime", "os", "uuid", "secrets"):
                for alias in node.names:
                    aliases[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
            if node.module == "random":
                findings.append(Finding(
                    rule=RULE_ENTROPY, severity="P1", file=mod.relpath,
                    line=node.lineno,
                    message="import from `random` in a deterministic module",
                    hint="thread an explicitly seeded random.Random through "
                         "the spec instead of ambient process randomness"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    findings.append(Finding(
                        rule=RULE_ENTROPY, severity="P1", file=mod.relpath,
                        line=node.lineno,
                        message="import of `random` in a deterministic module",
                        hint="thread an explicitly seeded random.Random "
                             "through the spec"))
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        name = aliases.get(name, name)
        rule = None
        if name in _WALLCLOCK_CALLS:
            rule, msg, hint = RULE_WALLCLOCK, \
                f"wall-clock read `{name}()` in a deterministic module", \
                "derive timing from simulated cycles; wall clocks belong " \
                "in repro.exec / repro.obs"
        elif name in _ENTROPY_CALLS or name.startswith("random."):
            rule, msg, hint = RULE_ENTROPY, \
                f"entropy source `{name}()` in a deterministic module", \
                "all randomness must come from a spec-seeded generator"
        elif isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
            rule, msg, hint = RULE_HASH_ID, \
                f"builtin `{node.func.id}()` is process-dependent " \
                "(PYTHONHASHSEED / object address)", \
                "use hashlib over canonical bytes, or a stable key function"
        if rule:
            severity = "P2" if rule == RULE_HASH_ID else "P1"
            findings.append(Finding(rule=rule, severity=severity,
                                    file=mod.relpath, line=node.lineno,
                                    message=msg, hint=hint))
    return findings


def _check_set_iteration(mod: SourceModule):
    findings = []
    set_types = _SetTypes(mod.tree)
    safe_parents = _order_free_parents(mod.tree)

    def flag(node, what):
        findings.append(Finding(
            rule=RULE_SET_ITER, severity="P1", file=mod.relpath,
            line=node.lineno,
            message=f"iteration over a set in {what} — order varies "
                    "with PYTHONHASHSEED",
            hint="wrap the iterable in sorted(...), or consume it with an "
                 "order-free reducer (sum/any/min/set/...)"))

    funcs = [n for n in ast.walk(mod.tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    scopes = [(mod.tree, set())] + [
        (f, _collect_local_sets(f, set_types)) for f in funcs]
    seen: set = set()
    for scope, local_sets in scopes:
        for node in ast.walk(scope):
            if id(node) in seen or node is scope:
                continue
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, local_sets, set_types):
                    seen.add(id(node))
                    flag(node, "a for statement")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                if id(node) in safe_parents:
                    continue
                for gen in node.generators:
                    if _is_set_expr(gen.iter, local_sets, set_types):
                        seen.add(id(node))
                        flag(node, "an order-sensitive comprehension")
                        break
    return findings
