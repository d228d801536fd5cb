"""REP3xx — content-hash axis coverage.

The result store keys every simulation by a content hash over
``JobSpec.canonical()`` (salted with ``SCHEMA_VERSION``).  A dataclass
field that never reaches the canonical form is an axis the cache
cannot see: two specs differing only in that field collide, and the
second silently reuses the first's result — the worst kind of stale
hit, because nothing crashes.

This pass takes a table of *hash surfaces* — ``(module, class)`` →
methods that build the canonical form — and checks that every
annotated dataclass field is read (as ``self.<field>``) somewhere in
those methods:

* REP301 — a field the hash surface never reads
* REP302 — a configured module/class/method is missing entirely (so a
  rename cannot silently disable the pass)
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

RULE_FIELD_UNCOVERED = "REP301"
RULE_SURFACE_MISSING = "REP302"

#: Default hash surfaces for this repo: (relpath, class) -> methods
#: whose self-reads count as hash coverage.
DEFAULT_HASH_SURFACES = {
    ("repro/exec/spec.py", "JobSpec"): ("canonical",),
    ("repro/sample/config.py", "SamplingConfig"): ("to_dict",),
    ("repro/resil/faults.py", "FaultEvent"): ("to_dict",),
    ("repro/resil/faults.py", "FaultSchedule"): ("to_dict", "spec_items"),
}


def _class_fields(node: ast.ClassDef) -> list:
    """Annotated dataclass fields declared in the class body."""
    fields = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            if name.startswith("_"):
                continue
            try:
                ann = ast.unparse(stmt.annotation)
            except Exception:  # pragma: no cover - defensive
                ann = ""
            if "ClassVar" in ann:
                continue
            fields.append((name, stmt.lineno))
    return fields


def _self_reads(method: ast.FunctionDef) -> set:
    reads = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            reads.add(node.attr)
    return reads


def check_hash_axes(modules, ctx):
    surfaces = ctx.hash_surfaces
    findings = []
    by_rel = {mod.relpath: mod for mod in modules}
    for (relpath, clsname), methods in sorted(surfaces.items()):
        mod = by_rel.get(relpath)
        if mod is None:
            # The whole tree may be a partial fixture scan; only complain
            # when the scan root plausibly should contain the module.
            findings.append(Finding(
                rule=RULE_SURFACE_MISSING, severity="P1", file=relpath,
                line=1,
                message=f"hash-surface module {relpath} not found in scan",
                hint="update DEFAULT_HASH_SURFACES in repro/analysis/"
                     "hashaxes.py if the module moved"))
            continue
        cls = None
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ClassDef) and node.name == clsname:
                cls = node
                break
        if cls is None:
            findings.append(Finding(
                rule=RULE_SURFACE_MISSING, severity="P1", file=relpath,
                line=1,
                message=f"hash-surface class {clsname} not found in {relpath}",
                hint="update DEFAULT_HASH_SURFACES if the class was renamed"))
            continue
        reads: set = set()
        found_methods = []
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt.name in methods:
                found_methods.append(stmt.name)
                reads |= _self_reads(stmt)
        for method in methods:
            if method not in found_methods:
                findings.append(Finding(
                    rule=RULE_SURFACE_MISSING, severity="P1", file=relpath,
                    line=cls.lineno,
                    message=f"{clsname}.{method} (hash surface) is missing",
                    hint="restore the method or update "
                         "DEFAULT_HASH_SURFACES"))
        if not found_methods:
            continue
        for name, lineno in _class_fields(cls):
            if name in reads:
                continue
            findings.append(Finding(
                rule=RULE_FIELD_UNCOVERED, severity="P1", file=relpath,
                line=lineno,
                message=(f"{clsname}.{name} never reaches the content hash "
                         f"({clsname}.{'/'.join(methods)}) — two specs "
                         "differing only here would collide in the cache"),
                hint=f"read self.{name} in the canonical form"))
    return findings
