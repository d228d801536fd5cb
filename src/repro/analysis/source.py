"""Source loading for the lint passes: parsed modules + suppressions.

Every pass consumes :class:`SourceModule` objects — a parsed AST plus
the raw source lines and the inline suppression map.  Suppressions use
the grammar::

    some_statement  # lint: ok(REP101) stats stay with their owner

i.e. ``# lint: ok(<RULE>[, <RULE>...]) <justification>``.  A marker
silences the named rules on that physical line only, and the
justification is mandatory by convention (the marker is the
allow-list entry, and the only exemption there is).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ok\(([A-Za-z0-9_,\s]+)\)")


class LintError(Exception):
    """Internal analysis failure (unreadable tree, syntax error, ...)."""


@dataclass
class SourceModule:
    """One parsed Python module under analysis."""

    path: Path                     # absolute path on disk
    relpath: str                   # e.g. "repro/mem/l2.py" (posix)
    tree: ast.Module
    lines: list = field(default_factory=list, repr=False)
    #: line number -> set of rule ids suppressed on that line
    suppressions: dict = field(default_factory=dict, repr=False)

    def suppressed(self, rule: str, line: int) -> bool:
        """A marker suppresses on its own line, or — when it is a
        standalone comment — on the statement directly below it."""
        if rule in self.suppressions.get(line, ()):
            return True
        above = self.suppressions.get(line - 1)
        if above and rule in above:
            text = self.lines[line - 2].lstrip() if line >= 2 else ""
            return text.startswith("#")
        return False

    def line_of(self, needle: str) -> int:
        """1-based line of the first occurrence of ``needle`` (0 if absent).
        Used to anchor registry/doc findings to a useful location."""
        for i, text in enumerate(self.lines, start=1):
            if needle in text:
                return i
        return 0


def parse_suppressions(lines) -> dict:
    out: dict = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            out[lineno] = frozenset(rules)
    return out


def load_module(path: Path, root: Path) -> SourceModule:
    """Parse one file.  ``relpath`` is rooted at ``root``'s name so a
    scan of ``src/repro`` reports ``repro/...`` paths regardless of
    where the checkout lives."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:  # pragma: no cover - filesystem failure
        raise LintError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    rel = path.relative_to(root).as_posix()
    relpath = f"{root.name}/{rel}" if root.name else rel
    lines = text.splitlines()
    return SourceModule(path=path, relpath=relpath, tree=tree,
                        lines=lines, suppressions=parse_suppressions(lines))


def iter_modules(root: Path) -> list:
    """Every ``*.py`` under ``root`` in sorted order, parsed."""
    root = Path(root)
    if not root.is_dir():
        raise LintError(f"lint root is not a directory: {root}")
    modules = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        modules.append(load_module(path, root))
    return modules


# ----------------------------------------------------------------------
# Small AST helpers shared by the passes
# ----------------------------------------------------------------------

def dotted_name(node) -> str:
    """Render ``a.b.c`` for Name/Attribute chains; '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def const_str(node):
    """The value of a string-constant node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
