"""Source loading for the lint passes: parsed modules.

Every pass consumes :class:`SourceModule` objects — a parsed AST plus
the raw source lines.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path


class LintError(Exception):
    """Internal analysis failure (unreadable tree, syntax error, ...)."""


@dataclass
class SourceModule:
    """One parsed Python module under analysis."""

    path: Path                     # absolute path on disk
    relpath: str                   # e.g. "repro/mem/l2.py" (posix)
    tree: ast.Module
    lines: list = field(default_factory=list, repr=False)


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
    return SourceModule(path=path, relpath=relpath, tree=tree,
                        lines=text.splitlines())


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
