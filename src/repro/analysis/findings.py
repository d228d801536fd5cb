"""Finding model shared by every lint pass.

A finding is one violation of a repo invariant, anchored to a file and
line, carrying a stable rule id, a severity, and a fix hint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: Severity ranks, most severe first (used for ordering and summaries).
SEVERITIES = ("P1", "P2", "P3")


@dataclass(frozen=True, slots=True)
class Finding:
    """One lint violation.

    Attributes:
        rule: Stable rule id, e.g. ``REP204``.
        severity: ``P1`` (must fix), ``P2`` (should fix), ``P3`` (doc
            hygiene).
        file: Path relative to the scan root's parent (``repro/...``),
            posix separators — stable across checkouts.
        line: 1-based line number of the violating construct.
        message: What is wrong, with enough context to act on.
        hint: How to fix it.
    """

    rule: str
    severity: str
    file: str
    line: int
    message: str
    hint: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        text = f"{self.file}:{self.line}: {self.severity} {self.rule}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def sort_findings(findings) -> list:
    """Deterministic report order: severity, then location, then rule."""
    rank = {sev: i for i, sev in enumerate(SEVERITIES)}
    return sorted(findings,
                  key=lambda f: (rank.get(f.severity, len(SEVERITIES)),
                                 f.file, f.line, f.rule, f.message))
