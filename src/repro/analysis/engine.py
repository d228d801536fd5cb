"""Lint orchestration: scan a tree and run the passes.

The entry point is :func:`run_lint`, which `repro lint` and the tests
share.  Exit-code contract (``LintReport.exit_code``):

* ``0`` — clean (no findings)
* ``1`` — at least one finding
* ``3`` — internal analysis error (:class:`LintError`) — raised, and
  mapped to 3 by the CLI

``2`` is reserved for argparse usage errors (argparse's own exit code).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.determinism import check_determinism
from repro.analysis.findings import SEVERITIES, Finding, sort_findings
from repro.analysis.hashaxes import DEFAULT_HASH_SURFACES, check_hash_axes
from repro.analysis.obsnames import check_obs_names
from repro.analysis.source import LintError, iter_modules

#: Path prefixes (relative, ``repro/...``) subject to the strict
#: determinism rules REP201–203.  Everything else may read wall clocks
#: (exec scheduling, obs, harness timing, the CLI).
DEFAULT_SIM_PATHS = (
    "repro/tflex/", "repro/isa/", "repro/risc/", "repro/mem/",
    "repro/noc/", "repro/lsq/", "repro/predictor/", "repro/sample/",
    "repro/search/", "repro/resil/", "repro/workloads/",
    "repro/compiler/", "repro/power/", "repro/sched/",
    "repro/exec/spec.py",
)

#: All pass ids, in report order.
PASSES = ("determinism", "hashaxes", "obsnames")


@dataclass
class LintContext:
    """Configuration shared by the passes (tests override freely)."""

    sim_paths: tuple = DEFAULT_SIM_PATHS
    hash_surfaces: dict = field(
        default_factory=lambda: dict(DEFAULT_HASH_SURFACES))
    events: frozenset = None
    metrics: frozenset = None

    def __post_init__(self):
        if self.events is None or self.metrics is None:
            from repro.obs import schema
            if self.events is None:
                self.events = schema.EVENT_NAMES
            if self.metrics is None:
                self.metrics = schema.METRIC_NAMES

    def in_sim_scope(self, relpath: str) -> bool:
        return any(relpath == p or relpath.startswith(p)
                   for p in self.sim_paths)


@dataclass
class LintReport:
    """Everything a caller needs to render or gate on."""

    root: str
    findings: list            # what fails CI
    rules_run: tuple

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> dict:
        out = {sev: 0 for sev in SEVERITIES}
        for finding in self.findings:
            out[finding.severity] = out.get(finding.severity, 0) + 1
        return out

    def render_text(self) -> str:
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
        counts = self.counts()
        total = len(self.findings)
        summary = ", ".join(f"{counts[s]} {s}" for s in SEVERITIES
                            if counts.get(s))
        lines.append(f"repro lint: {total} finding(s)"
                     + (f" ({summary})" if summary else ""))
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "root": self.root,
            "rules_run": list(self.rules_run),
            "summary": {"total": len(self.findings), **self.counts()},
            "findings": [f.to_dict() for f in self.findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _run_passes(modules, ctx: LintContext, rules) -> list:
    findings: list = []
    if _selected("REP2", rules):
        findings.extend(check_determinism(modules, ctx))
    if _selected("REP3", rules):
        findings.extend(check_hash_axes(modules, ctx))
    if _selected("REP4", rules):
        findings.extend(check_obs_names(modules, ctx))
    if rules:
        findings = [f for f in findings
                    if any(f.rule.startswith(r) for r in rules)]
    return findings


def _selected(prefix: str, rules) -> bool:
    if not rules:
        return True
    return any(r.startswith(prefix) or prefix.startswith(r) for r in rules)


def run_lint(root, ctx: Optional[LintContext] = None,
             rules=None) -> LintReport:
    """Scan ``root`` and return a :class:`LintReport`.

    Args:
        root: Directory to scan (normally ``src/repro``).
        ctx: Pass configuration; defaults to the repo configuration.
        rules: Optional iterable of rule-id prefixes to restrict to.
    """
    root = Path(root)
    if ctx is None:
        ctx = LintContext()
    modules = iter_modules(root)
    rules = tuple(rules) if rules else ()
    findings = sort_findings(_run_passes(modules, ctx, rules))
    return LintReport(root=str(root), findings=findings,
                      rules_run=rules or ("REP2", "REP3", "REP4"))
