"""REP4xx — observability schema lint.

Dashboards, trace consumers, and the drift tests all key on literal
event/metric names.  A name emitted but absent from
:mod:`repro.obs.schema` is invisible to all of them.

* REP401 — ``<obs|bus>.emit("name", ...)`` with an unregistered event
* REP402 — ``<...>metrics.inc/observe/set_gauge("name", ...)`` with an
  unregistered metric

Detection is deliberately conservative: only calls whose receiver's
dotted chain ends in ``obs``/``bus`` (events) or ``metrics`` (metrics)
and whose first argument is a string literal are checked.  Dynamically
formatted names (f-strings) are left to the runtime drift test in
``tests/obs/test_schema.py``, which also keeps the registry and
docs/OBSERVABILITY.md in step.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.source import const_str, dotted_name

RULE_EVENT_UNKNOWN = "REP401"
RULE_METRIC_UNKNOWN = "REP402"

_METRIC_METHODS = frozenset({"inc", "observe", "set_gauge"})


def _receiver_tail(func: ast.Attribute) -> str:
    """Last segment of the receiver chain: 'obs' for self.obs.emit."""
    dotted = dotted_name(func.value)
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def check_obs_names(modules, ctx):
    events = ctx.events
    metrics = ctx.metrics
    findings = []
    for mod in modules:
        if mod.relpath.startswith(("repro/obs/", "repro/analysis/")):
            # The bus/registry plumbing forwards caller-supplied names;
            # the analysis package quotes names in rule text.
            if mod.relpath != "repro/obs/__init__.py":
                continue
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            tail = _receiver_tail(node.func)
            name = const_str(node.args[0]) if node.args else None
            if name is None:
                continue
            if node.func.attr == "emit" and tail in ("obs", "bus", "_obs"):
                if name not in events:
                    findings.append(Finding(
                        rule=RULE_EVENT_UNKNOWN, severity="P1",
                        file=mod.relpath, line=node.lineno,
                        message=f"event kind {name!r} is not in "
                                "repro.obs.schema.EVENTS",
                        hint="register it (and document it in "
                             "docs/OBSERVABILITY.md) or fix the typo"))
            elif node.func.attr in _METRIC_METHODS and tail.endswith("metrics"):
                if name not in metrics:
                    findings.append(Finding(
                        rule=RULE_METRIC_UNKNOWN, severity="P1",
                        file=mod.relpath, line=node.lineno,
                        message=f"metric name {name!r} is not in "
                                "repro.obs.schema.METRICS",
                        hint="register it (and document it in "
                             "docs/OBSERVABILITY.md) or fix the typo"))
    return findings
