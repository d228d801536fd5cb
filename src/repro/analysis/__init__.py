"""``repro.analysis`` — AST invariant linter for the reproduction.

Three passes guard conventions the rest of the repo relies on and no
test can see (see docs/ANALYSIS.md for the rule catalog, and for the
measurement that retired the rules tier-1 already enforces):

* :mod:`repro.analysis.determinism` — REP2xx: no wall clocks, entropy,
  builtin ``hash()``/``id()``, or unsorted set iteration in simulator /
  sample / hashing modules (bit-identical results across worker
  fan-out).
* :mod:`repro.analysis.hashaxes` — REP3xx: every ``JobSpec``/
  ``SamplingConfig``/``FaultSchedule`` field must reach the content
  hash (cache soundness, PR 1/7).
* :mod:`repro.analysis.obsnames` — REP4xx: every literal event/metric
  name must be registered in :mod:`repro.obs.schema`.

Run it via ``repro lint``; CI gates on a clean report.  There is no
exemption mechanism: a finding gets fixed.
"""

from repro.analysis.engine import (
    DEFAULT_SIM_PATHS,
    LintContext,
    LintReport,
    run_lint,
)
from repro.analysis.findings import SEVERITIES, Finding, sort_findings
from repro.analysis.source import (
    LintError,
    SourceModule,
    iter_modules,
    load_module,
)

__all__ = [
    "DEFAULT_SIM_PATHS",
    "Finding",
    "LintContext",
    "LintError",
    "LintReport",
    "SEVERITIES",
    "SourceModule",
    "iter_modules",
    "load_module",
    "run_lint",
    "sort_findings",
]
