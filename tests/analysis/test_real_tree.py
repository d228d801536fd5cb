"""The shipped tree must lint clean — this is the acceptance gate CI
enforces (``repro lint`` over ``src/repro``)."""

from pathlib import Path

import repro
from repro.analysis import run_lint


class TestRealTreeIsClean:
    def test_src_repro_lints_clean(self):
        report = run_lint(Path(repro.__file__).parent)
        rendered = report.render_text()
        assert report.findings == [], f"repro lint regressed:\n{rendered}"
