"""Engine-level behavior: exit codes, CLI, JSON."""

import json

import pytest

from repro.analysis import LintContext, run_lint
from repro.cli import main

from tests.analysis.conftest import FIXTURES


def _fixture_ctx():
    return LintContext(
        sim_paths=("",),
        hash_surfaces={("fixtures/hash_cases.py", "LeakySpec"):
                       ("canonical",)},
        events=frozenset({"known.event"}),
        metrics=frozenset({"known.metric"}))


class TestReportShapes:
    def test_json_report_is_valid_and_sorted(self):
        report = run_lint(FIXTURES, ctx=_fixture_ctx())
        payload = json.loads(report.to_json())
        assert payload["version"] == 1
        assert payload["summary"]["total"] == len(report.findings)
        files = [f["file"] for f in payload["findings"]]
        severities = [f["severity"] for f in payload["findings"]]
        assert severities == sorted(severities)  # P1 before P2 before P3
        for entry in payload["findings"]:
            assert set(entry) == {"rule", "severity", "file", "line",
                                  "message", "hint"}
            assert entry["line"] >= 1
        assert all(f.startswith("fixtures/") for f in files)

    def test_rule_filter_restricts_passes(self):
        report = run_lint(FIXTURES, ctx=_fixture_ctx(), rules=("REP2",))
        assert report.findings
        assert all(f.rule.startswith("REP2") for f in report.findings)
        report = run_lint(FIXTURES, ctx=_fixture_ctx(), rules=("REP204",))
        assert report.findings
        assert all(f.rule == "REP204" for f in report.findings)


class TestCliContract:
    def test_findings_exit_one(self, capsys):
        # The fixture tree scanned with the *default* repo configuration
        # still has findings (its seeded violations), so exit is 1.
        code = main(["lint", "--root", str(FIXTURES)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP" in out and "finding(s)" in out

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "mod.py").write_text("X = 1\n")
        code = main(["lint", "--root", str(clean),
                     "--rules", "REP2,REP4"])
        assert code == 0

    def test_internal_error_exits_three(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def (:\n")
        code = main(["lint", "--root", str(tmp_path)])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_json_out_file(self, tmp_path, capsys):
        out = tmp_path / "lint_findings.json"
        code = main(["lint", "--root", str(FIXTURES),
                     "--format", "json", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["findings"]

    def test_bad_rules_flag_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--rules", "BOGUS1"])
        assert exc.value.code == 2
