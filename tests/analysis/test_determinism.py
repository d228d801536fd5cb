"""REP201-REP204 — determinism pass on the fixture functions."""

from repro.analysis.determinism import check_determinism
from repro.analysis.engine import LintContext

from tests.analysis.conftest import module_named


def _findings(fixture_modules):
    mod = module_named(fixture_modules, "determinism_cases")
    ctx = LintContext(sim_paths=("",), events=frozenset(),
                      metrics=frozenset())
    return check_determinism([mod], ctx)


def _rules_by_line(findings, mod):
    src = mod.path.read_text(encoding="utf-8").splitlines()
    return {(f.rule, src[f.line - 1].strip()) for f in findings}


class TestDeterminismPass:
    def test_wall_clock_flagged(self, fixture_modules):
        findings = _findings(fixture_modules)
        assert any(f.rule == "REP201" and "time.time" in f.message
                   for f in findings)

    def test_entropy_flagged(self, fixture_modules):
        findings = _findings(fixture_modules)
        assert any(f.rule == "REP202" and "os.urandom" in f.message
                   for f in findings)

    def test_builtin_hash_and_id_flagged(self, fixture_modules):
        findings = [f for f in _findings(fixture_modules)
                    if f.rule == "REP203"]
        assert len(findings) == 2
        assert all(f.severity == "P2" for f in findings)

    def test_set_iteration_flagged(self, fixture_modules):
        mod = module_named(fixture_modules, "determinism_cases")
        lines = {f.line for f in _findings(fixture_modules)
                 if f.rule == "REP204"}
        src = mod.lines
        flagged = {src[line - 1].strip() for line in lines}
        assert any("for core in cores" in text for text in flagged)
        assert any("for c in live" in text for text in flagged)
        assert any("for s in store_ids" in text for text in flagged)
        assert any("for item in shared" in text for text in flagged)

    def test_safe_idioms_not_flagged(self, fixture_modules):
        mod = module_named(fixture_modules, "determinism_cases")
        src = mod.lines
        flagged = {src[f.line - 1] for f in _findings(fixture_modules)}
        for text in flagged:
            assert "sorted(cores)" not in text
            assert "sum(c for c" not in text
            assert "return core in cores" not in text

    def test_out_of_scope_module_skips_strict_rules(self, fixture_modules):
        mod = module_named(fixture_modules, "determinism_cases")
        ctx = LintContext(sim_paths=("nowhere/",), events=frozenset(),
                          metrics=frozenset())
        findings = check_determinism([mod], ctx)
        # REP201-203 are scoped out; REP204 still applies everywhere.
        assert all(f.rule == "REP204" for f in findings)
        assert findings
