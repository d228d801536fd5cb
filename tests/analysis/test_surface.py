"""REP101 — transfer-surface completeness on the fixture classes."""

from repro.analysis.surface import check_surfaces

from tests.analysis.conftest import module_named


def _findings(fixture_modules):
    mod = module_named(fixture_modules, "surface_cases")
    return check_surfaces([mod])


def _by_class(findings):
    out = {}
    for f in findings:
        cls = f.message.split(".", 1)[0]
        out.setdefault(cls, []).append(f)
    return out


class TestSurfacePass:
    def test_bad_bank_history_is_flagged(self, fixture_modules):
        by_class = _by_class(_findings(fixture_modules))
        assert "BadBank" in by_class
        (finding,) = by_class["BadBank"]
        assert "history" in finding.message
        assert finding.rule == "REP101"
        assert finding.severity == "P1"
        assert finding.file.endswith("surface_cases.py")
        assert finding.line > 0

    def test_late_assignment_is_state(self, fixture_modules):
        by_class = _by_class(_findings(fixture_modules))
        (finding,) = by_class["LateBinder"]
        assert "_cursor" in finding.message

    def test_covered_class_is_clean(self, fixture_modules):
        assert "GoodBank" not in _by_class(_findings(fixture_modules))

    def test_inline_marker_suppresses(self, fixture_modules):
        assert "AllowedBank" not in _by_class(_findings(fixture_modules))

    def test_declared_fields_are_covered(self, fixture_modules):
        assert "GoodWarm" not in _by_class(_findings(fixture_modules))

    def test_field_missing_from_warm_is_flagged(self, fixture_modules):
        (finding,) = _by_class(_findings(fixture_modules))["BadWarm"]
        assert "BadWarm._hist" in finding.message
        assert "(WARM)" in finding.message

    def test_warm_name_never_assigned_is_flagged(self, fixture_modules):
        (finding,) = _by_class(_findings(fixture_modules))["GhostWarm"]
        assert finding.rule == "REP101"
        assert "WARM names _ghost" in finding.message
        assert "GhostWarm" in finding.message

    def test_class_without_surface_is_ignored(self, fixture_modules):
        assert "NoSurface" not in _by_class(_findings(fixture_modules))

    def test_exactly_the_seeded_violations(self, fixture_modules):
        classes = sorted(_by_class(_findings(fixture_modules)))
        assert classes == ["BadBank", "BadWarm", "GhostWarm", "LateBinder"]
