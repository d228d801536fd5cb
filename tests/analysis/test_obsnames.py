"""REP401/REP402 — obs schema pass on the fixture emitter."""

from repro.analysis.engine import LintContext
from repro.analysis.obsnames import check_obs_names

from tests.analysis.conftest import module_named


def _findings(fixture_modules):
    mod = module_named(fixture_modules, "obs_cases")
    return check_obs_names([mod], LintContext(
        events=frozenset({"known.event"}),
        metrics=frozenset({"known.metric"})))


class TestObsNamesPass:
    def test_unknown_event_flagged(self, fixture_modules):
        findings = _findings(fixture_modules)
        assert any(f.rule == "REP401" and "unknown.event" in f.message
                   for f in findings)

    def test_unknown_metric_flagged_for_inc_and_gauge(self, fixture_modules):
        names = sorted(f.message.split("'")[1] for f in
                       _findings(fixture_modules) if f.rule == "REP402")
        assert names == ["unknown.gauge", "unknown.metric"]

    def test_known_names_and_non_obs_receivers_clean(self, fixture_modules):
        messages = " ".join(f.message for f in _findings(fixture_modules))
        assert "'known.event'" not in messages
        assert "'known.metric'" not in messages
        assert "add r1" not in messages          # program.emit is not obs
        assert "computed." not in messages       # non-literal skipped
        assert "dyn." not in messages            # f-string skipped
