"""Meta-test: the checker must catch a deliberately broken real surface.

Two real sources, broken on a copy:

* ``TargetPredictor`` (a leaf: fields declared once in ``WARM``) — drop
  one ``WARM`` entry and the pass must flag exactly that attribute;
* ``PredictorBank`` (a composite: hand-written delegations) — sever
  every surface read of ``targets`` and the pass must flag it, while
  severing only one keeps it covered.
"""

from pathlib import Path

import repro
from repro.analysis import iter_modules
from repro.analysis.surface import check_surfaces

PREDICTOR = Path(repro.__file__).parent / "predictor"
BANK = PREDICTOR / "bank.py"
TARGETS = PREDICTOR / "targets.py"

_WARM_ENTRY = '        ("_ctb", _encode_tagged, _decode_tagged),\n'

_SURFACE_READS = (
    ('                "targets": self.targets.state_dict()}',
     "                }"),
    ('                          (self.targets, state["targets"])))',
     "                          ))"),
    ("        self.targets.swap_state(other.targets)",
     "        pass"),
)


def _scan(tmp_path, source):
    (tmp_path / "copy.py").write_text(source, encoding="utf-8")
    return check_surfaces(iter_modules(tmp_path))


class TestDroppedWarmEntryIsCaught:
    def test_pristine_targets_is_clean(self, tmp_path):
        assert _scan(tmp_path, TARGETS.read_text(encoding="utf-8")) == []

    def test_dropped_entry_is_flagged(self, tmp_path):
        source = TARGETS.read_text(encoding="utf-8")
        assert _WARM_ENTRY in source, (
            "TargetPredictor.WARM changed shape; update _WARM_ENTRY")
        (finding,) = _scan(tmp_path, source.replace(_WARM_ENTRY, ""))
        assert finding.rule == "REP101"
        assert "TargetPredictor._ctb" in finding.message


class TestBrokenStateDictIsCaught:
    def test_pristine_bank_is_clean(self, tmp_path):
        assert _scan(tmp_path, BANK.read_text(encoding="utf-8")) == []

    def test_severed_targets_read_is_flagged(self, tmp_path):
        source = BANK.read_text(encoding="utf-8")
        for needle, replacement in _SURFACE_READS:
            assert needle in source, (
                "PredictorBank changed shape; update _SURFACE_READS")
            source = source.replace(needle, replacement)
        findings = _scan(tmp_path, source)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "REP101"
        assert "PredictorBank.targets" in finding.message

    def test_partial_severing_is_still_covered(self, tmp_path):
        """Removing only the state_dict read keeps stage_state/swap
        coverage — the pass should stay quiet (reads in *any* surface
        method count for a composite)."""
        needle, replacement = _SURFACE_READS[0]
        source = BANK.read_text(encoding="utf-8").replace(
            needle, replacement)
        assert _scan(tmp_path, source) == []
