"""The seeded-bug table (``tests/mutants.py``) cannot go stale silently:
every row still applies to the tree, and names catchers that exist."""

import pytest

from tests.mutants import LINT, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_row_applies_exactly_once(mutant):
    __, path, old, new, catcher = mutant
    assert old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    assert catcher == LINT or all(
        (ROOT / test.split("::")[0]).is_file() for test in catcher)
