"""The mutant battery (tests/mutants.py) cannot rot: every mutant's old
text occurs exactly once in its file.  Running the battery, one tier-1
suite per mutant, is left to ``python tests/mutants.py``."""

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[f"M{k + 1}" for k in range(len(MUTANTS))])
def test_mutant_old_text_occurs_once(mutant):
    file, old, new, why = mutant
    assert old != new and why
    assert (ROOT / file).read_text().count(old) == 1
