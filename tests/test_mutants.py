"""The mutant battery (tests/mutants.py) cannot rot: every mutant's old
text occurs exactly once in its file, and the runner's exit status
reports survivors.  Running the battery, one tier-1 suite per mutant, is
left to ``python tests/mutants.py``."""

import mutants
import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[f"M{k + 1}" for k in range(len(MUTANTS))])
def test_mutant_old_text_occurs_once(mutant):
    file, old, new, why = mutant
    assert old != new and why
    assert (ROOT / file).read_text().count(old) == 1


@pytest.mark.parametrize("verdict, status", [("killed by a test", 0),
                                             ("SURVIVED", 1)])
def test_battery_exits_1_when_a_mutant_survives(monkeypatch, capsys,
                                                 verdict, status):
    monkeypatch.setattr(mutants, "run_one", lambda mutant: verdict)
    assert mutants.main(["M1", "M2"]) == status
    assert capsys.readouterr().out.endswith(
        f"{2 * status} of 2 mutants survived\n")
