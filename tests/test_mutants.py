"""The mutant battery (tests/mutants.py) cannot rot: every mutant's old
text occurs exactly once in its file, the kill map names only mutants
and tests that exist, and the runner's exit status reports survivors.
Running the battery, one tier-1 test or suite per mutant, is left to
``python tests/mutants.py``."""

import ast
import json

import mutants
import pytest
from mutants import KILLERS, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[f"M{k + 1}" for k in range(len(MUTANTS))])
def test_mutant_old_text_occurs_once(mutant):
    file, old, new, why = mutant
    assert old != new and why
    assert (ROOT / file).read_text().count(old) == 1


def test_kill_map_names_existing_mutants_and_tests():
    # each recorded killer is a test function of a tests/ module, and a
    # parametrized one where the id names parameters
    killers = json.loads(KILLERS.read_text())
    assert set(killers) <= {f"M{k + 1}" for k in range(len(MUTANTS))}
    for test_id in killers.values():
        path, name = test_id.split("::")
        assert path.startswith("tests/test_")
        tree = ast.parse((ROOT / path).read_text())
        tests = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        function = name.split("[")[0]
        assert function in tests, test_id
        if "[" in name:
            assert any("parametrize" in ast.unparse(d)
                       for d in tests[function].decorator_list), test_id


@pytest.mark.parametrize("verdict, status", [
    ("killed by tests/test_a.py::test_b", 0), ("SURVIVED", 1)],
    ids=["killed by a test-0", "SURVIVED-1"])
def test_battery_exits_1_when_a_mutant_survives(monkeypatch, capsys,
                                                 tmp_path, verdict, status):
    # each mutant's recorded killer is tried first; a killer found is
    # recorded, and a survivor's entry is dropped
    killers = tmp_path / "killers.json"
    killers.write_text('{"M1": "tests/test_old.py::test_c"}')
    monkeypatch.setattr(mutants, "KILLERS", killers)
    tried = []

    def run_one(mutant, first=None):
        tried.append(first)
        return verdict
    monkeypatch.setattr(mutants, "run_one", run_one)
    assert mutants.main(["M1", "M2"]) == status
    assert tried == ["tests/test_old.py::test_c", None]
    assert capsys.readouterr().out.endswith(
        f"{2 * status} of 2 mutants survived\n")
    recorded = {} if status else {"M1": "tests/test_a.py::test_b",
                                  "M2": "tests/test_a.py::test_b"}
    assert json.loads(killers.read_text()) == recorded
