"""A battery of hand-written semantic mutants of crackdyn.

Each MUTANTS entry is (file, old, new, why): ``old`` occurs exactly once
in ``file`` (a path from the repository root), and the mutant replaces
it by ``new``.  Mutant k (from 1) is named Mk.  tests/test_mutants.py,
part of the tier-1 suite, checks only that every ``old`` text still
occurs once, so the list cannot rot; running the battery is this
script's job:

    python tests/mutants.py            # every mutant
    python tests/mutants.py M2 M5      # some of them

For each mutant it copies src/, tests/, perfbench/ and pyproject.toml to
a temporary directory, applies the mutant there, runs the tier-1 suite
with -x (but for tests/test_mutants.py), and prints the test that
killed the mutant, or SURVIVED.  A
mutant that survives takes one full suite run, about 30 s.  The working
tree is never modified.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".perfbench", ".pytest_cache")

TS = "src/crackdyn/timestepper.py"
IF = "src/crackdyn/interface.py"

MUTANTS = [
    (TS, "load_w = ops.load(t_w)", "load_w = ops.load(state.t + dt)",
     "the load is sampled at the step end instead of t_w"),
    (TS, "tol_abs = params.newton_tol * max(",
     "tol_abs = 1000 * params.newton_tol * max(",
     "the Newton tolerance is 1000 times looser"),
    (TS, "tol_abs = params.newton_tol * max(",
     "tol_abs = 100 * params.newton_tol * max(",
     "the Newton tolerance is 100 times looser"),
    (TS, "g = interface.friction_bound_values(contact, quad, t_w)",
     "g = interface.friction_bound_values(contact, quad, 0.0)",
     "Operators.interval samples g at t = 0, not at t_w"),
    (IF, "(jump - a[..., :, None] * (a[..., None, :] @ jump))", "jump",
     "the friction tangent's pointwise coefficient I - a a^T is I"),
    (IF, "chain = params.gamma * coeff_u + coeff_v", "chain = coeff_v",
     "the contact tangent drops the gamma*coeff_u of its chain rule"),
    (TS, "newmark_g: float = 0.5", "newmark_g: float = 0.6",
     "the TimeParams default of newmark_g is 0.6"),
    (IF, "return np.zeros((quad.n_pairs, 2))",
     "return np.full((quad.n_pairs, 2), 0.05)",
     "a crack without g has friction bound 0.05, not 0"),
]


def apply(tree: Path, mutant) -> None:
    file, old, new, _ = mutant
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{file}: the old text of the mutant must occur "
                         f"once: {old!r}")
    path.write_text(text.replace(old, new))


def run_one(mutant) -> str:
    """The tier-1 verdict on one mutant: 'killed by <test>' or
    'SURVIVED'."""
    with tempfile.TemporaryDirectory(prefix="crackdyn-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=IGNORED)
            else:
                shutil.copy2(src, tree / name)
        apply(tree, mutant)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        where = subprocess.run(
            [sys.executable, "-c", "import crackdyn; print(crackdyn.__file__)"
             ], cwd=tree, env=env, capture_output=True, text=True).stdout
        if not where.startswith(str(tree)):
            raise RuntimeError(f"the mutant copy is not the one imported: "
                               f"{where!r}")
        # the list's own check fails on every mutant: leave it out
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors",
             "--ignore=tests/test_mutants.py"],
            cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "SURVIVED"
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout,
                        re.M)
    return "killed by " + (failed[0] if failed
                           else f"pytest exit {done.returncode}")


def main(argv) -> int:
    names = {f"M{k + 1}": m for k, m in enumerate(MUTANTS)}
    chosen = argv or list(names)
    unknown = [n for n in chosen if n not in names]
    if unknown:
        print(f"unknown mutants {unknown}; known: {list(names)}",
              file=sys.stderr)
        return 2
    survivors = 0
    for name in chosen:
        verdict = run_one(names[name])
        survivors += verdict == "SURVIVED"
        print(f"{name}: {verdict}  ({names[name][3]})", flush=True)
    print(f"{survivors} of {len(chosen)} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
