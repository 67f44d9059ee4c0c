"""A battery of hand-written semantic mutants of crackdyn.

Each MUTANTS entry is (file, old, new, why): ``old`` occurs exactly once
in ``file`` (a path from the repository root), and the mutant replaces
it by ``new``.  Mutant k (from 1) is named Mk.  tests/test_mutants.py,
part of the tier-1 suite, checks only that every ``old`` text still
occurs once and that the kill map names an existing test for every
mutant, so neither can rot and a mutant added without a battery run, or
one that survived, fails it; running the battery is this script's job:

    python tests/mutants.py             # every mutant
    python tests/mutants.py M2 M5       # some of them
    python tests/mutants.py --refresh   # every mutant, whole suites

For each mutant it copies src/, tests/, perfbench/ and pyproject.toml to
a temporary directory, applies the mutant there and runs tests on it:
first the test that killed it last, from the kill map
tests/mutant_killers.json, alone; then, only if that test passes (or
the map names none, or --refresh was given), the tier-1 suite with -x
(but for tests/test_mutants.py).  It prints the test that killed the
mutant, or SURVIVED, and records the killer in the map; last come the
battery's wall time and the survivor count.  Two mutants run at a time.
A mutant whose recorded killer still kills it takes one pytest start
and that test; one that survives takes a full suite run, about 30 s.
The working tree is never modified but for the map.  The exit status is
1 if any mutant survived, so the battery can serve as a gate.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KILLERS = Path(__file__).with_name("mutant_killers.json")
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".perfbench", ".pytest_cache")

TS = "src/crackdyn/timestepper.py"
IF = "src/crackdyn/interface.py"
FEM = "src/crackdyn/fem.py"
MESH = "src/crackdyn/meshing.py"
DIAG = "src/crackdyn/diagnostics.py"
VTK = "src/crackdyn/vtkio.py"
EXPR = "src/crackdyn/exprlang.py"
BASIS = "src/crackdyn/basis.py"

MUTANTS = [
    (TS, "load_w = ops.load(t_w)", "load_w = ops.load(state.t + dt)",
     "the load is sampled at the step end instead of t_w"),
    (TS, "tol_abs = params.newton_tol * max(",
     "tol_abs = 1000 * params.newton_tol * max(",
     "the Newton tolerance is 1000 times looser"),
    (TS, "tol_abs = params.newton_tol * max(",
     "tol_abs = 100 * params.newton_tol * max(",
     "the Newton tolerance is 100 times looser"),
    (TS, "interface.crack_state(u_w[cd], v_w[cd], t_w,",
     "interface.crack_state(u_w[cd], v_w[cd], 0.0,",
     "Operators.interval samples g at t = 0, not at t_w"),
    (IF, "return (1.0 - a * a) / phi", "return 1.0 / phi",
     "the friction tangent's pointwise coefficient 1 - a*a is 1"),
    (TS, "[contact.gamma * cu + cv, cv]", "[cv, cv]",
     "NewtonProblem's chain rule drops the gamma*cu of the normal jump"),
    (TS, "newmark_g: float = 0.5", "newmark_g: float = 0.6",
     "the TimeParams default of newmark_g is 0.6"),
    (IF, "g: Expr = exprlang.Num(0.0)", "g: Expr = exprlang.Num(0.05)",
     "a crack without g has friction bound 0.05, not 0"),
    (TS, "cu, cv = g * du, g * dv", "cu, cv = g * du, dv",
     "the weighted velocity's derivative in a+ drops the Newmark g"),
    (TS, "done = slope <= bound if evals == 1",
     "done = True if evals == 1",
     "the line search always keeps the full Newton step"),
    (TS, "new = end(a) if norm_r <= tol_abs < np.inf else None",
     "new = end(a) if norm_r < np.inf else None",
     "a step whose Newton iterations ran out is accepted, not bisected"),
    (FEM, "weights = np.repeat(np.linalg.norm(half, axis=1)[:, None], 2,",
     "weights = np.repeat(np.linalg.norm(b - a, axis=1)[:, None], 2,",
     "each facet quadrature weight is the facet length, not half of it"),
    (TS, "return (0.5 * float(v @ fem.matvec(self.mass, v)),",
     "return (float(v @ fem.matvec(self.mass, v)),",
     "the kinetic energy drops its 1/2"),
    (TS, "cu, cv = g * du, g * dv", "cu, cv = du, g * dv",
     "the weighted displacement's derivative in a+ drops the Newmark g"),
    (FEM, "shapes = (area / 3.0)[:, None, None] * _MIDPOINT_SHAPES",
     "shapes = (area / 2.0)[:, None, None] * _MIDPOINT_SHAPES",
     "each cell midpoint load weight is area/2, not area/3"),
    (FEM, "_MIDPOINT_SHAPES = 0.5 * np.array([[1.0, 0.0, 1.0],",
     "_MIDPOINT_SHAPES = 0.5 * np.array([[1.0, 1.0, 0.0],",
     "the body load of cell vertex 0 is read at vertex 1's edge midpoints"),
    (DIAG, "pen = float(np.sum(quad.weights * m ** 3)) ** (1.0 / 3.0)",
     "pen = float(np.sum(quad.weights * m ** 2)) ** (1.0 / 2.0)",
     "the penetration_L3 column is the L2 norm of the penetration"),
    (DIAG, "comp = float(np.sum(quad.weights * np.abs(sigma_n * s)))",
     "comp = float(np.sum(np.abs(sigma_n * s)))",
     "the comp_residual column drops the quadrature weights"),
    (DIAG, "gap = float(np.maximum(np.abs(sigma_t) - g, 0.0)",
     "gap = float(np.maximum(np.abs(sigma_t) - 0.5 * g, 0.0)",
     "the friction_gap column holds |sigma_t| to g/2, not to g"),
    (DIAG, "g * np.abs(jt) - sigma_t * jt", "g * np.abs(jt) + sigma_t * jt",
     "the stick_slip_residual column adds the traction's work"),
    (BASIS, "unique_ranks(at[b.indices[pa]] * n + at[b.indices[pb]])",
     "unique_ranks(at[b.indices[pa]] * n + at[b.indices[pa]])",
     "the tangent slots put each row of the crack tangent on its diagonal"),
    (FEM, "lam, mu = material.lam, material.mu",
     "mu, lam = material.lam, material.mu",
     "the stiffness has lambda and mu swapped"),
    (DIAG, "tol = 1e-8 * e[0]", "tol = 1e-2 * e[0]",
     "check_energy_decay allows a rise of 1 % of E0 per step"),
    (VTK, 'out = np.zeros((len(values), 3), ">f8")',
     'out = np.zeros((len(values), 3), "<f8")',
     "snapshot points and vectors are written little-endian"),
    (DIAG, "val -= float(ops.load(t) @ dz)",
     "val -= float(ops.load(0.0) @ dz)",
     "vi_residual takes the load at t = 0, not at its own t"),
    (DIAG, "acc = max(acc, math.sqrt(",
     "acc = max(0.0, math.sqrt(",
     "max_acc_h is the last acceleration's H-norm, not the largest"),
    (FEM, "slot = width * (base + c * row_count)",
     "slot = width * (base + (1 - c) * row_count)",
     "the assembly writes each row component's blocks into the rows of "
     "the other component"),
    (FEM, "+ np.arange(mass.shape[0]) % 2)",
     "+ np.arange(mass.shape[0]) % 1)",
     "the linear Jacobian adds every mass entry to the first component's "
     "column"),
    (IF, "g * alpha_eps(jt, params.epsilon)", "alpha_eps(jt, params.epsilon)",
     "the recovered tangential traction drops the friction bound g"),
    (FEM, "_GAUSS2 = 1.0 / np.sqrt(3.0)", "_GAUSS2 = 0.5",
     "the facet Gauss points sit at +-1/2, not +-1/sqrt(3)"),
    (IF, "return m * m * m / (3.0 * eps)", "return m * m * m / (2.0 * eps)",
     "psi_eps is not the antiderivative of beta_eps"),
    (IF, "np.sqrt(x * x + eps * eps)", "np.sqrt(x * x + eps)",
     "phi_eps smooths with epsilon, not epsilon^2"),
    (TS, "eta = min(_CG_FORCING_MAX, 0.9 * ratio * ratio)",
     "eta = min(_CG_FORCING_MAX, 0.9 * ratio)",
     "the Eisenstat-Walker forcing term is linear in the contraction"),
    (DIAG, "cauchy = (_state_distance(ops, final, runs[k - 1][1])",
     "cauchy = (_state_distance(ops, final, runs[k][1])",
     "cauchy_dist measures each run's distance to itself"),
    (DIAG, "bound = -10.0 * tol_abs", "bound = -1000.0 * tol_abs",
     "the check_vi bound is 100 times looser"),
    (TS, "a0 = self.nodal(fem.solve_spd(mass, -r, tol=_CG_TOL))",
     "a0 = self.nodal(fem.solve_spd(mass, -r, tol=1e-4))",
     "the initial acceleration is solved only to 1e-4"),
    (TS, "_LS_ETA = 0.5 ", "_LS_ETA = 0.95 ",
     "the line search's slope test is 0.95, not 0.5"),
    (FEM, "grads[0] = -grads[1] - grads[2]",
     "grads[0] = grads[1] + grads[2]",
     "the gradient of each cell's basis function 0 has the wrong sign"),
    (MESH, "np.add(corners[:, None, :] * nv, corners[None, :, :],",
     "np.add(corners[None, :, :] * nv, corners[:, None, :],",
     "each cell's (a, b) slot of the vertex graph holds the pair (b, a)"),
    (MESH, "in_plus[self.cells[plus]] = True\n"
     "        in_minus[self.cells[~plus]] = True",
     "in_plus[self.cells[~plus]] = True\n"
     "        in_minus[self.cells[plus]] = True",
     "the crack separation check swaps the plus and minus vertex masks"),
    (EXPR, """        if self.toks[self.pos][1] == "^":
            self.pos += 1
            # unary on the right makes '^' right associative and lets a
            # leading minus appear in the exponent without parentheses
            return Call("^", (e, self.unary()))
        return e""",
     """        while self.toks[self.pos][1] == "^":
            self.pos += 1
            e = Call("^", (e, self.atom()))
        return e""",
     "'^' is left associative, and its exponent is an atom"),
    (EXPR, '"sqrt": (1, np.sqrt, _sqrt_check),', '"sqrt": (1, np.sqrt, None),',
     "sqrt has no domain check: a negative argument gives nan"),
    (EXPR, '"min": (2, np.minimum, None),\n    "max": (2, np.maximum, None),',
     '"min": (2, np.maximum, None),\n    "max": (2, np.minimum, None),',
     "min and max swap their functions in the operations table"),
    (EXPR, "if not all(isinstance(a, _Value) for a in expr.args):",
     "if not any(isinstance(a, _Value) for a in expr.args):",
     "bind folds a call whose arguments are not all t-free"),
    (BASIS, "self._diag[basis.diagonal_rows] = self.newton_at[basis.diagonal]",
     "self._diag[basis.diagonal_rows] = self.lin_at[basis.diagonal]",
     "Jacobi is blind to the crack tangents: it takes lin's diagonal"),
    (TS, "cg_tol = max(_CG_TOL, forcing, _CG_FLOOR * tol_abs / norm_r)",
     "cg_tol = max(1e-3, forcing, _CG_FLOOR * tol_abs / norm_r)",
     "no CG solve goes below a relative tolerance of 0.001"),
    (TS, "max(_CG_FORCING, 0.1 * rho)", "max(_CG_FORCING, 0.1)",
     "the first forcing term ignores the previous contraction"),
    (TS, "_LS_CLAMP = 0.1 ", "_LS_CLAMP = 0.45 ",
     "regula falsi keeps its trials 0.45 of the bracket inside it"),
    (BASIS, """        w[self.dofs] = _turn_groups(x[self.free_at], slice(None), self.q,
                                    transpose=True)""",
     "        w[self.dofs] = x[self.free_at]",
     "the basis is applied on the way in but not on the way out"),
    (BASIS, "frame = frames(normal)",
     "frame = np.tile(np.eye(2), (len(normal), 1, 1))",
     "the mean and the jump are taken in (x, y), not in the crack's frame"),
    (TS, "rest = at[1] - tau - alpha * td", "rest = at[1] - tau",
     "a trial's crack remainder, its slope's and the carried residual's, "
     "drops s*T d"),
    (TS, """        if norm_r <= tol_abs:   # r was carried: accept on the true one
            r, point = problem.evaluate(a)
            norm_r = float(np.linalg.norm(r))
""", "",
     "a step is accepted on the carried residual, without the true one"),
    (BASIS, "row[order], indptr", "(row - row % 2)[order], indptr",
     "S weights each point's tangential row with its normal derivative"),
    (TS, "return float(np.vdot(rest, bd)), (rest, at)",
     "return float(np.vdot(rest + alpha * td, bd)), (rest, at)",
     "a line-search trial's slope drops s*d^T T d"),
    (BASIS, "self.jumps = (quad.jumps @ g).tocsr()",
     "self.jumps = quad.jumps",
     "B is J: the crack unknowns are read as nodal values"),
    (TS, "point_x, norm_x, True\n",
     "point_x, norm_x, True\n"
     "            tol_abs = params.newton_tol * max(load_norm, norm_x)\n",
     "a step started from the predictor takes its tolerance there"),
    (TS, "return a + (past[0] - past[1])", "return a - (past[0] - past[1])",
     "the predictor flips the alternating term: a_n - a_(n-1) + a_(n-2)"),
    (TS, "if norm_x < norm_r:", "if True:",
     "Newton starts from the predictor whatever its residual"),
    (TS, "rise = self.chain * bd", "rise = self.chain[0] * bd",
     "a line-search trial moves the tangential jumps by the normal chain"),
    (IF, "direction = frames(mesh.crack_normals)",
     "direction = frames(np.broadcast_to(mesh.crack_normals[:1],\n"
     "                                       mesh.crack_normals.shape))",
     "every crack pair takes the first pair's normal"),
    (IF, "direction = frames(mesh.crack_normals)",
     "direction = frames(mesh.crack_normals)\n"
     "        direction[:, 1] = direction[:1, 1]",
     "every crack pair keeps its own normal but takes the first pair's "
     "tangent"),
    (FEM, "return 2 * np.asarray(vertices)[..., None] + np.arange(2)",
     "return 2 * np.asarray(vertices)[..., None] + np.arange(2)[::-1]",
     "vertex_dofs swaps the x and y dofs of every vertex"),
    (FEM, "y = np.zeros(m)", "y = np.ones(m)",
     "fem.matvec starts its output at 1: the kernel adds onto it"),
    (MESH, '        perp[np.einsum("pd,pd->p", perp, outward) < 0] *= -1.0\n',
     "", "the derived crack normals are not turned away from the minus cell"),
]


def apply(tree: Path, mutant) -> None:
    file, old, new, _ = mutant
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{file}: the old text of the mutant must occur "
                         f"once: {old!r}")
    path.write_text(text.replace(old, new))


def run_one(mutant, first=None) -> str:
    """The tier-1 verdict on one mutant: 'killed by <test>' or
    'SURVIVED'.  first, a test id, runs alone before the suite, which
    runs only if first passes."""
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
        runs = [[first]] if first else []
        runs.append(["--ignore=tests/test_mutants.py"])
        for args in runs:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", "--continue-on-collection-errors",
                 *args], cwd=tree, env=env, capture_output=True, text=True)
            failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$",
                                done.stdout, re.M)
            if done.returncode == 1 and failed:
                return "killed by " + failed[0]
    # pytest exits 1 when tests fail; any other failure is reported as is
    if done.returncode == 0:
        return "SURVIVED"
    return f"killed by pytest exit {done.returncode}"


def main(argv) -> int:
    names = {f"M{k + 1}": m for k, m in enumerate(MUTANTS)}
    refresh = "--refresh" in argv
    chosen = [a for a in argv if a != "--refresh"] or list(names)
    unknown = [n for n in chosen if n not in names]
    if unknown:
        print(f"unknown mutants {unknown}; known: {list(names)}",
              file=sys.stderr)
        return 2
    killers = {} if refresh else json.loads(KILLERS.read_text())
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        verdicts = pool.map(lambda n: run_one(names[n], killers.get(n)),
                            chosen)
        survivors = 0
        for name, verdict in zip(chosen, verdicts):
            survivors += verdict == "SURVIVED"
            killers.pop(name, None)
            if verdict.startswith("killed by tests/"):
                killers[name] = verdict.removeprefix("killed by ")
            print(f"{name}: {verdict}  ({names[name][3]})", flush=True)
    KILLERS.write_text(json.dumps(
        {n: killers[n] for n in names if n in killers}, indent=1) + "\n")
    print(f"battery wall time {time.perf_counter() - start:.0f} s")
    print(f"{survivors} of {len(chosen)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
