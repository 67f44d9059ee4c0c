"""Command-line front end.

Subcommands: run (integrate, write diagnostics.csv plus optional VTK
snapshots), sweep-eps, sweep-gamma, verify (invariant battery with one
PASS/FAIL line per property), mesh-gen.  Exit status 0 on success, 2 on
configuration or file errors, 3 on solver or property failures.

The environment variable CRACKDYN_DETERMINISTIC=1 requests sequential
assembly; assembly in this build is sequential unconditionally, so all
output files are bitwise reproducible with or without it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import diagnostics, exprlang, fem, interface, meshing, timestepper, vtkio

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_VERIFY_SEED = 9157


def _fmt(x) -> str:
    return repr(float(x))


def _error(msg: str) -> None:
    print(msg, file=sys.stderr)


def _csv_row(rec: diagnostics.DiagnosticsRecord) -> str:
    vals = rec.row()
    return ",".join([_fmt(v) for v in vals[:-1]] + [str(int(vals[-1]))])


def _load_problem(config_path):
    cfg = config_mod.parse_config(config_path)
    return cfg, config_mod.build_problem(cfg)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg, problem = _load_problem(args.config)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    mesh = problem.ops.mesh
    index = 0

    with (outdir / "diagnostics.csv").open("w", encoding="ascii") as fh:
        fh.write(",".join(diagnostics.CSV_COLUMNS) + "\n")

        def on_record(state, rec, info):
            nonlocal index
            fh.write(_csv_row(rec) + "\n")
            fh.flush()
            if cfg.cadence > 0 and index % cfg.cadence == 0:
                vtkio.write_fields(outdir / f"fields_{index:06d}.vtk",
                                   mesh, state.u, state.v,
                                   title=f"t = {_fmt(state.t)}")
            index += 1

        diagnostics.run_with_records(problem, on_record=on_record)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = ("int_pen3_dt", "sup_penetration", "max_acc_h",
                  "dist_to_finest", "cauchy_dist")


def _write_sweep_csv(path, label, rows):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join((label,) + _SWEEP_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(x) for x in
                              (r.value, r.int_pen3_dt, r.sup_penetration,
                               r.max_acc_h, r.dist_to_finest, r.cauchy_dist))
                     + "\n")


def cmd_sweep_eps(args) -> int:
    cfg = config_mod.parse_config(args.config)
    try:
        result = diagnostics.epsilon_sweep(cfg, args.eps)
    except ValueError as exc:
        raise config_mod.ConfigError(str(exc)) from exc
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_sweep_csv(outdir / "sweep_eps.csv", "epsilon", result.rows)
    print(f"fitted penetration order p = {_fmt(result.fitted_order)}")
    return EXIT_OK


def cmd_sweep_gamma(args) -> int:
    cfg = config_mod.parse_config(args.config)
    try:
        rows = diagnostics.gamma_sweep(cfg, args.gamma)
    except ValueError as exc:
        raise config_mod.ConfigError(str(exc)) from exc
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_sweep_csv(outdir / "sweep_gamma.csv", "gamma", rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_monotone(rng) -> tuple[bool, str]:
    worst = np.inf
    for eps in (1.0, 1e-2, 1e-4):
        x, y = rng.uniform(-5.0, 5.0, (2, 10_000))
        worst = min(worst, float(np.min(
            (interface.beta_eps(x, eps) - interface.beta_eps(y, eps)) * (x - y))))
        a, b = rng.uniform(-5.0, 5.0, (2, 10_000, 2))
        da = interface.alpha_eps(a, eps) - interface.alpha_eps(b, eps)
        worst = min(worst, float(np.min(np.einsum("nd,nd->n", da, a - b))))
    return worst >= -1e-12, f"worst monotonicity product {worst:.3e}"


def _check_gradients(rng) -> tuple[bool, str]:
    detail = ""
    for eps in (1.0, 1e-2, 1e-4):
        # points kept away from zero so stencils never straddle the
        # C^1 kink of beta or the curvature spike of alpha
        x = rng.uniform(0.05, 3.0, 100) * rng.choice([-1.0, 1.0], 100)
        scale = 1.0 + float(np.max(np.abs(interface.dbeta_eps(x, eps))))
        for h in (1e-3, 5e-4):
            fd = (interface.beta_eps(x + h, eps)
                  - interface.beta_eps(x - h, eps)) / (2 * h)
            err = float(np.max(np.abs(fd - interface.dbeta_eps(x, eps))))
            if err > 1e-8 * scale:
                return False, f"beta gradient error {err:.3e} at eps={eps}, h={h}"
        r = rng.uniform(0.05, 2.0, 100)
        th = rng.uniform(0.0, 2.0 * np.pi, 100)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        d = rng.standard_normal((100, 2))
        d /= np.linalg.norm(d, axis=1)[:, None]
        errs = []
        for h in (1e-3, 5e-4):
            fd = (interface.alpha_eps(pts + h * d, eps)
                  - interface.alpha_eps(pts - h * d, eps)) / (2 * h)
            exact = np.einsum("nce,ne->nc", interface.dalpha_eps(pts, eps), d)
            errs.append(float(np.max(np.abs(fd - exact))))
        if errs[1] > max(0.35 * errs[0], 1e-9):
            return False, f"alpha gradient not O(h^2): {errs} at eps={eps}"
        detail = f"alpha FD errors {errs[0]:.2e} -> {errs[1]:.2e}"
    return True, detail


def _check_kernel(problem) -> tuple[bool, str]:
    mesh = problem.ops.mesh
    k = problem.ops.stiffness
    xy = mesh.vertices
    modes = [
        np.tile([1.0, 0.0], mesh.n_vertices),
        np.tile([0.0, 1.0], mesh.n_vertices),
        np.column_stack([-xy[:, 1], xy[:, 0]]).ravel(),
    ]
    knorm = float(np.abs(k).max())
    worst = max(float(np.abs(k @ m).max()) / (knorm * max(np.abs(m).max(), 1.0))
                for m in modes)
    return worst <= 1e-12, f"relative kernel residual {worst:.3e}"


def _check_trajectory(cfg, problem) -> list[tuple[str, bool, str]]:
    states, records, infos = diagnostics.run_with_records(problem)
    out = []

    sig_max = -np.inf
    gap_max = 0.0
    contact, quad = problem.ops.contact, problem.ops.quad
    if quad.n_pairs:
        for s in states:
            sn, _ = interface.recover_tractions(
                interface.crack_state(s.u, s.v, s.t, contact, quad), contact)
            sig_max = max(sig_max, float(sn.max()))
        gap_max = max(r.friction_gap for r in records)
    else:
        sig_max = 0.0
    out.append(("normal-traction-nonpositive", sig_max <= 0.0,
                f"max sigma_n {sig_max:.3e}"))
    out.append(("friction-bound-respected", gap_max == 0.0,
                f"max friction gap {gap_max:.3e}"))

    energies = [r.kinetic + r.strain for r in records]
    no_loads = cfg.f is None and cfg.trac is None
    if no_loads and cfg.gamma == 0.0:
        tol = 1e-8 * energies[0]
        rises = max(b - a for a, b in zip(energies, energies[1:]))
        out.append(("energy-decay", rises <= tol,
                    f"worst per-step rise {rises:.3e} vs tol {tol:.3e}"))
    elif no_loads:
        bound = 10.0 * (cfg.gamma + 1.0) ** 2 * energies[0]
        out.append(("energy-bounded", max(energies) <= bound,
                    f"max energy {max(energies):.3e} vs bound {bound:.3e}"))
    else:
        finite = all(math.isfinite(e) for e in energies)
        out.append(("energy-finite", finite, f"final energy {energies[-1]:.3e}"))

    rng = np.random.default_rng(_VERIFY_SEED + 1)
    pts = diagnostics.weighted_points(states, infos, problem.params)
    stride = max(1, len(pts) // 10)
    worst = np.inf
    con = problem.ops.dofmap.constrained
    for t_w, u_w, v_w, a_w, _tol in pts[::stride]:
        z = cfg.gamma * u_w + v_w
        for _ in range(20):
            w = rng.standard_normal(z.shape)
            w[con] = 0.0
            w /= max(np.linalg.norm(w), 1e-30)
            trial = z + w
            worst = min(worst, diagnostics.vi_residual(
                u_w, v_w, a_w, t_w, trial, problem.ops))
    bound = -10.0 * problem.params.newton_tol
    out.append(("vi-inequality", worst >= bound,
                f"min residual {worst:.3e} vs {bound:.3e}"))
    return out


def cmd_verify(args) -> int:
    cfg, problem = _load_problem(args.config)
    rng = np.random.default_rng(_VERIFY_SEED)
    results = [
        ("regularization-monotone",) + _check_monotone(rng),
        ("regularization-gradients",) + _check_gradients(rng),
        ("rigid-body-kernel",) + _check_kernel(problem),
    ]
    try:
        problem.ops.mesh.validate()
        results.append(("mesh-conforming", True, ""))
    except meshing.MeshError as exc:
        results.append(("mesh-conforming", False, str(exc)))
    try:
        results.extend(_check_trajectory(cfg, problem))
    except (timestepper.StepFailure, fem.SolveError) as exc:
        results.append(("trajectory", False, f"solver failure: {exc}"))
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        line = f"PASS {name}" if passed else f"FAIL {name}"
        if detail:
            line += f" ({detail})"
        print(line)
    return EXIT_OK if ok else EXIT_SOLVER


# ---------------------------------------------------------------------------
# mesh-gen
# ---------------------------------------------------------------------------

def cmd_mesh_gen(args) -> int:
    tokens = []
    for chunk in args.spec:
        tokens.extend(chunk.split())
    if not tokens or tokens[0] != "rect" or len(tokens) not in (5, 7):
        _error("mesh spec must be: rect WIDTH HEIGHT NX NY [CRACK_LO CRACK_HI]")
        return EXIT_CONFIG
    try:
        width, height = float(tokens[1]), float(tokens[2])
        nx, ny = int(tokens[3]), int(tokens[4])
        span = (float(tokens[5]), float(tokens[6])) if len(tokens) == 7 else None
        mesh = meshing.generate_rect_crack(width, height, nx, ny, crack_span=span)
    except (ValueError, meshing.MeshError) as exc:
        _error(f"config error: {exc}")
        return EXIT_CONFIG
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    meshing.save_mesh(mesh, out)
    print(f"wrote {out} ({mesh.n_vertices} vertices, {len(mesh.cells)} cells, "
          f"{mesh.n_pairs} crack pairs)")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crackdyn",
        description="Dynamic linear elasticity with regularized crack-face "
                    "contact and Tresca friction.",
        epilog="CRACKDYN_DETERMINISTIC=1 requests sequential assembly "
               "(always the case in this build).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a configuration")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-eps", help="epsilon refinement study")
    p.add_argument("config")
    p.add_argument("eps", nargs="+", type=float)
    p.set_defaults(func=cmd_sweep_eps)

    p = sub.add_parser("sweep-gamma", help="gamma family study")
    p.add_argument("config")
    p.add_argument("gamma", nargs="+", type=float)
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mesh-gen", help="generate a cracked rectangle mesh")
    p.add_argument("spec", nargs="+",
                   help="rect WIDTH HEIGHT NX NY [CRACK_LO CRACK_HI]")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_mesh_gen)
    return parser


_CONFIG_ERRORS = (config_mod.ConfigError, meshing.MeshError, exprlang.ExprError,
                  fem.AssemblyError, interface.FrictionBoundError)


def main(argv=None) -> int:
    """Run one subcommand; configuration and file errors exit 2 and solver
    failures 3, each with a one-line message instead of a traceback."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        _error(f"config error: {exc}")
        return EXIT_CONFIG
    except (timestepper.StepFailure, fem.SolveError) as exc:
        _error(f"solver failure: {exc}")
        return EXIT_SOLVER
    except OSError as exc:
        _error(f"file error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
