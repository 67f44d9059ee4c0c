"""Command-line front end.

Subcommands: run (integrate, write diagnostics.csv plus optional VTK
snapshots), sweep-eps, sweep-gamma, verify (invariant battery with one
PASS/FAIL line per property), mesh-gen.  Exit status 0 on success, 2 on
configuration or file errors, 3 on solver or property failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
    index = 0
    snapshots = (vtkio.SnapshotWriter(problem.ops.mesh) if cfg.cadence > 0
                 else contextlib.nullcontext())

    with snapshots as writer, \
            (outdir / "diagnostics.csv").open("w", encoding="ascii") as fh:
        fh.write(",".join(diagnostics.CSV_COLUMNS) + "\n")

        def on_record(state, rec, info):
            nonlocal index
            fh.write(_csv_row(rec) + "\n")
            fh.flush()
            if writer and index % cfg.cadence == 0:
                writer.write(outdir / f"fields_{index:06d}.vtk",
                             state.u, state.v, title=f"t = {_fmt(state.t)}")
            index += 1

        diagnostics.run_with_records(problem, on_record=on_record)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = ("int_pen3_dt", "sup_penetration", "max_acc_h",
                  "dist_to_finest", "cauchy_dist")


def _write_sweep_csv(cfg, name, label, rows):
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / name).open("w", encoding="ascii") as fh:
        fh.write(",".join((label,) + _SWEEP_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(x) for x in dataclasses.astuple(r)) + "\n")


def cmd_sweep_eps(args) -> int:
    cfg = config_mod.parse_config(args.config)
    result = diagnostics.epsilon_sweep(cfg, args.eps)
    _write_sweep_csv(cfg, "sweep_eps.csv", "epsilon", result.rows)
    print(f"fitted penetration order p = {_fmt(result.fitted_order)}")
    return EXIT_OK


def cmd_sweep_gamma(args) -> int:
    cfg = config_mod.parse_config(args.config)
    rows = diagnostics.gamma_sweep(cfg, args.gamma)
    _write_sweep_csv(cfg, "sweep_gamma.csv", "gamma", rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg, problem = _load_problem(args.config)
    rng = np.random.default_rng(_VERIFY_SEED)
    results = [diagnostics.check_monotone(10_000, rng),
               diagnostics.check_gradients(100, rng),
               diagnostics.check_kernel(problem.ops.mesh,
                                        problem.ops.stiffness)]
    try:
        states, records, infos = diagnostics.run_with_records(problem)
    except (timestepper.StepFailure, fem.SolveError) as exc:
        results.append(diagnostics.Check(
            "trajectory", False, f"solver failure: {exc}", math.nan))
    else:
        results += [diagnostics.check_normal_traction(problem, states),
                    diagnostics.check_friction_bound(records),
                    diagnostics.check_energy(cfg, records),
                    diagnostics.check_vi(problem, states, infos, 10, 20,
                                         _VERIFY_SEED + 1)]
    for check in results:
        detail = f" ({check.detail})" if check.detail else ""
        print(f"{'PASS' if check.ok else 'FAIL'} {check.name}{detail}")
    return EXIT_OK if all(check.ok for check in results) else EXIT_SOLVER


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
                    "contact and Tresca friction.")
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
    failures 3, each with a one-line message instead of a traceback.
    numpy's floating-point warnings are off: a value that overflows is
    caught by an explicit finiteness check, which names it."""
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
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
