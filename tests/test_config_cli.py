import csv
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import crackdyn
from crackdyn import cli
from crackdyn import config as config_mod
from crackdyn.config import ConfigError, parse_config_text
from crackdyn.meshing import load_mesh

BASE = """\
[mesh]
kind = rect
width = 2.0
height = 1.0
nx = 8
ny = 4
crack_lo = 0.25
crack_hi = 0.75

[material]
lambda = 1.0
mu = 1.0
rho = 1.0

[contact]
gamma = 0.0
epsilon = 1e-2
g = 0.05

[time]
t_end = 0.12
dt = 5e-3

[data]
u0 = (0, -0.12*exp(-((x-0.9)^2 + (y-0.6)^2)/0.01))
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_full_roundtrip():
    cfg = parse_config_text(BASE + "\n[output]\ndirectory = results\ncadence = 4\n")
    assert cfg.mesh.kind == "rect"
    assert cfg.mesh.nx == 8 and cfg.mesh.ny == 4
    assert cfg.mesh.crack == (0.25, 0.75)
    assert cfg.material.lam == 1.0 and cfg.material.rho == 1.0
    assert cfg.gamma == 0.0 and cfg.epsilon == 1e-2
    assert cfg.g is not None
    assert cfg.time.t_end == 0.12 and cfg.time.dt == 5e-3
    assert cfg.u0 is not None and cfg.v0 is None
    assert cfg.output_dir == "results" and cfg.cadence == 4


def test_parse_defaults():
    text = ("[mesh]\nkind = rect\nwidth = 1\nheight = 1\nnx = 2\nny = 2\n"
            "[material]\nlambda = 1\nmu = 1\nrho = 1\n"
            "[time]\nt_end = 1\ndt = 0.5\n")
    cfg = parse_config_text(text)
    assert cfg.mesh.crack is None
    assert cfg.gamma == 0.0
    assert cfg.epsilon == 1e-2
    assert cfg.g is None
    assert cfg.time.newmark_b == 0.25 and cfg.time.newmark_g == 0.5
    assert cfg.output_dir == "out" and cfg.cadence == 0


@pytest.mark.parametrize("mutate,needle", [
    (lambda t: t.replace("[mesh]", "[grid]"), "unknown section"),
    (lambda t: t.replace("nx = 8", "nx = 8\nfoo = 1"), "unknown key"),
    (lambda t: t.replace("crack_hi = 0.75\n", ""), "together"),
    (lambda t: t.replace("mu = 1.0", "mu = -1.0"), "material"),
    (lambda t: t.replace("dt = 5e-3", "dt = 5e-3\nnewmark_g = 0.4"), "newmark_g"),
    (lambda t: t.replace("t_end = 0.12", "t_end = -1"), "time"),
    (lambda t: t.replace("epsilon = 1e-2", "epsilon = 0"), "contact"),
    (lambda t: t.replace("(0, ", "0, "), "vector"),
    (lambda t: t.replace("u0 = (0, ", "u0 = (0, 1, "), "components"),
    (lambda t: t.replace("rho = 1.0\n", ""), "missing required key"),
    (lambda t: t.replace("nx = 8", "nx = eight"), "not an integer"),
    (lambda t: t.replace("u0 = (0", "u0 = (sin(0", ), "u0"),
])
def test_parse_rejects(mutate, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config_text(mutate(BASE))


def test_parse_mesh_from_file(tmp_path):
    mesh_path = tmp_path / "m.txt"
    assert cli.main(["mesh-gen", "rect", "2", "1", "4", "2", "0.25", "0.75",
                     "-o", str(mesh_path)]) == 0
    text = ("[mesh]\nkind = file\npath = %s\n"
            "[material]\nlambda = 1\nmu = 1\nrho = 1\n"
            "[time]\nt_end = 0.01\ndt = 0.01\n" % mesh_path)
    cfg = parse_config_text(text)
    problem = config_mod.build_problem(cfg)
    assert problem.ops.mesh.n_vertices == 16
    with pytest.raises(ConfigError, match="path"):
        parse_config_text(text.replace("path = %s\n" % mesh_path, ""))


def test_build_problem_checks_friction_bound():
    cfg = parse_config_text(BASE.replace("g = 0.05", "g = 0.05 - t"))
    with pytest.raises(ConfigError, match="negative"):
        config_mod.build_problem(cfg)


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def run_cfg_text(outdir, extra=""):
    return BASE + extra + f"\n[output]\ndirectory = {outdir}\n"


def test_run_writes_diagnostics(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == ",".join(
        ("t", "kinetic", "strain", "penetration_L3", "comp_residual",
         "friction_gap", "stick_slip_residual", "newton_iters"))
    assert len(lines) == 1 + 24 + 1          # header + 24 steps + initial row
    with open(tmp_path / "out" / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ts = [float(r["t"]) for r in rows]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.12)
    assert all(math.isfinite(float(r["kinetic"])) for r in rows)
    assert max(float(r["penetration_L3"]) for r in rows) > 0.0
    assert all(float(r["friction_gap"]) == 0.0 for r in rows)
    assert all(r["newton_iters"] == str(int(float(r["newton_iters"])))
               for r in rows)


def test_run_zero_data_gives_zero_rows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text(tmp_path / "out").replace(
        "[data]\nu0 = (0, -0.12*exp(-((x-0.9)^2 + (y-0.6)^2)/0.01))\n", "")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg]) == 0
    with open(tmp_path / "out" / "diagnostics.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            for key, val in row.items():
                if key != "t":
                    assert float(val) == 0.0


def test_run_is_bitwise_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_a = write_cfg(tmp_path, run_cfg_text(tmp_path / "a"), "a.cfg")
    cfg_b = write_cfg(tmp_path, run_cfg_text(tmp_path / "b"), "b.cfg")
    assert cli.main(["run", cfg_a]) == 0
    monkeypatch.setenv("CRACKDYN_DETERMINISTIC", "1")
    assert cli.main(["run", cfg_b]) == 0
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b


def test_run_writes_vtk_snapshots(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out",
                                           extra="") + "cadence = 10\n")
    assert cli.main(["run", cfg]) == 0
    files = sorted(p.name for p in (tmp_path / "out").glob("fields_*.vtk"))
    assert files == ["fields_000000.vtk", "fields_000010.vtk",
                     "fields_000020.vtk"]
    head = (tmp_path / "out" / "fields_000000.vtk").read_text().splitlines()
    assert head[0] == "# vtk DataFile Version 3.0"
    assert head[2] == "ASCII"
    assert head[3] == "DATASET UNSTRUCTURED_GRID"
    assert any(line.startswith("POINTS ") and line.endswith(" double")
               for line in head)
    assert any(line.startswith("CELL_TYPES ") for line in head)
    assert any(line == "VECTORS u double" for line in head)
    assert any(line == "VECTORS v double" for line in head)
    # 2D points are zero-padded to three components
    pk = head.index([l for l in head if l.startswith("POINTS")][0])
    assert head[pk + 1].split()[2] == "0.0"


def test_run_malformed_config_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out").replace(
        "mu = 1.0", "mu = -3"))
    assert cli.main(["run", cfg]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert not (tmp_path / "out").exists()   # nothing was created


def test_run_missing_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_solver_failure_exits_3_with_partial_output(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text(tmp_path / "out").replace(
        "epsilon = 1e-2", "epsilon = 1e-10").replace(
        "dt = 5e-3", "dt = 5e-3\nnewton_maxit = 1")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg]) == 3
    assert "solver failure" in capsys.readouterr().err
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(lines) >= 2                   # header plus the initial record


def test_run_overflowing_load_exits_3(tmp_path, monkeypatch, capsys):
    # exp(800*t) overflows past t = 0.887: the last step's load is inf and
    # must end the run with a solver failure, not an unsolved accepted step
    monkeypatch.chdir(tmp_path)
    text = (run_cfg_text(tmp_path / "out")
            .replace("nx = 8", "nx = 4").replace("ny = 4", "ny = 2")
            .replace("t_end = 0.12", "t_end = 1.0")
            .replace("dt = 5e-3", "dt = 0.1")
            .replace("[data]\n", "[data]\nf = (0, exp(800*t)*1e-300)\n"))
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "load is not finite" in err
    assert "Traceback" not in err
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) == pytest.approx(0.9)


def test_run_overflowing_load_prints_no_numpy_warning(tmp_path, capfd):
    # run as a user would, in a fresh interpreter whose stderr is fd 2:
    # the overflow must surface as the solver failure alone
    text = (run_cfg_text(tmp_path / "out")
            .replace("nx = 8", "nx = 4").replace("ny = 4", "ny = 2")
            .replace("t_end = 0.12", "t_end = 1.0")
            .replace("dt = 5e-3", "dt = 0.1")
            .replace("[data]\n", "[data]\nf = (0, exp(800*t)*1e-300)\n"))
    cfg = write_cfg(tmp_path, text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(crackdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from crackdyn import cli; "
            "sys.exit(cli.main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, "run", cfg],
                          cwd=tmp_path, env=env)
    assert done.returncode == 3
    err = capfd.readouterr().err
    assert "load is not finite" in err
    assert "Warning" not in err and "overflow" not in err


def test_run_z_coordinate_exits_2_at_parse(tmp_path, monkeypatch, capsys):
    # meshes are two-dimensional, so z is an unknown identifier
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text(tmp_path / "out").replace(
        "[data]\nu0 = (0, -0.12*exp(-((x-0.9)^2 + (y-0.6)^2)/0.01))",
        "[data]\nu0 = (0, 0.01*z)")
    with pytest.raises(ConfigError, match="u0: unknown identifier 'z'"):
        parse_config_text(text)
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: u0: unknown identifier 'z'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_friction_bound_violation_midrun_exits_2(tmp_path, monkeypatch,
                                                     capsys):
    # g dips negative between the build-time samples, so the violation
    # surfaces only during stepping; partial output must survive
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text(tmp_path / "out").replace(
        "g = 0.05", "g = 0.05 - 10000*max(0, t - 0.038)*max(0, 0.046 - t)")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg]) == 2
    assert "negative" in capsys.readouterr().err
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(lines) > 2


TETRAHEDRON_MESH = """\
crackmesh 1 3
vertices 4
0 0 0
1 0 0
0 1 0
0 0 1
cells 1
0 1 2 3 plus
dirichlet 1
0 1 2
neumann 0
crackpairs 0
"""


def test_run_dim3_mesh_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    mesh_path = tmp_path / "tet.mesh"
    mesh_path.write_text(TETRAHEDRON_MESH)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out").replace(
        "kind = rect", f"kind = file\npath = {mesh_path}"))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dimension must be 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["u0", "v0"])
def test_run_nonfinite_initial_data_exits_2(tmp_path, monkeypatch, capsys,
                                            key):
    # exp(800) overflows: the field must be rejected before any solve
    monkeypatch.chdir(tmp_path)
    text = (run_cfg_text(tmp_path / "out")
            .replace("nx = 8", "nx = 4").replace("ny = 4", "ny = 2")
            .replace("[data]\nu0 = (0, -0.12*exp(-((x-0.9)^2 + (y-0.6)^2)/0.01))",
                     f"[data]\n{key} = (0, exp(800)*x*(2-x))"))
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} is not finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["f", "F"])
def test_run_nonfinite_load_at_start_exits_2(tmp_path, monkeypatch, capsys,
                                             key):
    # exp(800*(t + 1)) is already inf at t = 0: the run must stop at set-up,
    # before the initial acceleration's CG solve
    monkeypatch.chdir(tmp_path)
    solves = []
    monkeypatch.setattr("crackdyn.fem.solve_spd",
                        lambda *a, **k: solves.append(a))
    text = (run_cfg_text(tmp_path / "out")
            .replace("nx = 8", "nx = 4").replace("ny = 4", "ny = 2")
            .replace("[data]\n", f"[data]\n{key} = (0, exp(800*(t + 1)))\n"))
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} gives a load that is not finite at t = 0" in err
    assert "Traceback" not in err
    assert solves == []
    assert not (tmp_path / "out").exists()


def test_build_problem_ignores_nonfinite_data_on_dirichlet_dofs():
    # 0*exp(800*(1-x)) is nan only on the clamped edge x = 0, whose dofs
    # the run zeroes anyway
    text = BASE.replace("/0.01))", "/0.01) + 0*exp(800*(1-x)))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = config_mod.build_problem(parse_config_text(text))
    plain = config_mod.build_problem(parse_config_text(BASE))
    assert np.array_equal(problem.u0, plain.u0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_eps_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out"))
    assert cli.main(["sweep-eps", cfg, "1e-1", "1e-2", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "fitted penetration order p = " in out
    lines = (tmp_path / "out" / "sweep_eps.csv").read_text().splitlines()
    assert lines[0] == ("epsilon,int_pen3_dt,sup_penetration,max_acc_h,"
                        "dist_to_finest,cauchy_dist")
    assert len(lines) == 4
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals[0] > vals[1] > vals[2]


def test_sweep_eps_needs_three_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out"))
    assert cli.main(["sweep-eps", cfg, "1e-1"]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_sweep_gamma_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out"))
    assert cli.main(["sweep-gamma", cfg, "0", "1"]) == 0
    lines = (tmp_path / "out" / "sweep_gamma.csv").read_text().splitlines()
    assert lines[0].startswith("gamma,")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_sound_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out"))
    assert cli.main(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for name in ("regularization-monotone", "regularization-gradients",
                 "rigid-body-kernel", "mesh-conforming",
                 "normal-traction-nonpositive", "friction-bound-respected",
                 "energy-decay", "vi-inequality"):
        assert f"PASS {name}" in out


def test_verify_gamma_positive_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out").replace(
        "gamma = 0.0", "gamma = 2.0"))
    assert cli.main(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS energy-bounded" in out
    assert "FAIL" not in out


def test_verify_rejects_bad_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out").replace(
        "dt = 5e-3", "dt = 5e-3\nnewmark_g = 0.4"))
    assert cli.main(["verify", cfg]) == 2
    assert "newmark_g" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mesh-gen
# ---------------------------------------------------------------------------

def test_mesh_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert cli.main(["mesh-gen", "rect", "2", "1", "4", "2",
                     "0.25", "0.75", "-o", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "16 vertices" in msg and "16 cells" in msg and "2 crack pairs" in msg
    mesh = load_mesh(out)
    assert mesh.n_vertices == 16
    assert len(mesh.crack_pairs) == 2


def test_mesh_gen_single_token_spec(tmp_path):
    out = tmp_path / "mesh.txt"
    assert cli.main(["mesh-gen", "rect 2 1 4 2", "-o", str(out)]) == 0
    assert load_mesh(out).n_cells == 16


def test_mesh_gen_rejects_bad_spec(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert cli.main(["mesh-gen", "circle", "1", "-o", str(out)]) == 2
    assert "rect WIDTH HEIGHT" in capsys.readouterr().err
    assert cli.main(["mesh-gen", "rect", "2", "1", "4", "3",
                     "0.25", "0.75", "-o", str(out)]) == 2
