import csv
import math
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import crackdyn
from crackdyn import cli
from crackdyn import config as config_mod
from crackdyn import diagnostics, exprlang, timestepper, vtkio
from crackdyn.config import ConfigError, parse_config_text
from crackdyn.interface import ContactParams
from crackdyn.meshing import generate_rect_crack, load_mesh, save_mesh

from conftest import SMALL_TEXT as BASE, read_snapshot


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RECT_MESH = ("kind = rect\nwidth = 2.0\nheight = 1.0\nnx = 8\nny = 4\n"
             "crack_lo = 0.25\ncrack_hi = 0.75\n")


def file_mesh(text, path):
    """text with BASE's rect mesh replaced by the mesh file at path."""
    assert text.count(RECT_MESH) == 1
    return text.replace(RECT_MESH, f"kind = file\npath = {path}\n")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_full_roundtrip():
    cfg = parse_config_text(BASE + "\n[output]\ndirectory = results\ncadence = 4\n")
    assert cfg.mesh.kind == "rect"
    assert cfg.mesh.nx == 8 and cfg.mesh.ny == 4
    assert cfg.mesh.crack == (0.25, 0.75)
    assert cfg.material.lam == 1.0 and cfg.material.rho == 1.0
    assert cfg.contact == ContactParams(0.0, 1e-2, exprlang.Num(0.05))
    assert cfg.time.t_end == 0.12 and cfg.time.dt == 5e-3
    assert cfg.u0 is not None and cfg.v0 is None
    assert cfg.output_dir == "results" and cfg.cadence == 4


def test_parse_defaults():
    text = ("[mesh]\nkind = rect\nwidth = 1\nheight = 1\nnx = 2\nny = 2\n"
            "[material]\nlambda = 1\nmu = 1\nrho = 1\n"
            "[time]\nt_end = 1\ndt = 0.5\n")
    cfg = parse_config_text(text)
    assert cfg.mesh.crack is None
    assert cfg.contact == ContactParams(0.0, 1e-2, exprlang.Num(0.0))
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
    (lambda t: t[t.index("[material]"):], r"missing \[mesh\] section"),
    (lambda t: t.replace("[material]\nlambda = 1.0\nmu = 1.0\nrho = 1.0\n",
                         ""), r"missing \[material\] section"),
    (lambda t: t.replace("[time]\nt_end = 0.12\ndt = 5e-3\n", ""),
     r"missing \[time\] section"),
    (lambda t: t.replace("kind = rect", "kind = hex"),
     "unknown mesh kind 'hex'"),
    (lambda t: t + "\n[output]\ncadence = -1\n",
     "cadence must be nonnegative"),
    (lambda t: t.replace("width = 2.0", "width = wide"),
     "width: not a number: 'wide'"),
    (lambda t: t.replace("ny = 4\n", ""), "missing required key 'ny'"),
    (lambda t: t.replace("nx = 8", "nx = 8\nnx = 9"), "option 'nx'.*already"),
    (lambda t: t.replace("u0 = (0, -0.12*exp(-((x-0.9)^2 + (y-0.6)^2)/0.01))",
                         "u0 = (0, 1))"), "u0: unbalanced parentheses"),
    (lambda t: t + "f = (-9.8)\n", r"f: expected 2 components, got 1"),
    (lambda t: t + "F = (0, 1, 2)\n", r"F: expected 2 components, got 3"),
    (lambda t: file_mesh(t, "m.txt").replace("path", "nx = 64\npath"),
     "key 'nx' is not read by mesh kind 'file'"),
    (lambda t: file_mesh(t, "m.txt").replace("path", "crack_lo = 0.25\npath"),
     "key 'crack_lo' is not read by mesh kind 'file'"),
    (lambda t: t.replace("nx = 8", "nx = 8\npath = m.txt"),
     "key 'path' is not read by mesh kind 'rect'"),
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
    assert cli.main(["run", cfg_b]) == 0
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b


def test_run_without_g_is_the_run_with_g_zero(tmp_path, monkeypatch):
    # a frictionless crack is the crack with friction bound g = 0
    monkeypatch.chdir(tmp_path)
    out = {}
    for name, line in (("none", ""), ("zero", "g = 0\n")):
        text = run_cfg_text(tmp_path / name)
        assert "g = 0.05\n" in text
        cfg = write_cfg(tmp_path, text.replace("g = 0.05\n", line),
                        f"{name}.cfg")
        assert cli.main(["run", cfg]) == 0
        out[name] = (tmp_path / name / "diagnostics.csv").read_bytes()
    assert out["none"] == out["zero"]


def test_runs_share_no_solver_history(tmp_path, monkeypatch):
    # the inexact-Newton forcing history starts fresh in every run: A,
    # then B at another gamma, then A again in one process repeat A's bytes
    monkeypatch.chdir(tmp_path)
    other = BASE.replace("gamma = 0.0", "gamma = 10.0")
    for name, text in (("a1", BASE), ("b", other), ("a2", BASE)):
        cfg = write_cfg(tmp_path, text + f"\n[output]\ndirectory = "
                                         f"{tmp_path / name}\n", f"{name}.cfg")
        assert cli.main(["run", cfg]) == 0
    a1, b, a2 = ((tmp_path / name / "diagnostics.csv").read_bytes()
                 for name in ("a1", "b", "a2"))
    assert a1 == a2 != b


def test_run_writes_vtk_snapshots(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out",
                                           extra="") + "cadence = 10\n")
    assert cli.main(["run", cfg]) == 0
    files = sorted(p.name for p in (tmp_path / "out").glob("fields_*.vtk"))
    assert files == ["fields_000000.vtk", "fields_000010.vtk",
                     "fields_000020.vtk"]
    head, sections = read_snapshot(tmp_path / "out" / "fields_000000.vtk")
    assert head[0] == "# vtk DataFile Version 3.0"
    assert head[1] == "t = 0.0"
    assert head[2] == "BINARY"
    assert head[3] == "DATASET UNSTRUCTURED_GRID"
    assert list(sections) == ["POINTS", "CELLS", "CELL_TYPES", "POINT_DATA",
                              "VECTORS u", "VECTORS v"]
    assert sections["POINTS"][0][2] == "double"
    assert sections["VECTORS u"][0] == ["VECTORS", "u", "double"]
    assert sections["VECTORS v"][0] == ["VECTORS", "v", "double"]
    # 2D points are zero-padded to three components
    assert not sections["POINTS"][1][:, 2].any()


def direct_snapshots(text, outdir):
    """{file name: bytes} of every state of the run of ``text`` that is
    accepted before the run ends or fails, each written by
    ``vtkio.write_fields`` in this process: a cadence-1 run's snapshots."""
    problem = config_mod.build_problem(parse_config_text(text))
    outdir.mkdir()
    states = []
    try:
        diagnostics.run_with_records(
            problem, on_record=lambda state, rec, info: states.append(state))
    except timestepper.StepFailure:
        pass
    out = {}
    for k, state in enumerate(states):
        path = outdir / f"fields_{k:06d}.vtk"
        vtkio.write_fields(path, problem.ops.mesh, state.u, state.v,
                           title=f"t = {float(state.t)!r}")
        out[path.name] = path.read_bytes()
    return out


def snapshots_in(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.vtk"))
            if p.is_file()}


def test_run_snapshots_match_direct_writes_in_order(tmp_path, monkeypatch,
                                                     capfd):
    monkeypatch.chdir(tmp_path)
    written = []
    write_fields = vtkio.write_fields

    def logged(path, *args, **kwargs):
        written.append(path.name)
        write_fields(path, *args, **kwargs)

    monkeypatch.setattr(vtkio, "write_fields", logged)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out") + "cadence = 3\n")
    assert cli.main(["run", cfg]) == 0
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(vtkio, "write_fields", write_fields)
    want = {name: data for name, data in
            direct_snapshots(BASE, tmp_path / "direct").items()
            if int(name[7:13]) % 3 == 0}
    assert len(want) == 9                    # records 0, 3, ..., 24
    assert snapshots_in(tmp_path / "out") == want
    assert written == sorted(want)
    assert capfd.readouterr().err == ""


def test_run_without_cadence_starts_no_writer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(vtkio, "write_fields",
                        lambda *args, **kwargs: calls.append(args))
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out") + "cadence = 0\n")
    assert cli.main(["run", cfg]) == 0
    assert calls == []
    assert snapshots_in(tmp_path / "out") == {}


def test_run_unwritable_snapshot_exits_2(tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / "fields_000010.vtk").mkdir(parents=True)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out") + "cadence = 1\n")
    assert cli.main(["run", cfg]) == 2
    assert multiprocessing.active_children() == []
    err = capfd.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert str(tmp_path / "out" / "fields_000010.vtk") in err
    assert "Traceback" not in err
    # the snapshots before it are complete, none after it is written, and
    # the run stopped at the failed snapshot's record
    want = direct_snapshots(BASE, tmp_path / "direct")
    got = snapshots_in(tmp_path / "out")
    assert got == {name: want[name] for name in sorted(want)[:10]}
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 1 + 11


def test_run_solver_failure_leaves_every_snapshot(tmp_path, monkeypatch,
                                                  capfd):
    # the load overflows at t = 0.925: every state up to t = 0.9 is kept
    monkeypatch.chdir(tmp_path)
    text = (BASE.replace("t_end = 0.12\ndt = 5e-3", "t_end = 1.0\ndt = 0.05")
            .replace("[data]", "[data]\nf = (0, exp(800*t)*1e-300)"))
    cfg = write_cfg(tmp_path, text + f"\n[output]\ndirectory = "
                                     f"{tmp_path / 'out'}\ncadence = 1\n")
    assert cli.main(["run", cfg]) == 3
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == (
        "solver failure: load is not finite at t=0.925\n")
    want = direct_snapshots(text, tmp_path / "direct")
    assert len(want) == 19                   # t = 0, 0.05, ..., 0.9
    assert snapshots_in(tmp_path / "out") == want


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


@pytest.mark.parametrize("g,value,t", [
    ("exp(800)", "inf", "0"),
    ("0*exp(800)", "nan", "0"),
    ("exp(800*t)", "inf", "0.9"),
], ids=["inf", "nan", "inf-after-start"])
def test_run_nonfinite_friction_bound_exits_2(tmp_path, monkeypatch, capsys,
                                              g, value, t):
    # exp(800*t) first overflows at t = 0.887, between the set-up samples
    # at t = 0.8 and 0.9
    monkeypatch.chdir(tmp_path)
    text = (run_cfg_text(tmp_path / "out")
            .replace("nx = 8", "nx = 4").replace("ny = 4", "ny = 2")
            .replace("t_end = 0.12", "t_end = 1.0")
            .replace("dt = 5e-3", "dt = 0.1")
            .replace("g = 0.05", f"g = {g}"))
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: friction bound g is not finite ({value}) at t={t}, "
        f"point [")
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_run_friction_bound_overflow_midrun_exits_2(tmp_path, monkeypatch,
                                                    capsys):
    # g overflows only between the set-up samples at t = 0.036 and 0.048
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text(tmp_path / "out").replace(
        "g = 0.05", "g = 0.05 + exp(1e9*max(0, t - 0.038)*max(0, 0.046 - t))")
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: friction bound g is not finite (inf) at t=0.04, point [")
    assert "Traceback" not in err and "Warning" not in err
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
    cfg = write_cfg(tmp_path, file_mesh(run_cfg_text(tmp_path / "out"),
                                        mesh_path))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dimension must be 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line,needle", [
    (2, "vertex coordinates must be finite"),       # the first vertex
    (-1, "normal is not unit length"),              # the last crack pair
])
def test_run_nonfinite_mesh_data_exits_2(tmp_path, monkeypatch, capsys,
                                         line, needle):
    monkeypatch.chdir(tmp_path)
    mesh_path = tmp_path / "m.txt"
    save_mesh(generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75)),
              mesh_path)
    lines = mesh_path.read_text().splitlines()
    lines[line] = " ".join(lines[line].split()[:-2] + ["nan", "nan"])
    mesh_path.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, file_mesh(run_cfg_text(tmp_path / "out"),
                                        mesh_path))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err


def _flip_last_normal(lines):
    return lines[:-1] + [" ".join(lines[-1].split()[:-2] + ["0.0", "-1.0"])]


def _declare_huge_cell_count(lines):
    # one cell line after a count no array of cells could hold
    at = next(k for k, x in enumerate(lines) if x.startswith("cells "))
    return lines[:at] + ["cells 1000000000000", lines[at + 1]]


@pytest.mark.parametrize("edit,needle", [
    (_flip_last_normal, "crack pair 3: normal does not match the outward "
                        "normal of the minus facet"),
    (_declare_huge_cell_count, "unexpected end of file"),
], ids=["flipped-normal", "huge-cell-count"])
def test_run_bad_mesh_file_exits_2(tmp_path, monkeypatch, capsys, edit,
                                   needle):
    monkeypatch.chdir(tmp_path)
    mesh_path = tmp_path / "m.txt"
    save_mesh(generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75)),
              mesh_path)
    lines = edit(mesh_path.read_text().splitlines())
    mesh_path.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, file_mesh(run_cfg_text(tmp_path / "out"),
                                        mesh_path))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err
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


@pytest.mark.parametrize("key", ["f", "F"])
def test_build_problem_rejects_a_load_of_overflowing_norm(key):
    # every entry is finite but the norm overflows: bad data, reported at
    # set-up without a numpy warning, not a solver failure in the first solve
    text = BASE.replace("[data]\n", f"[data]\n{key} = (0, 1e300)\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            config_mod.build_problem(parse_config_text(text))
    assert str(err.value) == (f"{key} gives a load whose norm is not "
                              "finite at t = 0")


@pytest.mark.parametrize("old,new,needle", [
    ("t_end = 0.12", "t_end = inf", "t_end"),
    ("t_end = 0.12\ndt = 5e-3", "t_end = 1e10\ndt = 1e-300", "t_end/dt"),
    ("dt = 5e-3", "dt = 5e-3\nnewton_tol = inf", "newton_tol"),
    ("epsilon = 1e-2", "epsilon = inf", "epsilon"),
    ("lambda = 1.0", "lambda = inf", "3*lam"),
    ("gamma = 0.0", "gamma = inf", "gamma"),
    ("width = 2.0", "width = inf", "width"),
    ("height = 1.0", "height = inf", "height"),
], ids=["t_end", "t_end-over-dt", "newton_tol", "epsilon", "lambda", "gamma",
        "width", "height"])
def test_run_nonfinite_number_exits_2(tmp_path, monkeypatch, capsys, old,
                                      new, needle):
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text(tmp_path / "out")
    assert old in text
    cfg = write_cfg(tmp_path, text.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["missing-mesh-file", "output-below-file",
                                  "mesh-gen-below-file"])
def test_unusable_path_exits_2(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plain").write_text("a regular file\n")
    bad = tmp_path / "plain" / "sub"
    if case == "missing-mesh-file":
        bad = tmp_path / "missing.mesh"
        argv = ["run", write_cfg(tmp_path, file_mesh(
            run_cfg_text(tmp_path / "out"), bad))]
    elif case == "output-below-file":
        argv = ["run", write_cfg(tmp_path, run_cfg_text(bad))]
    else:
        argv = ["mesh-gen", "rect", "2", "1", "4", "2", "-o", str(bad / "m.txt")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(bad) in err
    assert "Traceback" not in err and "Warning" not in err


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


@pytest.mark.parametrize("argv", [
    ["sweep-eps", "1e-1", "1e-2", "-1"],
    ["sweep-eps", "1e-1", "1e-2", "nan"],
    ["sweep-gamma", "0", "1", "inf"],
    ["sweep-eps", "1e-1", "1e-2", "0"],
    ["sweep-gamma", "0", "1", "-1"],
])
def test_sweep_checks_every_value_before_running(tmp_path, monkeypatch,
                                                 capsys, argv):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out"))
    monkeypatch.setattr(config_mod, "build_problem",
                        lambda config: pytest.fail("a run was started"))
    assert cli.main([argv[0], cfg] + argv[1:]) == 2
    assert "finite" in capsys.readouterr().err


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
    names = ("regularization-monotone", "regularization-gradients",
             "rigid-body-kernel", "normal-traction-nonpositive",
             "friction-bound-respected", "energy-decay", "vi-inequality")
    glued = BASE.replace("crack_lo = 0.25\ncrack_hi = 0.75\n", "")
    for text in (BASE, glued):
        assert cli.main(["verify", write_cfg(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [["PASS", n]
                                                         for n in names]


def test_verify_on_a_zero_step_run(tmp_path, monkeypatch, capsys):
    # t_end = 0 runs no step: the energy cannot have risen and there is
    # no balance point to test, and the checks say so
    monkeypatch.chdir(tmp_path)
    text = BASE.replace("t_end = 0.12", "t_end = 0")
    assert cli.main(["verify", write_cfg(tmp_path, text)]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS"] * 7
    assert "PASS energy-decay (worst per-step rise 0.000e+00" in out
    assert lines[-1] == "PASS vi-inequality (no balance points)"
    assert "Traceback" not in err


def test_verify_gamma_positive_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(tmp_path / "out").replace(
        "gamma = 0.0", "gamma = 2.0"))
    assert cli.main(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS energy-bounded" in out
    assert "FAIL" not in out


def test_verify_reports_a_solver_failure(tmp_path, monkeypatch, capsys):
    # the load overflows at t = 0.925: the static checks still print, the
    # trajectory fails in place of the run's checks, and verify exits 3
    monkeypatch.chdir(tmp_path)
    text = (BASE.replace("t_end = 0.12\ndt = 5e-3", "t_end = 1.0\ndt = 0.05")
            .replace("[data]", "[data]\nf = (0, exp(800*t)*1e-300)"))
    assert cli.main(["verify", write_cfg(tmp_path, text)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "PASS regularization-monotone (worst monotonicity product 0.000e+00)",
        "PASS regularization-gradients (alpha FD errors 5.78e-08 -> 1.44e-08)",
        "PASS rigid-body-kernel (relative kernel residual 0.000e+00)",
        "FAIL trajectory (solver failure: load is not finite at t=0.925)"]


def test_verify_checks_a_loaded_energy_for_finiteness(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    text = BASE.replace("[data]", "[data]\nf = (0.1*sin(5*t), -0.2)\n"
                                  "F = (0, 0.05*x)")
    assert cli.main(["verify", write_cfg(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "PASS energy-finite (final energy " in out
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
    assert mesh.n_pairs == 2


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
