"""Rigid rotation and face swap as oracles for the crack terms, on
straight, bent and kinked cracks.

The model does not change under a rigid rotation of the plate with its
data, nor when the two crack faces are relabelled (plus for minus) with
the normals flipped.  Every other run in the suite has a horizontal
crack with normals (0, +-1), so code that is right only for horizontal
cracks would pass them; these runs turn the crack away from the axes,
and on the bent and kinked meshes its facets have normals of their own.
Each run goes through save_mesh, a ``kind = file`` configuration and
``crackdyn run``, and its diagnostics.csv is compared with the unturned
run's.  ``crackdyn verify`` checks the invariants of the impact run on
the bent and kinked meshes.
"""

import math
import re

import numpy as np
import pytest

from conftest import BEND, KINK, bent, turned
from crackdyn import cli
from crackdyn.meshing import generate_rect_crack, save_mesh

CONFIG = """\
[mesh]
kind = file
path = {path}

[material]
lambda = 1.0
mu = 1.0
rho = 1.0

[contact]
gamma = {gamma}
epsilon = 1e-2
g = {g}

[time]
t_end = {t_end}
dt = 2.5e-3

[data]
{data}

[output]
directory = {out}
"""

PULSE = {"u0": ("0", "-0.1*exp(-((x-0.9)^2 + (y-0.75)^2)/0.02)")}
LOADS = {"f": ("0.2*sin(9*t)*exp(-((x-0.7)^2 + (y-0.3)^2)/0.05)",
               "-0.5*sin(12*t)*exp(-((x-1.2)^2 + (y-0.7)^2)/0.05)"),
         "F": ("0.05*cos(7*t)*x*(2-x)",
               "-0.3*(1 - cos(10*t))*sin(1.5707963*x)")}
DRIVEN_G = "0.05*(1 + 0.5*sin(6*t))*(1 + 0.2*cos(3*x))"

# Largest difference over the largest value of each column, measured
# over the two turned runs of each case below: on the straight crack
# 1.1e-13 (pulse) and 1.1e-11 (loads), on the bent and kinked ones at
# most 2.8e-12.  The bound leaves a factor of about 27 over the largest;
# code that forms the normal jump from n_y alone moves the turned
# columns by 10 % or more.
REL_BOUND = 3e-10

SHAPES = {"straight": None, "bent": BEND, "kinked": KINK}


def _impact_mesh(shape):
    """The impact problem's mesh, moved by one of SHAPES."""
    mesh = generate_rect_crack(2.0, 1.0, 16, 8, crack_span=(0.25, 0.75))
    return mesh if SHAPES[shape] is None else bent(mesh, SHAPES[shape])


def _pulled_back(expr, theta):
    """expr evaluated at the point that the rotation by theta takes to
    (x, y)."""
    c, s = repr(math.cos(theta)), repr(math.sin(theta))
    new = {"x": f"({c}*x + {s}*y)", "y": f"(-{s}*x + {c}*y)"}
    return re.sub(r"\b[xy]\b", lambda m: new[m.group(0)], expr)


def _turned_vector(pair, theta):
    c, s = repr(math.cos(theta)), repr(math.sin(theta))
    a, b = (_pulled_back(e, theta) for e in pair)
    return f"({c}*({a}) - {s}*({b}), {s}*({a}) + {c}*({b}))"


def _config(tmp_path, mesh, theta, gamma, g, fields, t_end=0.25):
    """(configuration file, output directory) of a run on mesh, with
    the data turned by theta."""
    name = f"run{len(list(tmp_path.glob('*.cfg')))}"
    save_mesh(mesh, tmp_path / f"{name}.mesh")
    data = "\n".join(f"{key} = {_turned_vector(pair, theta)}"
                     for key, pair in fields.items())
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(CONFIG.format(
        path=tmp_path / f"{name}.mesh", gamma=gamma,
        g=_pulled_back(g, theta), data=data, out=tmp_path / name,
        t_end=t_end))
    return str(cfg), tmp_path / name


def _run(tmp_path, mesh, theta, gamma, g, fields):
    cfg, out = _config(tmp_path, mesh, theta, gamma, g, fields)
    assert cli.main(["run", cfg]) == 0
    return np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)


CASES = {"pulse": (0.0, "0.05", PULSE),         # the impact pulse
         "loads": (1.0, DRIVEN_G, LOADS)}       # at rest under f, F, g(t, x)


@pytest.mark.parametrize("shape, gamma, g, fields", [
    pytest.param(shape, *case,
                 id=name if shape == "straight" else f"{shape}-{name}")
    for shape in SHAPES for name, case in CASES.items()])
def test_rotation_and_face_swap_invariance(tmp_path, shape, gamma, g,
                                           fields):
    mesh = _impact_mesh(shape)
    ref = _run(tmp_path, mesh, 0.0, gamma, g, fields)
    scale = np.abs(ref).max(axis=0)
    # kinetic, strain, penetration, complementarity and stick-slip move
    assert (scale[[1, 2, 3, 4, 6]] > 0.0).all()
    for theta, swap in ((0.5, False), (2.0, True)):
        got = _run(tmp_path, turned(mesh, theta, swap), theta, gamma, g,
                   fields)
        assert np.array_equal(got[:, 0], ref[:, 0])
        assert np.array_equal(got[:, -1], ref[:, -1])     # Newton counts
        rel = np.abs(got - ref).max(axis=0) / np.where(scale > 0, scale, 1)
        assert rel[1:-1].max() <= REL_BOUND, (theta, swap, rel)


@pytest.mark.parametrize("shape", ["bent", "kinked"])
def test_verify_passes_on_a_curved_crack(tmp_path, capsys, shape):
    # the 200 steps of the impact run on a crack whose facets have
    # normals of their own: every invariant verify checks holds
    cfg, _ = _config(tmp_path, _impact_mesh(shape), 0.0, 0.0, "0.05", PULSE,
                     t_end=0.5)
    assert cli.main(["verify", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", name] for name in (
            "regularization-monotone", "regularization-gradients",
            "rigid-body-kernel", "normal-traction-nonpositive",
            "friction-bound-respected", "energy-decay", "vi-inequality")]
