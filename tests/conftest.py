"""Shared fixtures.

The "impact" problem is the workhorse: a 2 x 1 plate with a horizontal
crack at mid-height, hit by a Gaussian displacement pulse above the
crack.  Slow tests share its runs through a session-scoped cache keyed by
the Config, which the sweeps and stability probe replay.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from crackdyn import config as config_mod
from crackdyn import diagnostics, fem, interface, meshing

IMPACT_TEXT = """\
[mesh]
kind = rect
width = 2.0
height = 1.0
nx = 16
ny = 8
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
t_end = 0.5
dt = 2.5e-3

[data]
u0 = (0, -0.1*exp(-((x-0.9)^2 + (y-0.75)^2)/0.02))
"""


# The small problem: an 8 x 4 cracked plate and a sharper pulse, 24 steps.
SMALL_TEXT = """\
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


def small_config():
    return config_mod.parse_config_text(SMALL_TEXT)


def impact_config(gamma=0.0, epsilon=1e-2):
    cfg = config_mod.parse_config_text(IMPACT_TEXT)
    return dataclasses.replace(cfg, contact=dataclasses.replace(
        cfg.contact, gamma=gamma, epsilon=epsilon))


def unzip(pairs):
    """(states, infos) of timestepper.run's (state, info) pairs, infos[k]
    the StepInfo of the step into states[k + 1]."""
    states, infos = zip(*pairs)
    return list(states), list(infos[1:])


def recorded(problem):
    """(states, records, infos) of a problem's run, paired as by unzip."""
    rows = []
    diagnostics.run_with_records(problem,
                                 on_record=lambda *row: rows.append(row))
    states, records, infos = zip(*rows)
    return list(states), list(records), list(infos[1:])


class RunCache:
    """Memoized trajectories: Config -> (problem, states, records, infos)."""

    def __init__(self):
        self._runs = {}

    def trajectory(self, config, problem=None):
        """The run of ``config``, made from ``problem`` (built if None)
        when it is not cached."""
        if config not in self._runs:
            if problem is None:
                problem = config_mod.build_problem(config)
            self._runs[config] = (problem, *recorded(problem))
        return self._runs[config]

    def get(self, gamma=0.0, epsilon=1e-2):
        return self.trajectory(impact_config(gamma, epsilon))

    def run(self, problem, on_record):
        """A diagnostics run function: replay the run of problem.config."""
        _, states, records, infos = self.trajectory(problem.config, problem)
        for state, rec, info in zip(states, records, [None] + infos):
            on_record(state, rec, info)


@pytest.fixture(scope="session")
def impact_runs():
    return RunCache()


def turned(mesh, theta, swap=False):
    """mesh rotated by theta about the origin; with swap, its crack
    faces relabelled (plus for minus) and the normals flipped."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    plus, minus, normals = mesh.crack_plus, mesh.crack_minus, mesh.crack_normals
    sides = mesh.cell_sides
    if swap:
        plus, minus, normals = minus, plus, -normals
        sides = meshing.SIDE_PLUS + meshing.SIDE_MINUS - sides
    return meshing.CrackedMesh(mesh.vertices @ rot.T, mesh.cells, sides,
                               mesh.dirichlet_facets, mesh.neumann_facets,
                               plus, minus, normals @ rot.T)


def BEND(xy):
    """y += 0.15*sin(pi*x/2): the impact crack bent smoothly, a map of
    the (nv, 2) coordinates for bent()."""
    return xy + 0.15 * np.sin(0.5 * np.pi * xy[:, :1]) * [0.0, 1.0]


def KINK(xy):
    """y += 0.15*|x - 1|: the impact crack turned into two straight
    segments that meet at its vertex x = 1, a map for bent()."""
    return xy + 0.15 * np.abs(xy[:, :1] - 1.0) * [0.0, 1.0]


def bent(mesh, shape):
    """mesh with its vertices moved by shape, a map of the (nv, 2)
    coordinates that keeps every cell's orientation (BEND and KINK, like
    any y += f(x), keep its area too), and each crack pair's normal
    recomputed from its moved minus facet: the unit perpendicular of
    that facet's edge, on the side of the pair's old normal."""
    xy = shape(mesh.vertices)
    edge = xy[mesh.crack_minus[:, 1]] - xy[mesh.crack_minus[:, 0]]
    perp = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    perp *= np.sign(np.einsum("pd,pd->p", perp, mesh.crack_normals))[:, None]
    return meshing.CrackedMesh(xy, mesh.cells, mesh.cell_sides,
                               mesh.dirichlet_facets, mesh.neumann_facets,
                               mesh.crack_plus, mesh.crack_minus, perp)


def python_calls(fn, *args):
    """How many Python and C function calls fn(*args) makes: equal at
    every mesh size for code that handles whole arrays, with no call
    per cell, facet or pair."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def crack_rows(quad):
    """J, quad.jumps, as a dense (npairs, nq, 2, k) array, k =
    crack_dofs.size: each point's normal-jump row, then its tangential
    one."""
    return quad.jumps.toarray().reshape(quad.weights.shape + (2, -1))


def crack_forces(sigma_n, sigma_t, quad):
    """The crack vector J^T W sigma of the tractions at the points, the
    crack's nodal forces, from interface.contact_residual and
    friction_residual."""
    tractions = np.stack([interface.contact_residual(sigma_n, quad.weights),
                          interface.friction_residual(sigma_t, quad.weights)],
                         axis=-1)
    return tractions.ravel() @ quad.jumps.toarray()


def crack_block(quad, contact=None, friction=None):
    """The dense (k, k) block J^T diag(D) J on quad.crack_dofs, k =
    crack_dofs.size, of pointwise derivatives D, one per row of J:
    contact (npairs, nq) on the normal rows and friction (npairs, nq) on
    the tangential ones, as interface.contact_tangent and
    friction_tangent give them, zero where None; the crack terms'
    derivative on the crack dofs, for the checks."""
    zero = np.zeros(quad.weights.shape)
    derivatives = np.stack([zero if contact is None else contact,
                            zero if friction is None else friction], axis=-1)
    rows = quad.jumps.toarray()
    return rows.T @ (derivatives.reshape(-1, 1) * rows)


def reference_jumps(w, mesh):
    """(normal jump, tangential part) of a nodal vector w at the crack
    quadrature points, formed point by point from the two face traces of
    the mesh's crack arrays: the reference for the crack quadrature's
    jump operators."""
    wn = w.reshape(mesh.n_vertices, 2)
    diff = wn[mesh.crack_plus] - wn[mesh.crack_minus]           # (n, 2, 2)
    jump = np.einsum("qi,pid->pqd", fem.FACET_SHAPES, diff)
    jn = np.einsum("pqd,pd->pq", jump, mesh.crack_normals)
    return jn, jump - jn[:, :, None] * mesh.crack_normals[:, None, :]


def read_snapshot(path):
    """A VTK snapshot read back with numpy: the four header lines and
    {section name: (header words, data)}:
    (n, 3) doubles for points and vectors, (n, 4) int32 rows for cells,
    the int32 cell types, and None for POINT_DATA."""
    data = path.read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode("ascii"), end + 1
        return text

    head = [line() for _ in range(4)]
    sections = {}
    while pos < len(data):
        words = line().split()
        name = " ".join(words[:2]) if words[0] == "VECTORS" else words[0]
        if name == "POINT_DATA":
            sections[name] = (words, None)
            continue
        if name == "CELLS":
            dtype, shape = ">i4", (int(words[1]), 4)
        elif name == "CELL_TYPES":
            dtype, shape = ">i4", (int(words[1]),)
        else:               # POINTS, then each VECTORS on the points
            n_points = int(words[1]) if name == "POINTS" else n_points
            dtype, shape = ">f8", (n_points, 3)
        block = np.frombuffer(data, dtype, count=int(np.prod(shape)),
                              offset=pos).reshape(shape)
        pos += block.nbytes
        assert data[pos:pos + 1] == b"\n"
        pos += 1
        sections[name] = (words, block)
    return head, sections
