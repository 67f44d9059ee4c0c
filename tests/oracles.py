"""Reference computations the tests hold the solver to.

None of this is part of crackdyn: each oracle reaches into the package
for the pieces it measures with (the energy-norm distance of the sweeps)
instead of re-implementing them.

- patch_forces: the boundary traction integrals that the assembled
  stiffness must reproduce for a linear field (the patch tests).
- dense_mass_stiffness: M and K summed cell by cell into dense arrays
  from the textbook element matrices, the reference for the sparse
  assembly.
- stability_probe: distance between a run and one with its initial
  displacement scaled by 1 + eta (continuous dependence, criterion 7).
- OneDofParams: a scalar analog of the model.  It is also a system for
  the production stepper, timestepper.run; one_dof_oracle integrates it
  by brute-force RK4, so the two can be compared without a second copy
  of the implicit scheme, the crack laws or their tangents (criterion
  8).  crack_problem poses it, and any problem of a few unknowns that
  are all crack unknowns, as the stepper's own NewtonProblem, with
  DenseStep, basis.StepMatrix on dense arrays, as its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from crackdyn import config as config_mod
from crackdyn import fem, interface, timestepper
from crackdyn.diagnostics import _state_distance, run_with_records
from crackdyn.fem import Material


def patch_forces(mesh, material: Material, a: float) -> np.ndarray:
    """The nodal forces K @ u of u = (a*x, 0) on an uncracked rectangle.
    Its stress is constant, sigma_xx = (lambda + 2 mu)*a, sigma_yy =
    lambda*a, so the forces vanish at interior nodes and are the edge
    integrals of the traction sigma.n on the boundary, each edge's shared
    half and half between its end nodes."""
    xy = mesh.vertices
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    normal_stress = ((material.lam + 2.0 * material.mu) * a, material.lam * a)
    force = np.zeros_like(xy)
    for axis in (0, 1):
        for at, sign in ((lo[axis], -1.0), (hi[axis], 1.0)):
            side = np.flatnonzero(xy[:, axis] == at)
            side = side[np.argsort(xy[side, 1 - axis])]
            half = 0.5 * sign * normal_stress[axis] * np.diff(
                xy[side, 1 - axis])
            force[side[:-1], axis] += half
            force[side[1:], axis] += half
    return force.ravel()


def dense_mass_stiffness(mesh, material: Material):
    """(M, K) as dense arrays, summed in a plain loop over the cells.
    Each cell's basis gradients come from inverting its 3x3 matrix of
    rows (1, x, y); its mass is rho*area/12 times 2 on the diagonal and
    1 off it, per component; its stiffness is area * B^T D B, with B the
    strain (e_xx, e_yy, 2 e_xy) of the six basis fields and D the
    plane-strain elasticity matrix."""
    lam, mu = material.lam, material.mu
    elasticity = np.array([[lam + 2.0 * mu, lam, 0.0],
                           [lam, lam + 2.0 * mu, 0.0],
                           [0.0, 0.0, mu]])
    n = 2 * mesh.n_vertices
    mass, stiffness = np.zeros((n, n)), np.zeros((n, n))
    for cell in mesh.cells:
        corners = np.column_stack([np.ones(3), mesh.vertices[cell]])
        area = 0.5 * np.linalg.det(corners)
        grads = np.linalg.inv(corners)[1:].T          # (vertex, axis)
        strain = np.zeros((3, 6))
        for a, (gx, gy) in enumerate(grads):
            strain[:, 2 * a:2 * a + 2] = [[gx, 0.0], [0.0, gy], [gy, gx]]
        dofs = np.stack([2 * cell, 2 * cell + 1], axis=1).ravel()
        stiffness[np.ix_(dofs, dofs)] += area * strain.T @ elasticity @ strain
        for a in range(3):
            for b in range(3):
                for c in range(2):
                    mass[2 * cell[a] + c, 2 * cell[b] + c] += (
                        material.rho * area * (2.0 if a == b else 1.0) / 12.0)
    return mass, stiffness


# ---------------------------------------------------------------------------
# continuous dependence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityResult:
    eta: float
    sup_distance: float
    growth_rate: float
    times: tuple[float, ...]
    distances: tuple[float, ...]


def stability_probe(config: config_mod.Config, eta: float,
                    run=run_with_records) -> StabilityResult:
    """Distance between a run and one with initial displacement scaled by
    1 + eta, measured in the combined energy norm at every step as the
    perturbed run goes; only the base run's states are stored.  ``run``
    is a diagnostics run function, as the sweeps take."""
    if not eta >= 0:
        raise ValueError("eta must be nonnegative")
    base = []
    problem = config_mod.build_problem(config)
    run(problem, lambda state, rec, info: base.append(state))
    dists = [_state_distance(problem.ops, b, state)
             for b, (state, _) in zip(base, timestepper.run(
                 problem.ops, problem.config.time, (1.0 + eta) * problem.u0,
                 problem.v0), strict=True)]
    ts = [s.t for s in base]
    floor = max(max(dists), 1.0) * 1e-300
    logs = np.log(np.maximum(dists, floor))
    rate = float(np.polyfit(ts, logs, 1)[0]) if len(ts) >= 2 else float("nan")
    return StabilityResult(
        eta=eta, sup_distance=float(max(dists)), growth_rate=rate,
        times=tuple(ts), distances=tuple(dists))


# ---------------------------------------------------------------------------
# one-degree-of-freedom reference problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneDofParams:
    """Scalar analog: rho*u'' + k*u + beta_eps(gamma*u + u') +
    g*alpha_eps(u') = forcing(t).

    It is also a system for timestepper.run (a length-1 residual, whose
    one unknown is a crack unknown, posed by crack_problem as the crack
    of one point), so the production stepper, laws, tangents and
    line-search trial integrate it:
    ``for state, info in timestepper.run(p, TimeParams(t_end, dt), p.u0,
    p.v0)``.
    """

    rho: float = 1.0
    k: float = 1.0
    gamma: float = 0.0
    epsilon: float = 1e-2
    g: float = 0.0
    u0: float = 0.0
    v0: float = 0.0
    forcing: object = None            # callable t -> float, or None

    def __post_init__(self):
        if self.rho <= 0 or self.k <= 0:
            raise ValueError("rho and k must be positive")
        if self.epsilon <= 0 or self.gamma < 0 or self.g < 0:
            raise ValueError("invalid regularization or friction parameters")

    @property
    def period(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.rho / self.k)

    def load(self, t: float) -> np.ndarray:
        return np.full(1, 0.0 if self.forcing is None else self.forcing(t))

    def unknowns(self, w: np.ndarray) -> np.ndarray:
        """The Newton unknown of the state vector w: w itself, copied."""
        return np.array(w, dtype=float)

    def nodal(self, x: np.ndarray) -> np.ndarray:
        """The state vector of the unknown x: x itself, copied."""
        return np.array(x, dtype=float)

    def interval(self, u_w, v_w, a_w, ca, cu, cv, t_w, load_w):
        """The stepper's timestepper.NewtonProblem on the weighted state
        u_w + cu*a, v_w + cv*a, a_w + ca*a: a crack of one point of unit
        weight, whose normal jump is gamma*u + v and tangential jump v,
        so B = ones(2, 1)."""
        return crack_problem(
            [[ca * self.rho + cu * self.k]],
            self.rho * a_w + self.k * u_w - load_w, np.ones((2, 1)),
            np.concatenate([self.gamma * u_w + v_w, v_w])[None], self.g,
            interface.ContactParams(self.gamma, self.epsilon), cu, cv)

    def initial_state(self, u0: float, v0: float) -> fem.State:
        u, v = np.full(1, float(u0)), np.full(1, float(v0))
        problem = self.interval(u, v, np.zeros(1), 1.0, 0.0, 0.0, 0.0,
                                self.load(0.0))
        r, _ = problem.evaluate(np.zeros(1))
        return fem.State(0.0, u, v, -r / self.rho)


class DenseStep:
    """The step of a system with few unknowns, as basis.StepMatrix on
    dense arrays: linear() is L, and update(D) makes this object the
    Newton matrix L + B^T D B, with each point's (1 + dim) x (1 + dim)
    block of D on its rows of B."""

    def __init__(self, lin, jumps):
        self.lin = self.matrix = lin
        self.jumps = jumps

    def linear(self):
        return self.lin

    def update(self, derivatives):
        k = derivatives.shape[-1]
        rows = self.jumps.reshape(-1, k, self.jumps.shape[-1])
        self.derivatives = derivatives
        self.nonlinear = bool(derivatives.any())
        self.matrix = self.lin + np.einsum(
            "pai,pab,pbj->ij", rows, derivatives.reshape(-1, k, k), rows)
        return self

    def diagonal(self):
        return self.matrix.diagonal()

    def __matmul__(self, x):
        return self.matrix @ x


def crack_problem(lin, const, jumps, base, g, contact, cu, cv):
    """The timestepper.NewtonProblem with dense L = lin, c = const and B
    = jumps on unknowns that are all crack unknowns: its points, of unit
    weight and friction bound g, have the rows of base, (points, 1 +
    dim), as their jumps at x = 0."""
    base = np.asarray(base, dtype=float)[:, None, :]
    weights = np.ones(base.shape[:-1])
    return timestepper.NewtonProblem(
        np.arange(len(const)), DenseStep(np.asarray(lin, dtype=float), jumps),
        const, jumps, jumps.T, base, weights, np.full(weights.shape, g),
        contact, cu, cv)


def one_dof_oracle(p: OneDofParams, sample_times, dt_fine: float):
    """Brute-force explicit RK4 reference trajectory.

    dt_fine must not exceed 1e-5 of the linear period; each interval
    between requested samples is subdivided evenly so the samples are
    hit exactly.  Returns (u, v) arrays aligned with sample_times.
    """
    if dt_fine > 1e-5 * p.period:
        raise ValueError("dt_fine too coarse for an oracle "
                         f"(need <= {1e-5 * p.period:.3e})")
    forcing = p.forcing if p.forcing is not None else (lambda t: 0.0)
    inv_rho = 1.0 / p.rho

    def acc(t, u, v):
        s = p.gamma * u + v
        m = -s if s < 0.0 else 0.0
        contact = -(m * m) / p.epsilon
        friction = p.g * v / math.sqrt(v * v + p.epsilon * p.epsilon)
        return (forcing(t) - p.k * u - contact - friction) * inv_rho

    sample_times = [float(t) for t in sample_times]
    t = sample_times[0]
    u, v = p.u0, p.v0
    us, vs = [u], [v]
    for t_next in sample_times[1:]:
        span = t_next - t
        n = max(1, int(math.ceil(span / dt_fine - 1e-12)))
        h = span / n
        for i in range(n):
            ti = t + i * h
            k1u = v
            k1v = acc(ti, u, v)
            k2u = v + 0.5 * h * k1v
            k2v = acc(ti + 0.5 * h, u + 0.5 * h * k1u, v + 0.5 * h * k1v)
            k3u = v + 0.5 * h * k2v
            k3v = acc(ti + 0.5 * h, u + 0.5 * h * k2u, v + 0.5 * h * k2v)
            k4u = v + h * k3v
            k4v = acc(ti + h, u + h * k3u, v + h * k3v)
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t = t_next
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)
