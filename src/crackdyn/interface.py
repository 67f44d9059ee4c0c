"""Regularized crack-face contact and friction terms.

Contact penalizes the negative part of the jump of gamma*u_n + v_n
(normal displacement blended with normal velocity, gamma >= 0); friction
is a Tresca law with bound g, smoothed so the slip direction is
well-defined at zero slip rate.  All laws are monotone with symmetric
positive semidefinite derivatives, which keeps Newton systems SPD.

The crack is discretized once, by the quadrature's sparse jump operator
J from crack vectors (values on CrackQuadrature.crack_dofs) to each
quadrature point's (normal, tangential) jump pair: the body is 2-D, so
the tangential jump is one number, the jump's component along its
facet's unit tangent t = (-n_y, n_x).  crack_state is the
single evaluation of the crack at a state (its jumps and g at every
point; g = 0 without friction), recover_tractions the one evaluation of
the laws there, dbeta_eps and dalpha_eps their only derivatives.  The
rest is pointwise and reads only the quadrature weights W:
contact_residual and friction_residual weight the tractions, W sigma,
whose J^T is the crack force, and contact_tangent and friction_tangent
the derivatives D for a given chain-rule factor (formed by
timestepper.NewtonProblem), J^T D J the force's derivative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import exprlang, fem
from .exprlang import Expr
from .meshing import frames

__all__ = [
    "neg_part",
    "psi_eps",
    "beta_eps",
    "dbeta_eps",
    "phi_eps",
    "alpha_eps",
    "dalpha_eps",
    "ContactParams",
    "CrackQuadrature",
    "friction_bound_values",
    "crack_state",
    "contact_residual",
    "friction_residual",
    "contact_tangent",
    "friction_tangent",
    "recover_tractions",
    "FrictionBoundError",
]


class FrictionBoundError(ValueError):
    """The friction bound g evaluated negative somewhere."""


# ---------------------------------------------------------------------------
# regularizations
# ---------------------------------------------------------------------------

def neg_part(x):
    """[x]_- = max(-x, 0)."""
    return np.maximum(-np.asarray(x, dtype=float), 0.0)


def psi_eps(x, eps):
    """Penalty potential: cubic in the negative part, zero for x >= 0."""
    m = neg_part(x)
    return m * m * m / (3.0 * eps)

def beta_eps(x, eps):
    """d(psi_eps)/dx; nonpositive, monotone nondecreasing, C^1."""
    m = neg_part(x)
    return -(m * m) / eps

def dbeta_eps(x, eps):
    m = neg_part(x)
    return 2.0 * m / eps


def phi_eps(x, eps):
    """Smoothed absolute value sqrt(x^2 + eps^2)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(x * x + eps * eps)

def alpha_eps(x, eps):
    """d(phi_eps)/dx: x / sqrt(x^2 + eps^2), magnitude < 1."""
    x = np.asarray(x, dtype=float)
    return x / phi_eps(x, eps)

def dalpha_eps(x, eps):
    """d(alpha_eps)/dx: (1 - a*a)/phi, positive; equals 1/eps at x = 0."""
    phi = phi_eps(x, eps)
    a = np.asarray(x, dtype=float) / phi
    return (1.0 - a * a) / phi


# ---------------------------------------------------------------------------
# parameters and quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactParams:
    """Interface law parameters.

    gamma >= 0 blends normal displacement into the contact argument
    (gamma = 0: pure velocity condition); epsilon > 0 is the common
    regularization scale; g is the Tresca bound, an expression in t and
    the crack coordinates, required nonnegative wherever evaluated (0
    without friction).
    """

    gamma: float = 0.0
    epsilon: float = 1e-2
    g: Expr = exprlang.Num(0.0)

    def __post_init__(self):
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")


class CrackQuadrature:
    """Two-point Gauss rule on every crack facet pair, and the jump
    operator J on the crack dofs.

    It is built from the mesh's crack arrays (``crack_plus``,
    ``crack_minus``, the derived ``crack_normals``) and fem.FACET_SHAPES,
    and keeps no copy of them.  Attributes (npairs = number of pairs,
    nq = 2 points per facet):
    points : (npairs, nq, 2), weights : (npairs, nq)
    crack_dofs : sorted unconstrained dofs of the crack-face vertices;
        a crack vector holds one value per entry (w[crack_dofs])
    crack_free : position of each crack_dofs entry in dofmap.free
    jumps : J, CSR, on first use: at each point the normal jump, then
        the tangential one along t = (-n_y, n_x), rows in the order pair,
        point, (normal, tangential); a minus vertex's coefficients are
        its plus vertex's negated
    """

    def __init__(self, mesh, dofmap: fem.DofMap):
        n = mesh.n_pairs
        self.n_pairs = n
        self.points, self.weights = fem.facet_quadrature(
            mesh.vertices, mesh.crack_plus)
        self._bound_g = (None, None)

        verts = np.concatenate([mesh.crack_plus, mesh.crack_minus], axis=1)
        dofs = fem.vertex_dofs(verts)                       # (n, 4, 2)
        constrained = dofmap.constrained[dofs]
        self.crack_dofs = np.unique(dofs[~constrained])
        self.crack_free = np.searchsorted(dofmap.free, self.crack_dofs)
        slots = np.searchsorted(self.crack_dofs, dofs)
        live = ~constrained
        # each pair's facet vertex dofs' crack-vector positions, plus
        # vertices first; a constrained dof's is 0, with zero coefficients
        self._slots = np.where(live, slots, 0).reshape(n, 8)
        # the jump at point q is sum_i shp[q, i]*w_i over the four
        # vertices, along the facet's normal or its tangent
        shp = np.concatenate([fem.FACET_SHAPES, -fem.FACET_SHAPES], axis=1)
        direction = frames(mesh.crack_normals)
        self._rows = (shp[None, :, None, :, None]
                      * direction[:, None, :, None, :] * live[:, None, None]
                      ).reshape(n, len(shp) * 2, 8)

    @functools.cached_property
    def jumps(self) -> sp.csr_matrix:
        # a pair's rows summed onto its slots (a glued crack tip's two
        # copies, one vertex, cancel exactly), zeros dropped
        n, r, _ = self._rows.shape
        pair, row, col = np.nonzero(self._rows)
        out = sp.csr_matrix((self._rows[pair, row, col],
                             (pair * r + row, self._slots[pair, col])),
                            shape=(n * r, self.crack_dofs.size))
        out.eliminate_zeros()
        return out

    def friction_bound(self, g: Expr):
        """exprlang.bind of g on the quadrature points, a function of t;
        bound once per expression (the last one bound is kept)."""
        if self._bound_g[0] is not g:
            xy = (self.points[..., 0], self.points[..., 1])
            self._bound_g = (g, exprlang.bind(g, xy))
        return self._bound_g[1]


# ---------------------------------------------------------------------------
# the crack state
# ---------------------------------------------------------------------------

def friction_bound_values(params: ContactParams, quad: CrackQuadrature,
                          t: float) -> np.ndarray:
    """g at every quadrature point; aborts if any sample is negative or
    not finite."""
    vals = quad.friction_bound(params.g)(t).copy()
    if not (np.isfinite(vals) & (vals >= 0.0)).all():
        finite = np.isfinite(vals)
        if finite.all():
            bad = np.unravel_index(int(np.argmin(vals)), vals.shape)
            what = "negative"
        else:
            bad = np.unravel_index(int(np.argmin(finite)), vals.shape)
            what = "not finite"
        raise FrictionBoundError(
            f"friction bound g is {what} ({vals[bad]:.6g}) at "
            f"t={t:.6g}, point {quad.points[bad]}")
    return vals


def crack_state(u, v, t, params: ContactParams, quad: CrackQuadrature):
    """(s, jt, g) at the quadrature points, each (npairs, nq), from the
    crack vectors (on quad.crack_dofs) of u and v, by quad.jumps: the
    contact argument, the normal jump of gamma*u + v; the tangential jump
    of v; and the friction bound, zero without friction."""
    if not np.shape(u) == np.shape(v) == quad.crack_dofs.shape:
        raise ValueError("u and v must be crack vectors, one value per "
                         "quad.crack_dofs entry")
    shape = quad.weights.shape + (2,)
    s = fem.matvec(quad.jumps, params.gamma * u + v).reshape(shape)[..., 0]
    jt = fem.matvec(quad.jumps, v).reshape(shape)[..., 1]
    return s, jt, friction_bound_values(params, quad, t)


# ---------------------------------------------------------------------------
# the laws, and the crack forces at the points
# ---------------------------------------------------------------------------

def recover_tractions(crack, params: ContactParams):
    """Interface tractions at a crack_state's quadrature points.

    Returns (sigma_n, sigma_t), each (npairs, nq): the normal traction
    beta_eps(s) (always <= 0) and the tangential traction
    g*alpha_eps(jt) (always |sigma_t| <= g).
    """
    s, jt, g = crack
    return beta_eps(s, params.epsilon), g * alpha_eps(jt, params.epsilon)


def contact_residual(sigma_n, weights):
    """W sigma_n, (npairs, nq), whose J^T is the contact force: tested
    against w, the crack integral of sigma_n * jump(w_n)."""
    return sigma_n * weights


def friction_residual(sigma_t, weights):
    """W sigma_t, (npairs, nq), whose J^T is the friction force."""
    return sigma_t * weights


# ---------------------------------------------------------------------------
# tangents (derivatives with respect to the Newton unknown)
# ---------------------------------------------------------------------------

def contact_tangent(crack, params: ContactParams, weights, chain):
    """D = dbeta_eps*chain*weight, (npairs, nq), at a crack_state, for a
    direction z that moves its contact argument s by chain*z: J^T D J, J
    the normal jump, is the contact force's derivative."""
    return dbeta_eps(crack[0], params.epsilon) * chain * weights


def friction_tangent(crack, params: ContactParams, weights, chain):
    """D = chain*g*weight*dalpha_eps(jt), (npairs, nq), nonnegative, at a
    crack_state, for a direction z that moves its tangential jump jt by
    chain*z: J^T D J, J the tangential jump, is the friction force's
    derivative, at zero slip chain*g/eps times the tangential interface
    mass."""
    _, jt, g = crack
    return chain * g * weights * dalpha_eps(jt, params.epsilon)
