"""Regularized crack-face contact and friction terms.

Contact penalizes the negative part of the jump of gamma*u_n + v_n
(normal displacement blended with normal velocity, gamma >= 0); friction
is a Tresca law with bound g, smoothed so the slip direction is
well-defined at zero slip rate.  All laws are monotone with symmetric
positive semidefinite derivatives, which keeps Newton systems SPD.

crack_state is the single evaluation of the crack at a state (its jumps
and g at every quadrature point); the residuals, tangents and tractions
below are functions of what it returns; without friction g = 0.  The
crack layer reads and writes crack vectors only, the values on
CrackQuadrature.crack_dofs, through the quadrature's precomputed jump
operators J, its one discretization of the crack: the jumps are J times
a crack vector, the residuals J^T times the pointwise tractions, and the
tangents J^T D J with D the pointwise derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang, fem
from .exprlang import Expr

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
# scalar / vector regularizations
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
    """Smoothed norm sqrt(|x|^2 + eps^2); x has its components on the
    last axis."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.einsum("...d,...d->...", x, x) + eps * eps)

def alpha_eps(x, eps):
    """Gradient of phi_eps: x / sqrt(|x|^2 + eps^2), magnitude < 1."""
    x = np.asarray(x, dtype=float)
    return x / phi_eps(x, eps)[..., None]

def dalpha_eps(x, eps):
    """Jacobian of alpha_eps: (I - a a^T)/phi, symmetric PSD; equals
    I/eps at x = 0."""
    x = np.asarray(x, dtype=float)
    phi = phi_eps(x, eps)
    a = x / phi[..., None]
    d = x.shape[-1]
    eye = np.eye(d)
    return (eye - np.einsum("...c,...e->...ce", a, a)) / phi[..., None, None]


# ---------------------------------------------------------------------------
# parameters and quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactParams:
    """Interface law parameters.

    gamma >= 0 blends normal displacement into the contact argument
    (gamma = 0: pure velocity condition); epsilon > 0 is the common
    regularization scale; g is the Tresca bound, an expression in t and
    the crack coordinates, required nonnegative wherever evaluated.
    """

    gamma: float = 0.0
    epsilon: float = 1e-2
    g: Expr | None = None

    def __post_init__(self):
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")


class CrackQuadrature:
    """Two-point Gauss rule on every crack facet pair, and the jump
    operators on the crack dofs.

    Attributes (npairs = number of pairs, nq = 2 points per facet):
    plus_vertices, minus_vertices, normals : (npairs, 2) aligned vertex
        indices and (npairs, dim) normals, the mesh's crack arrays
    points : (npairs, nq, dim), weights : (npairs, nq)
    shapes : (nq, 2) P1 basis values at the quadrature points
    crack_dofs : sorted unconstrained dofs of the crack-face vertices.
        Crack vectors, the arguments of crack_state and the results of
        the residuals, hold one value per entry (a nodal vector w gives
        w[crack_dofs]), and the tangents are dense blocks in this
        numbering
    crack_free : position of each crack_dofs entry in dofmap.free
    jump_slots : (npairs, 8) crack-vector position of each pair's facet
        vertex dofs, plus vertices first, each vertex's components in
        turn; a constrained dof has slot 0 and zero coefficients below
    normal_jump : (npairs, nq, 8) the normal jump at each point, as
        coefficients of the pair's jump_slots entries
    tangent_jump : (npairs, nq, dim, 8) the tangential part of the jump
        at each point, likewise
    """

    def __init__(self, mesh, dofmap: fem.DofMap):
        d = mesh.dim
        n = mesh.n_pairs
        self.dim = d
        self.n_pairs = n
        self.n_vertices = mesh.n_vertices
        self.plus_vertices = mesh.crack_plus
        self.minus_vertices = mesh.crack_minus
        self.normals = mesh.crack_normals
        self.points, self.weights = fem.facet_quadrature(
            mesh.vertices, self.plus_vertices)
        self.shapes = fem.FACET_SHAPES
        self._bound_g = (None, None)

        verts = np.concatenate([self.plus_vertices, self.minus_vertices], axis=1)
        dofs = verts[:, :, None] * d + np.arange(d)                    # (n, 4, d)
        constrained = dofmap.constrained[dofs]
        self.crack_dofs = np.unique(dofs[~constrained])
        self.crack_free = np.searchsorted(dofmap.free, self.crack_dofs)
        slots = np.searchsorted(self.crack_dofs, dofs)
        live = ~constrained
        self.jump_slots = np.where(live, slots, 0).reshape(n, 4 * d)
        # the jump at point q is sum_i shp[q, i]*w_i over the four vertices
        shp = np.concatenate([self.shapes, -self.shapes], axis=1)     # (q, 4)
        nrm = self.normals
        proj = np.eye(d) - nrm[:, :, None] * nrm[:, None, :]           # (n, d, d)
        self.normal_jump = (shp[None, :, :, None] * nrm[:, None, None, :]
                            * live[:, None]).reshape(n, 2, 4 * d)
        self.tangent_jump = (shp[None, :, None, :, None]
                             * proj[:, None, :, None, :]
                             * live[:, None, None]).reshape(n, 2, d, 4 * d)

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
    if params.g is None:
        return np.zeros((quad.n_pairs, 2))
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


def crack_state(u, v, t, params: ContactParams, quad: CrackQuadrature,
                g=None):
    """(s, jt, g) at the quadrature points, from the crack vectors (on
    quad.crack_dofs) of u and v: the contact argument, the normal jump
    of gamma*u + v, shape (npairs, nq); the tangential jump of v,
    (npairs, nq, dim); and the friction bound, zero without friction.
    A caller that already holds friction_bound_values at t passes them
    as g, and they are used as given."""
    if not np.shape(u) == np.shape(v) == quad.crack_dofs.shape:
        raise ValueError("u and v must be crack vectors, one value per "
                         "quad.crack_dofs entry")
    slots = quad.jump_slots
    s = np.einsum("pqm,pm->pq", quad.normal_jump,
                  (params.gamma * u + v)[slots])
    jt = np.einsum("pqcm,pm->pqc", quad.tangent_jump, v[slots])
    if g is None:
        g = friction_bound_values(params, quad, t)
    return s, jt, g


# ---------------------------------------------------------------------------
# residual contributions (crack vectors of nodal forces)
# ---------------------------------------------------------------------------

def _scatter(quad, local):
    """Crack vector of per-pair values (npairs, 8) on the jump_slots."""
    # without pairs, bincount returns integers
    return np.bincount(quad.jump_slots.ravel(), weights=local.ravel(),
                       minlength=quad.crack_dofs.size).astype(float,
                                                              copy=False)


def contact_residual(crack, params: ContactParams, quad: CrackQuadrature):
    """Crack vector of the contact term's nodal forces at a crack_state.

    Tested against w, the result equals the crack integral of
    beta_eps(jump(gamma*u_n + v_n)) * jump(w_n).
    """
    vals = beta_eps(crack[0], params.epsilon) * quad.weights   # (n, q)
    return _scatter(quad, np.einsum("pq,pqm->pm", vals, quad.normal_jump))


def friction_residual(crack, params: ContactParams, quad: CrackQuadrature):
    """Crack vector of the smoothed Tresca term's nodal forces at a
    crack_state: g * alpha_eps of the tangential velocity jump, tested
    against tangential jumps; zero without friction (g = 0)."""
    _, jt, g = crack
    vals = (g * quad.weights)[..., None] * alpha_eps(jt, params.epsilon)
    return _scatter(quad, np.einsum("pqc,pqcm->pm", vals, quad.tangent_jump))


# ---------------------------------------------------------------------------
# tangents (derivatives with respect to the Newton unknown)
# ---------------------------------------------------------------------------

def _jump_block(quad, jump, coef_jump):
    """Dense (k, k) block J^T D J on quad.crack_dofs from a jump operator
    J and D J, both (npairs, rows, 8), scattered on the jump_slots (a
    constrained dof's slot 0 has zero coefficients, so it adds zeros)."""
    k, slots = quad.crack_dofs.size, quad.jump_slots
    index = slots[:, :, None] * k + slots[:, None, :]
    local = jump.swapaxes(1, 2) @ coef_jump                       # (n, 8, 8)
    # without pairs, bincount returns integers
    return np.bincount(index.ravel(), weights=local.ravel(), minlength=k * k
                       ).reshape(k, k).astype(float, copy=False)


def contact_tangent(crack, params: ContactParams, quad: CrackQuadrature,
                    coeff_u: float, coeff_v: float) -> np.ndarray:
    """Derivative of contact_residual at the crack_state of (u, v) along
    a direction z entering as u + coeff_u*z, v + coeff_v*z, as a dense
    block on quad.crack_dofs: J^T D J with J the normal jump and D =
    dbeta_eps*chain*weight at each point.  Symmetric PSD."""
    chain = params.gamma * coeff_u + coeff_v
    coef = dbeta_eps(crack[0], params.epsilon) * chain * quad.weights
    jump = quad.normal_jump
    return _jump_block(quad, jump, coef[..., None] * jump)


def friction_tangent(crack, params: ContactParams, quad: CrackQuadrature,
                     coeff_v: float) -> np.ndarray:
    """Derivative of friction_residual at a crack_state along v +
    coeff_v*z, as a dense block on quad.crack_dofs: J^T D J with J the
    tangential jump and D = coeff_v*g*weight/phi * (I - a a^T) at each
    point, a = alpha_eps(jt), phi = phi_eps(jt).  Symmetric PSD; at zero
    slip it is coeff_v*g/eps times the tangential interface mass."""
    _, jt, g = crack
    phi = phi_eps(jt, params.epsilon)
    a = jt / phi[..., None]
    jump = quad.tangent_jump
    coef_jump = ((coeff_v * g * quad.weights / phi)[..., None, None]
                 * (jump - a[..., :, None] * (a[..., None, :] @ jump)))
    rows = (quad.n_pairs, 2 * quad.dim, jump.shape[-1])     # a row per (q, c)
    return _jump_block(quad, jump.reshape(rows), coef_jump.reshape(rows))


# ---------------------------------------------------------------------------
# traction recovery
# ---------------------------------------------------------------------------

def recover_tractions(crack, params: ContactParams):
    """Interface tractions at a crack_state's quadrature points.

    Returns (sigma_n, sigma_t): the normal traction (always <= 0) and the
    tangential traction vector (always |sigma_t| <= g).
    """
    s, jt, g = crack
    return (beta_eps(s, params.epsilon),
            g[..., None] * alpha_eps(jt, params.epsilon))
