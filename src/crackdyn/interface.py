"""Regularized crack-face contact and friction terms.

Contact penalizes the negative part of the jump of gamma*u_n + v_n
(normal displacement blended with normal velocity, gamma >= 0); friction
is a Tresca law with bound g, smoothed so the slip direction is
well-defined at zero slip rate.  All laws are monotone with symmetric
positive semidefinite derivatives, which keeps Newton systems SPD.

crack_state is the single evaluation of the crack at a state (its jumps
and g at every quadrature point); without friction g = 0.
recover_tractions is the one evaluation of the laws there, dbeta_eps and
dalpha_eps their only derivatives.  The crack layer reads and writes
crack vectors only, the values on CrackQuadrature.crack_dofs, through
the quadrature's precomputed jump operators J, its one discretization of
the crack: the jumps are J times a crack vector, each pair's residuals
J^T W times its tractions and its tangents J^T D J (W the weights, D the
pointwise derivatives); a caller sums them, and CrackQuadrature.scatter
alone puts them on the crack dofs.
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
    operators on the crack dofs.

    It is built from the mesh's crack arrays (``crack_plus``,
    ``crack_minus``, ``crack_normals``) and fem.FACET_SHAPES, and keeps no
    copy of them.  Attributes (npairs = number of pairs, nq = 2 points
    per facet):
    points : (npairs, nq, dim), weights : (npairs, nq)
    crack_dofs : sorted unconstrained dofs of the crack-face vertices.
        Crack vectors, the arguments of crack_state and the scattered
        residuals, hold one value per entry (a nodal vector w gives
        w[crack_dofs]), and the scattered tangents are dense blocks in
        this numbering
    crack_free : position of each crack_dofs entry in dofmap.free
    jump_slots : (npairs, 8) crack-vector position of each pair's facet
        vertex dofs, plus vertices first, each vertex's components in
        turn; a constrained dof has slot 0 and zero coefficients below
    block_slots : (npairs, 8, 8) flat position in a (k, k) block on
        crack_dofs of each pair's jump_slots pairs, k = crack_dofs.size
    normal_jump : (npairs, nq, 8) the normal jump at each point, as
        coefficients of the pair's jump_slots entries
    tangent_jump : (npairs, nq, dim, 8) the tangential part of the jump
        at each point, likewise
    """

    def __init__(self, mesh, dofmap: fem.DofMap):
        d = mesh.dim
        n = mesh.n_pairs
        self.n_pairs = n
        self.points, self.weights = fem.facet_quadrature(
            mesh.vertices, mesh.crack_plus)
        self._bound_g = (None, None)

        verts = np.concatenate([mesh.crack_plus, mesh.crack_minus], axis=1)
        dofs = verts[:, :, None] * d + np.arange(d)                    # (n, 4, d)
        constrained = dofmap.constrained[dofs]
        self.crack_dofs = np.unique(dofs[~constrained])
        self.crack_free = np.searchsorted(dofmap.free, self.crack_dofs)
        slots = np.searchsorted(self.crack_dofs, dofs)
        live = ~constrained
        self.jump_slots = np.where(live, slots, 0).reshape(n, 4 * d)
        k = self.crack_dofs.size
        self.block_slots = (self.jump_slots[:, :, None] * k
                            + self.jump_slots[:, None, :])
        # the jump at point q is sum_i shp[q, i]*w_i over the four vertices
        shp = np.concatenate([fem.FACET_SHAPES, -fem.FACET_SHAPES], axis=1)
        nrm = mesh.crack_normals
        proj = np.eye(d) - nrm[:, :, None] * nrm[:, None, :]           # (n, d, d)
        self.normal_jump = (shp[None, :, :, None] * nrm[:, None, None, :]
                            * live[:, None]).reshape(n, 2, 4 * d)
        self.tangent_jump = (shp[None, :, None, :, None]
                             * proj[:, None, :, None, :]
                             * live[:, None, None]).reshape(n, 2, d, 4 * d)

    def scatter(self, local: np.ndarray) -> np.ndarray:
        """The sum of per-pair terms onto the crack dofs: (npairs, 8)
        vectors on their jump_slots into a crack vector, or (npairs, 8, 8)
        blocks on their block_slots into a dense (k, k) block, k =
        crack_dofs.size.  A constrained dof's slot 0 has zero
        coefficients, so it adds zeros."""
        rank = local.ndim - 1
        slots = self.jump_slots if rank == 1 else self.block_slots
        k = self.crack_dofs.size
        # without pairs, bincount returns integers
        out = np.bincount(slots.ravel(), weights=local.ravel(),
                          minlength=k ** rank)
        return out.astype(float, copy=False).reshape((k,) * rank)

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
# the laws, and each pair's nodal forces (on its jump_slots)
# ---------------------------------------------------------------------------

def recover_tractions(crack, params: ContactParams):
    """Interface tractions at a crack_state's quadrature points.

    Returns (sigma_n, sigma_t): the normal traction beta_eps(s) (always
    <= 0) and the tangential traction vector g*alpha_eps(jt) (always
    |sigma_t| <= g).
    """
    s, jt, g = crack
    return (beta_eps(s, params.epsilon),
            g[..., None] * alpha_eps(jt, params.epsilon))


def contact_residual(sigma_n, quad: CrackQuadrature):
    """Each pair's contact forces from the normal tractions, (npairs, 8):
    J^T W sigma_n with J the normal jump.

    Scattered and tested against w, they give the crack integral of
    sigma_n * jump(w_n).
    """
    return np.einsum("pq,pqm->pm", sigma_n * quad.weights, quad.normal_jump)


def friction_residual(sigma_t, quad: CrackQuadrature):
    """Each pair's friction forces from the tangential tractions,
    (npairs, 8): J^T W sigma_t with J the tangential jump; zero without
    friction (g = 0)."""
    return np.einsum("pqc,pqcm->pm", sigma_t * quad.weights[..., None],
                     quad.tangent_jump)


# ---------------------------------------------------------------------------
# tangents (derivatives with respect to the Newton unknown)
# ---------------------------------------------------------------------------

def contact_tangent(crack, params: ContactParams, quad: CrackQuadrature,
                    coeff_u: float, coeff_v: float) -> np.ndarray:
    """Each pair's block of the derivative of the contact forces at the
    crack_state of (u, v) along a direction z entering as u + coeff_u*z,
    v + coeff_v*z, (npairs, 8, 8): J^T D J with J the normal jump and
    D = dbeta_eps*chain*weight at each point.  Symmetric PSD."""
    chain = params.gamma * coeff_u + coeff_v
    coef = dbeta_eps(crack[0], params.epsilon) * chain * quad.weights
    jump = quad.normal_jump
    return jump.swapaxes(1, 2) @ (coef[..., None] * jump)


def friction_tangent(crack, params: ContactParams, quad: CrackQuadrature,
                     coeff_v: float) -> np.ndarray:
    """Each pair's block of the derivative of the friction forces at a
    crack_state along v + coeff_v*z, (npairs, 8, 8): J^T D J with J the
    tangential jump and D = coeff_v*g*weight*dalpha_eps(jt) at each
    point.  Symmetric PSD; at zero slip it is coeff_v*g/eps times the
    tangential interface mass."""
    _, jt, g = crack
    coef = ((coeff_v * g * quad.weights)[..., None, None]
            * dalpha_eps(jt, params.epsilon))                 # (n, q, d, d)
    jump = quad.tangent_jump
    n, q, d, m = jump.shape
    rows = (n, q * d, m)                                    # a row per (q, c)
    return jump.reshape(rows).swapaxes(1, 2) @ (coef @ jump).reshape(rows)
