"""P1 vector finite elements for linear elasticity on cracked meshes.

Plane-strain convention in 2D: the Lamé parameters are used as given,
with stress sigma(u) = lam*div(u)*I + 2*mu*sym(grad u).  The bilinear
form is a(u, v) = lam*(div u, div v) + 2*mu*(E(u), E(v)); the V-norm is
induced by the stiffness matrix and the H-norm by the mass matrix
divided by the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import exprlang

__all__ = [
    "AssemblyError",
    "SolveError",
    "Material",
    "DofMap",
    "State",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_load",
    "solve_spd",
    "interpolate",
    "h_norm_sq",
    "facet_quadrature",
    "FACET_SHAPES",
]

_GAUSS2 = 1.0 / np.sqrt(3.0)
# P1 basis values at a facet's two Gauss points, [point, vertex]; symmetric
FACET_SHAPES = 0.5 * np.array([[1.0 + _GAUSS2, 1.0 - _GAUSS2],
                               [1.0 - _GAUSS2, 1.0 + _GAUSS2]])


class AssemblyError(ValueError):
    pass


class SolveError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Material:
    """Homogeneous isotropic material: Lamé parameters and density."""

    lam: float
    mu: float
    rho: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if not 0 < 3.0 * self.lam + 2.0 * self.mu < math.inf:
            raise ValueError("3*lam + 2*mu must be positive and finite")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")


class DofMap:
    """Vertex-blocked degrees of freedom: dof = vertex*dim + component.

    Dirichlet facet vertices contribute constrained dofs (all components);
    ``constrained`` is their mask and ``free`` the sorted index of the
    others, on which linear systems are posed.
    """

    def __init__(self, mesh):
        d = mesh.dim
        self.ndof = mesh.n_vertices * d
        constrained_vertices = np.unique(mesh.dirichlet_facets.ravel())
        mask = np.zeros(self.ndof, dtype=bool)
        for c in range(d):
            mask[constrained_vertices * d + c] = True
        self.constrained = mask
        self.free = np.flatnonzero(~mask)

    def zero_constrained(self, w: np.ndarray) -> np.ndarray:
        """A copy of the nodal field w with its constrained dofs zeroed."""
        w = np.array(w, dtype=float, copy=True)
        if w.shape != (self.ndof,):
            raise ValueError(f"field has shape {w.shape}, "
                             f"expected ({self.ndof},)")
        w[self.constrained] = 0.0
        return w


@dataclass
class State:
    """Trajectory sample: displacement, velocity, acceleration at time t."""

    t: float
    u: np.ndarray
    v: np.ndarray
    a: np.ndarray


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _cell_geometry(mesh):
    """Areas and P1 basis gradients; raises on non-positive cell area."""
    coords = mesh.vertices[mesh.cells]            # (nc, 3, 2)
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    bad = np.nonzero(det <= 0)[0]
    if bad.size:
        raise AssemblyError(f"cell {bad[0]} has non-positive area")
    area = 0.5 * det
    grads = np.empty((mesh.n_cells, 3, 2))
    grads[:, 1, 0] = e2[:, 1] / det
    grads[:, 1, 1] = -e2[:, 0] / det
    grads[:, 2, 0] = -e1[:, 1] / det
    grads[:, 2, 1] = e1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return coords, area, grads


def facet_quadrature(vertices, facets):
    """Two-point Gauss rule on two-vertex facets, exact for cubics: points
    (n, 2, 2) in the row order of FACET_SHAPES, and weights (n, 2)."""
    a = vertices[facets[:, 0]]
    b = vertices[facets[:, 1]]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    points = np.stack([mid - _GAUSS2 * half, mid + _GAUSS2 * half], axis=1)
    weights = np.repeat(np.linalg.norm(half, axis=1)[:, None], 2, axis=1)
    return points, weights


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_mass(mesh, material: Material) -> sp.csr_matrix:
    """Consistent mass matrix scaled by the density (SPD)."""
    _, area, _ = _cell_geometry(mesh)
    nc = mesh.n_cells
    d = mesh.dim
    s = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    block = material.rho * area[:, None, None] * s          # (nc, 3, 3)
    rows = []
    cols = []
    vals = []
    for c in range(d):
        dofs = mesh.cells * d + c                            # (nc, 3)
        rows.append(np.repeat(dofs, 3, axis=1).ravel())
        cols.append(np.tile(dofs, (1, 3)).ravel())
        vals.append(block.transpose(0, 2, 1).reshape(nc, 9).ravel())
    ndof = mesh.n_vertices * d
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndof, ndof))
    return m.tocsr()


def assemble_stiffness(mesh, material: Material) -> sp.csr_matrix:
    """Stiffness of a(u,v) = lam*(div u, div v) + 2*mu*(E(u), E(v))."""
    _, area, grads = _cell_geometry(mesh)
    nc = mesh.n_cells
    d = mesh.dim
    lam, mu = material.lam, material.mu
    gdot = np.einsum("nid,njd->nij", grads, grads)
    ke = (lam * np.einsum("n,nic,nje->nicje", area, grads, grads)
          + mu * np.einsum("n,nie,njc->nicje", area, grads, grads))
    ke += mu * area[:, None, None, None, None] * (
        gdot[:, :, None, :, None] * np.eye(d)[None, None, :, None, :])
    dofs = (mesh.cells[:, :, None] * d + np.arange(d)[None, None, :]).reshape(nc, 3 * d)
    rows = np.repeat(dofs, 3 * d, axis=1).ravel()
    cols = np.tile(dofs, (1, 3 * d)).ravel()
    vals = ke.reshape(nc, 3 * d, 3 * d).reshape(nc, -1).ravel()
    ndof = mesh.n_vertices * d
    k = sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof))
    return k.tocsr()


def assemble_load(mesh, material: Material, f=None, trac=None, t=0.0) -> np.ndarray:
    """Load vector: rho-weighted body force plus Neumann traction.

    ``f`` and ``trac`` are tuples of one expression per component (or
    None for zero).  Cell integrals use the three edge-midpoint points
    (exact for quadratics), facet integrals two-point Gauss.
    """
    d = mesh.dim
    ndof = mesh.n_vertices * d
    out = np.zeros(ndof)

    if f is not None:
        coords, area, _ = _cell_geometry(mesh)
        mids = 0.5 * (coords + np.roll(coords, -1, axis=1))   # (nc, 3, 2): m01, m12, m20
        w = area / 3.0
        xq = mids[:, :, 0].ravel()
        yq = mids[:, :, 1].ravel()
        nodal = np.zeros((mesh.n_vertices, d))
        # basis value at the midpoints: 1/2 on the two adjacent ones
        phi = 0.5 * np.array([[1.0, 0.0, 1.0],
                              [1.0, 1.0, 0.0],
                              [0.0, 1.0, 1.0]])
        for c in range(d):
            fq = exprlang.sample(f[c], t, (xq, yq)).reshape(mesh.n_cells, 3)
            contrib = np.einsum("n,iq,nq->ni", w, phi, fq) * material.rho
            np.add.at(nodal[:, c], mesh.cells.ravel(), contrib.ravel())
        out += nodal.ravel()

    if trac is not None and mesh.neumann_facets.shape[0]:
        facets = mesh.neumann_facets
        pts, wq = facet_quadrature(mesh.vertices, facets)
        nodal = np.zeros((mesh.n_vertices, d))
        xq = pts[:, :, 0].ravel()
        yq = pts[:, :, 1].ravel()
        for c in range(d):
            fq = exprlang.sample(trac[c], t, (xq, yq)).reshape(-1, 2)
            contrib = np.einsum("nq,qi,nq->ni", wq, FACET_SHAPES, fq)
            np.add.at(nodal[:, c], facets.ravel(), contrib.ravel())
        out += nodal.ravel()

    return out


def interpolate(mesh, exprs, t=0.0) -> np.ndarray:
    """Nodal interpolation of a tuple of component expressions."""
    d = mesh.dim
    xs = mesh.vertices[:, 0]
    ys = mesh.vertices[:, 1]
    out = np.zeros((mesh.n_vertices, d))
    for c in range(d):
        if exprs is not None and exprs[c] is not None:
            out[:, c] = exprlang.sample(exprs[c], t, (xs, ys))
    return out.ravel()


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def solve_spd(a, rhs, tol=1e-12, maxit=None):
    """Conjugate gradients with Jacobi preconditioning.

    ``a`` needs only ``a @ x`` and ``a.diagonal()``.  Deterministic:
    fixed zero initial guess, no randomized components.  Returns x with
    ||a x - rhs|| <= tol * ||rhs||; raises SolveError with the achieved
    residual if maxit iterations do not get there, and at once if the
    norm of rhs is not finite (an entry is not, or the norm overflows).
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if maxit is None:
        maxit = max(200, 20 * n)
    x = np.zeros(n)
    rr = float(rhs @ rhs)
    if not math.isfinite(rr):
        raise SolveError("right-hand side norm is not finite", rr)
    if rr == 0.0:
        return x
    diag = np.asarray(a.diagonal())
    if np.any(diag <= 0):
        raise SolveError("matrix has a non-positive diagonal entry", np.inf)
    inv_diag = 1.0 / diag
    target = tol * np.sqrt(rr)
    target_sq = target * target
    r = rhs.copy()
    z = r * inv_diag
    p = z.copy()
    rz = float(r @ z)
    for _ in range(maxit):
        if rr <= target_sq:
            return x
        q = a @ p
        pq = float(p @ q)
        if pq <= 0:
            raise SolveError("matrix is not positive definite", float(np.sqrt(rr)))
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rr = float(r @ r)
        np.multiply(r, inv_diag, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    res = float(np.sqrt(rr))
    if rr <= target_sq:
        return x
    raise SolveError(
        f"CG did not converge in {maxit} iterations "
        f"(residual {res:.3e}, target {target:.3e})", res)


def h_norm_sq(mass: sp.csr_matrix, rho: float, w: np.ndarray) -> float:
    """Squared L2 norm: the mass matrix carries rho, so divide it out."""
    return float(w @ (mass @ w)) / rho
