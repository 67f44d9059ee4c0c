"""P1 vector finite elements for linear elasticity on cracked meshes.

Plane-strain convention in 2D: the Lamé parameters are used as given,
with stress sigma(u) = lam*div(u)*I + 2*mu*sym(grad u).  The bilinear
form is a(u, v) = lam*(div u, div v) + 2*mu*(E(u), E(v)); the V-norm is
induced by the stiffness matrix and the H-norm by the mass matrix
divided by the density.

The package's products of a CSR matrix with a vector go through matvec,
which calls scipy's compiled CSR kernel, the one ``@`` itself ends in,
without the Python dispatch around it: the stepper's systems are small,
and on them that dispatch is a large share of each product.  solve_spd
keeps ``a @ p``, which on the stepper's Newton matrices is matvec too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import exprlang

__all__ = [
    "AssemblyError",
    "SolveError",
    "Material",
    "DofMap",
    "vertex_dofs",
    "State",
    "assemble_mass",
    "assemble_stiffness",
    "combine",
    "matvec",
    "LoadForm",
    "assemble_load",
    "solve_spd",
    "CGSolution",
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


def vertex_dofs(vertices) -> np.ndarray:
    """The dofs of the vertices' two components, x then y, on a new last
    axis: a vertex's dofs are 2*vertex + component."""
    return 2 * np.asarray(vertices)[..., None] + np.arange(2)


class DofMap:
    """Vertex-blocked degrees of freedom, numbered by vertex_dofs.

    Dirichlet facet vertices contribute constrained dofs (both
    components); ``constrained`` is their mask and ``free`` the sorted
    index of the others, on which linear systems are posed.
    """

    def __init__(self, mesh):
        self.ndof = 2 * mesh.n_vertices
        mask = np.zeros(self.ndof, dtype=bool)
        mask[vertex_dofs(np.unique(mesh.dirichlet_facets.ravel()))] = True
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

def _cell_edges(mesh):
    """Each cell's edges from its vertex 0, e1 = p1 - p0 and e2 = p2 - p0
    (2, nc), and det = e1 x e2 (nc,), twice its area; raises on a
    non-positive area."""
    corners = np.take(mesh.vertices.T, mesh.cells.T, axis=1)  # (2, 3, nc)
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    bad = np.nonzero(det <= 0)[0]
    if bad.size:
        raise AssemblyError(f"cell {bad[0]} has non-positive area")
    return e1, e2, det


def _cell_areas(mesh):
    """Cell areas (nc,); raises on a non-positive one."""
    return 0.5 * _cell_edges(mesh)[2]


def _cell_geometry(mesh):
    """Areas (nc,) and P1 basis gradients (3, 2, nc), [vertex, axis,
    cell]; raises on a non-positive area."""
    e1, e2, det = _cell_edges(mesh)
    grads = np.empty((3, 2, det.size))
    grads[1, 0] = e2[1] / det
    grads[1, 1] = -e2[0] / det
    grads[2, 0] = -e1[1] / det
    grads[2, 1] = e1[0] / det
    grads[0] = -grads[1] - grads[2]
    return 0.5 * det, grads


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

_MASS_BLOCK = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0


def _on_graph(mesh, blocks) -> np.ndarray:
    """Sum of the element blocks (3, 3, nc) at each pair of
    mesh.vertex_graph."""
    _, indices, slots = mesh.vertex_graph
    return np.bincount(slots.ravel(), weights=blocks.ravel(),
                       minlength=indices.size)


def _dof_matrix(mesh, blocks) -> sp.csr_matrix:
    """The CSR matrix on the dofs (vertex_dofs) whose (c, e) component
    block holds blocks[c][e], values at the pairs of mesh.vertex_graph,
    and has no entries where blocks[c][e] is None.  Every row component
    has the same number of blocks.  The data are written straight into
    place: row (i, c) lists, for each vertex j paired with i in
    increasing order, its components e in increasing order."""
    indptr, indices, _ = mesh.vertex_graph
    ndof = 2 * mesh.n_vertices
    width = sum(b is not None for b in blocks[0])
    count = np.diff(indptr)
    row_count = np.repeat(count, count)
    base = np.repeat(indptr[:-1], count) + np.arange(indices.size)
    data = np.empty(2 * width * indices.size)
    index_dtype = sp.get_index_dtype(maxval=max(data.size, ndof))
    cols = np.empty(data.size, dtype=index_dtype)
    for c in range(2):
        slot = width * (base + c * row_count)
        for e in range(2):
            if blocks[c][e] is not None:
                data[slot] = blocks[c][e]
                cols[slot] = indices * 2 + e
                slot += 1
    dof_ptr = np.zeros(ndof + 1, dtype=index_dtype)
    np.cumsum(np.repeat(width * count, 2), out=dof_ptr[1:])
    return sp.csr_matrix((data, cols, dof_ptr), shape=(ndof, ndof))


def assemble_mass(mesh, material: Material) -> sp.csr_matrix:
    """Consistent mass matrix scaled by the density (SPD); it couples
    equal components only, and stores no other entry."""
    m = _on_graph(mesh, (material.rho * _cell_areas(mesh))
                  * _MASS_BLOCK[:, :, None])
    return _dof_matrix(mesh, [[m, None], [None, m]])


def assemble_stiffness(mesh, material: Material) -> sp.csr_matrix:
    """Stiffness of a(u,v) = lam*(div u, div v) + 2*mu*(E(u), E(v)).
    Its pattern holds every component pair of each vertex pair, the
    mass matrix's entries among them."""
    return _dof_matrix(mesh, _stiffness_blocks(mesh, material))


def combine(mass, stiffness, ca: float, cu: float) -> sp.csr_matrix:
    """ca*mass + cu*stiffness on the stiffness's pattern, for the
    matrices assemble_mass and assemble_stiffness build on one mesh, as
    one combination of their data; at cu = 0 too, so that every free-dof
    system has the pattern the crack basis turns in place.  It relies on
    the layout _dof_matrix writes: row r of both lists the same vertices
    in the same order, the stiffness with both components of each and
    the mass with r's component alone."""
    start = (stiffness.indptr[:-1] - 2 * mass.indptr[:-1]
             + np.arange(mass.shape[0]) % 2)
    slots = (np.repeat(start, np.diff(mass.indptr))
             + 2 * np.arange(mass.nnz))
    data = cu * stiffness.data
    data[slots] += ca * mass.data
    return sp.csr_matrix((data, stiffness.indices, stiffness.indptr),
                         shape=stiffness.shape)


def matvec(a, x):
    """a @ x, bit for bit.  For a float64 CSR matrix and a 1-D float64
    x it calls scipy's csr_matvec, the kernel ``@`` ends in, directly
    into a zeroed output; that kernel does no bounds check, so the shape
    check scipy makes comes first (ValueError).  Anything else, dense
    operators, 2-D operands, other dtypes and wrappers of a matrix, is
    a @ x."""
    if (isinstance(a, sp.csr_matrix) and isinstance(x, np.ndarray)
            and x.ndim == 1 and a.dtype == float and x.dtype == float):
        m, n = a.shape
        if x.shape != (n,):
            raise ValueError(f"matvec: x has shape {x.shape}, "
                             f"expected ({n},)")
        y = np.zeros(m)
        _sparsetools.csr_matvec(m, n, a.indptr, a.indices, a.data, x, y)
        return y
    return a @ x


def _stiffness_blocks(mesh, material: Material):
    """The stiffness's (c, e) component blocks on mesh.vertex_graph; a
    function of its own, so that the cell arrays are freed before the
    matrix is laid out."""
    area, grads = _cell_geometry(mesh)
    lam, mu = material.lam, material.mu
    weighted = area * grads
    gdot = (grads[:, None, 0] * grads[None, :, 0]
            + grads[:, None, 1] * grads[None, :, 1])
    blocks = [[None, None], [None, None]]
    for c in range(2):
        for e in range(2):
            ke = (lam * (weighted[:, None, c] * grads[None, :, e])
                  + mu * (weighted[:, None, e] * grads[None, :, c]))
            if e == c:
                ke += (mu * area) * gdot
            blocks[c][e] = _on_graph(mesh, ke)
    return blocks


# P1 basis values at a cell's edge midpoints m01, m12, m20, [vertex, point]:
# 1/2 on the two midpoints next to the vertex
_MIDPOINT_SHAPES = 0.5 * np.array([[1.0, 0.0, 1.0],
                                   [1.0, 1.0, 0.0],
                                   [0.0, 1.0, 1.0]])


class _LoadPart:
    """One integral of the load: expressions bound to the quadrature
    points (n, nq, 2) of n elements, the weights times the shape values
    (n, nv, nq) of their nv vertices, a factor applied to the element
    vectors, and the dof of every (component, element, vertex) entry, the
    np.bincount index."""

    def __init__(self, exprs, points, weighted_shapes, vertices, ndof,
                 scale=1.0):
        xy = (points[..., 0].ravel(), points[..., 1].ravel())
        self.components = [exprlang.bind(e, xy) for e in exprs]
        self.shape = points.shape[:2]
        self.weighted_shapes = weighted_shapes
        self.scale = scale
        self.dofs = vertex_dofs(vertices.ravel()).T.ravel()
        self.ndof = ndof

    def __call__(self, t) -> np.ndarray:
        """The nodal vector of this integral at t, on every dof."""
        contrib = []
        for value in self.components:
            c = np.einsum("niq,nq->ni", self.weighted_shapes,
                          value(t).reshape(self.shape))
            c *= self.scale
            contrib.append(c.ravel())
        return np.bincount(self.dofs, weights=np.concatenate(contrib),
                           minlength=self.ndof)


class LoadForm:
    """The load's quadrature, built once per problem: rho-weighted body
    force plus Neumann traction.

    ``f`` and ``trac`` are tuples of one expression per component (or
    None for zero), bound to the quadrature points here.  Cell integrals
    use the three edge-midpoint points (exact for quadratics), facet
    integrals two-point Gauss.  ``body`` and ``traction`` are the two
    integrals, functions of t giving a nodal vector, or None where there
    is nothing to integrate; assemble_load sums them.
    """

    def __init__(self, mesh, material: Material, f=None, trac=None):
        self.ndof = 2 * mesh.n_vertices
        self.body = self.traction = None
        if f is not None:
            coords, area = mesh.vertices[mesh.cells], _cell_areas(mesh)
            mids = 0.5 * (coords + np.roll(coords, -1, axis=1))
            shapes = (area / 3.0)[:, None, None] * _MIDPOINT_SHAPES
            self.body = _LoadPart(f, mids, shapes, mesh.cells, self.ndof,
                                  scale=material.rho)
        if trac is not None and mesh.neumann_facets.shape[0]:
            facets = mesh.neumann_facets
            pts, wq = facet_quadrature(mesh.vertices, facets)
            shapes = wq[:, None, :] * FACET_SHAPES.T
            self.traction = _LoadPart(trac, pts, shapes, facets, self.ndof)


def assemble_load(form: LoadForm, t=0.0) -> np.ndarray:
    """Load vector of ``form`` at time t, on every dof."""
    out = np.zeros(form.ndof)
    for part in (form.body, form.traction):
        if part is not None:
            out += part(t)
    return out


def interpolate(mesh, exprs, t=0.0) -> np.ndarray:
    """Nodal interpolation of a tuple of component expressions."""
    xs = mesh.vertices[:, 0]
    ys = mesh.vertices[:, 1]
    out = np.zeros((mesh.n_vertices, 2))
    for c in range(2):
        if exprs is not None and exprs[c] is not None:
            out[:, c] = exprlang.bind(exprs[c], (xs, ys))(t)
    return out.ravel()


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

class CGSolution(NamedTuple):
    """What solve_spd's full_output returns: the solution x, CG's own
    residual rhs - a x as its recurrence carried it, and the products
    with a that CG made (its iterations)."""

    x: np.ndarray
    residual: np.ndarray
    iterations: int


def solve_spd(a, rhs, tol=1e-12, maxit=None, full_output=False):
    """Conjugate gradients with Jacobi preconditioning.

    ``a`` needs only ``a @ x`` and ``a.diagonal()``.  CG calls ``a @ p``
    itself, not matvec, so that any operator, or a wrapper that counts
    its products, may stand in for a; the stepper's Newton matrices are
    basis.StepMatrix objects, whose ``@`` is matvec.  Deterministic:
    fixed zero initial guess, no randomized components.  Returns x with
    ||a x - rhs|| <= tol * ||rhs||, or with full_output the CGSolution
    (x, residual, iterations); raises SolveError with the achieved
    residual if maxit iterations do not get there, and at once if the
    norm of rhs is not finite (an entry is not, or the norm overflows).
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if maxit is None:
        maxit = max(200, 20 * n)
    x = np.zeros(n)
    r = rhs.copy()
    rr = float(r @ r)
    if not math.isfinite(rr):
        raise SolveError("right-hand side norm is not finite", rr)
    if rr == 0.0:
        return CGSolution(x, r, 0) if full_output else x
    diag = np.asarray(a.diagonal())
    if np.any(diag <= 0):
        raise SolveError("matrix has a non-positive diagonal entry", np.inf)
    inv_diag = 1.0 / diag
    target = tol * np.sqrt(rr)
    target_sq = target * target
    z = r * inv_diag
    p = z.copy()
    rz = float(r @ z)
    for k in range(maxit):          # k products made so far
        if rr <= target_sq:
            break
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
    else:
        k = maxit
        if rr > target_sq:
            res = float(np.sqrt(rr))
            raise SolveError(
                f"CG did not converge in {maxit} iterations "
                f"(residual {res:.3e}, target {target:.3e})", res)
    return CGSolution(x, r, k) if full_output else x


def h_norm_sq(mass: sp.csr_matrix, rho: float, w: np.ndarray) -> float:
    """Squared L2 norm: the mass matrix carries rho, so divide it out."""
    return float(w @ matvec(mass, w)) / rho
