"""The crack basis: the orthogonal change of unknowns in which the
stepper poses every free-dof linear system, the crack's jump operator B
and tangent-slot map S in it, and the one matrix per step size that
holds a system's linear part and its Newton matrix.

The crack terms act on the jump of the displacement and velocity across
the crack alone, so their penalty couples each plus-side crack dof to its
coincident minus-side copy.  Jacobi preconditioning cannot see that
coupling on the nodal dofs; on the mean and the jump of the two copies
it lies on the diagonal.  The basis is orthogonal, so norms, inner
products and CG's stopping rule in |r| are the same in it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import fem
from .meshing import unique_ranks

__all__ = ["CrackBasis", "StepMatrix"]


class CrackBasis:
    """The orthogonal basis of the Newton unknowns, and the crack's
    discretization in it.

    It is the identity but on each duplicated crack vertex whose two
    copies are free.  There the components of the copies x+ and x- in
    the vertex's normal/tangent frame become their mean and their jump,
    (x+ + x-)/sqrt(2) and (x+ - x-)/sqrt(2): the plus copy's free-dof
    positions hold the mean's normal and tangent components, the minus
    copy's the jump's.  The pairs are mesh.crack_partners.  The
    frame's normal n is the normalized sum of the normals of the
    vertex's crack pairs and its tangent (-n_y, n_x), so the basis turns
    with the mesh.  Crack tips and copies on the Dirichlet boundary keep
    their nodal dofs.  The basis, B and S are built when a run first
    needs them, not with the problem.

    Attributes (nfree = dofmap.free.size; the crack unknowns are those
    on quad.crack_free, in the order of quad.crack_dofs):
    dofs : (n, 4) the nodal dofs (x+, y+, x-, y-) of each of the n
        vertices with a frame; free_at their positions among the free
        dofs
    q : (n, 4, 4) each vertex's orthogonal block, from those dofs to
        (mean_n, mean_t, jump_n, jump_t)
    jumps : B = J Q^T, CSR, the jump operator J = quad.jumps on the
        crack unknowns (Q the basis on the crack dofs), with J's two rows
        per point, (normal, tangential); it holds no mean unknown.
        jumps_t is B^T, CSR
    tangent_map : S, CSR: the crack tangent B^T diag(D) B on its slots is
        S @ D for the pointwise law derivatives D, one per row of B
        (each point's normal derivative, then its tangential one; the
        laws do not couple them).  Its columns are the Khatri-Rao
        products of each row of B with itself
    slots : sorted flat keys row*nfree + col of the entries the crack
        tangent adds to; diagonal indexes the diagonal keys in slots,
        and diagonal_rows are their rows
    """

    def __init__(self, mesh, dofmap, quad):
        nv = mesh.n_vertices
        self.ndof, self.free = dofmap.ndof, dofmap.free
        self.nfree = n = self.free.size
        copies = np.stack(mesh.crack_partners, axis=1)
        dofs = fem.vertex_dofs(copies).reshape(-1, 4)
        self.dofs = dofs = dofs[~dofmap.constrained[dofs].any(axis=1)]
        self.free_at = np.searchsorted(self.free, dofs)
        plus = dofs[:, 0] // 2
        normal = np.stack([np.bincount(
            mesh.crack_plus.ravel(), minlength=nv,
            weights=np.repeat(mesh.crack_normals[:, c], 2))[plus]
            for c in range(2)], axis=1, dtype=float)   # float without pairs
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        frame = np.stack([normal, normal[:, ::-1] * (-1.0, 1.0)], axis=1)
        # q[v, 2a + i, 2b + j] = sign[a, b]*frame[v, i, j]
        sign = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
        self.q = (sign[:, None, :, None] * frame[:, None, :, None, :]
                  ).reshape(-1, 4, 4)
        # B = J G.  J's coefficients on a framed vertex's copies are c and
        # -c, so in the basis they are c E on its jump unknowns, E the
        # difference of Q^T's rows on the copies (2 sqrt(1/2) frame^T; it
        # is 0 on the mean): G maps the plus copy's positions there
        k, at = quad.crack_dofs.size, np.searchsorted(quad.crack_dofs, dofs)
        jump = (self.q[:, 2:, :2] - self.q[:, 2:, 2:]).transpose(0, 2, 1)
        own = np.setdiff1d(np.arange(k), at)
        rows = np.concatenate([own, np.repeat(at[:, :2], 2, axis=1).ravel()])
        cols = np.concatenate([own, np.tile(at[:, 2:], 2).ravel()])
        g = sp.csr_matrix((np.concatenate([np.ones(own.size), jump.ravel()]),
                           (rows, cols)), shape=(k, k))
        self.jumps = (quad.jumps @ g).tocsr()
        self.jumps_t = self.jumps.T.tocsr()
        self.slots, self.tangent_map = _tangent_map(
            self.jumps, quad.crack_free, n)
        rows, cols = np.divmod(self.slots, max(n, 1))
        self.diagonal = np.flatnonzero(rows == cols)
        self.diagonal_rows = rows[self.diagonal]

    def to_unknowns(self, w: np.ndarray) -> np.ndarray:
        """R w: the free-dof components of the nodal vector w in the
        basis."""
        return _turn_groups(w[self.free], self.free_at, self.q)

    def to_nodal(self, x: np.ndarray) -> np.ndarray:
        """R^T x: the nodal vector of components x in the basis, zero on
        the constrained dofs; R^T R is the identity on the free dofs."""
        w = np.zeros(self.ndof)
        w[self.free] = x
        w[self.dofs] = _turn_groups(x[self.free_at], slice(None), self.q,
                                    transpose=True)
        return w

    def turn(self, a: sp.csr_matrix) -> sp.csr_matrix:
        """R a R^T for a CSR matrix a on the free dofs, in place: the four
        rows of each framed vertex, then its four columns, turned by q.
        a's pattern must pair the four dofs of each framed vertex alike,
        as the assembled matrices' patterns (mesh.vertex_graph) do: then
        the four rows list the same columns in the same order, and a row
        holds all four columns or none."""
        g = self.free_at
        start = a.indptr[g]
        count = a.indptr[g + 1] - start
        alike = (count == count[:, :1]).all()
        count = count[:, 0]
        v = np.repeat(np.arange(count.size), count)
        # entry t of the vertex's first row, and the same entry of the
        # other three
        rows = (start[v] + np.arange(count.sum())[:, None]
                - np.repeat(np.cumsum(count) - count, count)[:, None])
        if not (alike and (a.indices[rows] == a.indices[rows[:, :1]]).all()):
            raise ValueError("the rows of a framed vertex list different "
                             "columns")
        a.data[rows] = np.einsum("tab,tb->ta", self.q[v], a.data[rows])
        # the four columns in the row of each of those entries' columns
        cols, found = _positions(a, a.indices[rows[:, :1]] * self.nfree
                                 + g[v], self.nfree)
        if not found.all():
            raise ValueError("a row holds some of a framed vertex's columns")
        a.data[cols] = np.einsum("tab,tb->ta", self.q[v], a.data[cols])
        return a


def _tangent_map(b, at, n):
    """(slots, S) of the jump operator b on the crack unknowns at free-dof
    positions at (n free dofs): for each row of b, every product of two
    of its entries, on their columns' slot and in that row's column of
    S; straight into CSR arrays."""
    length = np.diff(b.indptr)
    count = length * length
    row = np.repeat(np.arange(count.size), count)
    i, j = np.divmod(np.arange(count.sum()) - np.repeat(np.cumsum(count)
                                                        - count, count),
                     length[row])
    pa, pb = b.indptr[row] + i, b.indptr[row] + j
    slots, rank = unique_ranks(at[b.indices[pa]] * n + at[b.indices[pb]])
    order = np.argsort(rank, kind="stable")
    indptr = np.searchsorted(rank[order], np.arange(slots.size + 1))
    return slots, sp.csr_matrix(
        ((b.data[pa] * b.data[pb])[order], row[order], indptr),
        shape=(slots.size, b.shape[0]))


def _turn_groups(x, at, q, transpose=False):
    """x with each group x[at[v]] replaced by q[v] @ x[at[v]], or by
    q[v]^T @ x[at[v]], in place.  einsum, like the crack layer, passes
    non-finite values on without a warning."""
    x[at] = np.einsum("vji,vj->vi" if transpose else "vij,vj->vi", q, x[at])
    return x


def _positions(mat, keys, n):
    """The position in the data of the CSR matrix mat of each flat key
    row*n + col, and whether mat stores it; reads only the keys' rows."""
    rows = np.unique(keys // max(n, 1))
    start = mat.indptr[rows]
    count = mat.indptr[rows + 1] - start
    at = (np.repeat(start - np.cumsum(count) + count, count)
          + np.arange(count.sum()))
    stored = np.repeat(rows, count) * n + mat.indices[at]
    order = np.argsort(stored, kind="stable")
    i = np.minimum(np.searchsorted(stored, keys, sorter=order),
                   stored.size - 1)
    return at[order[i]], stored[order[i]] == keys


class StepMatrix:
    """One step size's free-dof matrices in the crack basis, on one CSR
    matrix: lin = ca*M + cu*K, pinned, the residual's linear part, and
    the Newton matrix, lin plus the crack tangent B^T D B on the basis's
    slots.  The data hold lin's values or the Newton matrix's on the
    slots, whichever was asked for last.  linear() returns lin, and this
    object is the Newton matrix, with ``@`` and diagonal() for
    fem.solve_spd, ``nonlinear``, false if it may be solved as a linear
    system, and ``derivatives``, the D it was built from."""

    def __init__(self, lin: sp.csr_matrix, basis: CrackBasis):
        self.matrix, self.basis = lin, basis
        self.at, found = _positions(lin, basis.slots, basis.nfree)
        if not found.all():
            raise ValueError("the matrix stores no entry at a crack slot")
        self.lin_at = self.newton_at = self.held = lin.data[self.at]
        self.derivatives = None
        self.nonlinear = False
        self._diag = None

    def _hold(self, values):
        if self.held is not values:
            self.matrix.data[self.at] = self.held = values

    def linear(self) -> sp.csr_matrix:
        self._hold(self.lin_at)
        return self.matrix

    def update(self, derivatives: np.ndarray) -> StepMatrix:
        """The Newton matrix of the pointwise law derivatives D, (npairs,
        nq, 2), each point's (normal, tangential) pair on its rows of B:
        lin plus S @ D on the slots, until the next update."""
        basis = self.basis
        if self._diag is None:
            self._diag = self.linear().diagonal()
        self.derivatives = derivatives
        self.nonlinear = bool(derivatives.any())    # crack terms are active
        self.newton_at = self.lin_at + basis.tangent_map @ derivatives.ravel()
        self._diag[basis.diagonal_rows] = self.newton_at[basis.diagonal]
        self._hold(self.newton_at)
        return self

    def diagonal(self) -> np.ndarray:
        return self._diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        self._hold(self.newton_at)
        return self.matrix @ x
