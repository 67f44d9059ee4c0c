"""The crack basis: the orthogonal change of unknowns in which the
stepper poses every free-dof linear system, and the one matrix per step
size that holds a system's linear part and its Newton matrix.

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

from .meshing import unique_ranks

__all__ = ["CrackBasis", "StepMatrix"]


class CrackBasis:
    """The orthogonal basis of the Newton unknowns.

    It is the identity but on each duplicated crack vertex whose two
    copies are free.  There the components of the copies x+ and x- in
    the vertex's normal/tangent frame become their mean and their jump,
    (x+ + x-)/sqrt(2) and (x+ - x-)/sqrt(2): the plus copy's free-dof
    positions hold the mean's normal and tangent components, the minus
    copy's the jump's.  The pairs are mesh.crack_partners.  The
    frame's normal n is the normalized sum of the normals of the
    vertex's crack pairs and its tangent (-n_y, n_x), so the basis turns
    with the mesh.  Crack tips and copies on the Dirichlet boundary keep
    their nodal dofs.  The basis is built when a run first needs it, not
    with the problem.

    Attributes (nfree = dofmap.free.size):
    dofs : (n, 4) the nodal dofs (x+, y+, x-, y-) of each of the n
        vertices with a frame; free_at their positions among the free
        dofs, crack_at in a crack vector (on quad.crack_dofs)
    q : (n, 4, 4) each vertex's orthogonal block, from those dofs to
        (mean_n, mean_t, jump_n, jump_t)
    pairs : (npairs, 8, 8) each crack pair's block of the basis on its
        local dofs (those of quad.jump_slots), the identity where a
        vertex keeps its nodal dofs
    slots : sorted flat keys row*nfree + col of the entries the pairs'
        tangents add to; slot_of (npairs*64,) is each pair's tangent
        entry's index in slots, or slots.size where it pairs a
        constrained dof; diagonal indexes the diagonal keys in slots,
        and diagonal_rows are their rows; crack_rows and crack_cols are
        the slots' rows and columns among the ncrack crack unknowns (on
        quad.crack_free)
    """

    def __init__(self, mesh, dofmap, quad):
        d, nv = mesh.dim, mesh.n_vertices
        self.ndof, self.free = dofmap.ndof, dofmap.free
        self.nfree = n = self.free.size
        copies = np.stack(mesh.crack_partners, axis=1)
        dofs = (copies[:, :, None] * d + np.arange(d)).reshape(-1, 2 * d)
        self.dofs = dofs = dofs[~dofmap.constrained[dofs].any(axis=1)]
        self.free_at = np.searchsorted(self.free, dofs)
        self.crack_at = np.searchsorted(quad.crack_dofs, dofs)
        plus = dofs[:, 0] // d
        normal = np.stack([np.bincount(
            mesh.crack_plus.ravel(), minlength=nv,
            weights=np.repeat(mesh.crack_normals[:, c], d))[plus]
            for c in range(d)], axis=1, dtype=float)   # float without pairs
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        frame = np.stack([normal, normal[:, ::-1] * (-1.0, 1.0)], axis=1)
        # q[v, 2a + i, 2b + j] = sign[a, b]*frame[v, i, j]
        sign = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
        self.q = (sign[:, None, :, None] * frame[:, None, :, None, :]
                  ).reshape(-1, 2 * d, 2 * d)
        # a pair's local dofs: its plus vertices' components, then minus
        group = np.full(nv, -1)
        group[plus] = np.arange(plus.size)
        v = group[mesh.crack_plus]
        pair, i = np.nonzero(v >= 0)
        local = (d * i[:, None, None] + [[0], [2 * d]]
                 + np.arange(d)).reshape(-1, 2 * d)
        self.pairs = np.tile(np.eye(4 * d), (mesh.n_pairs, 1, 1))
        self.pairs[pair[:, None, None], local[:, :, None],
                   local[:, None, :]] = self.q[v[pair, i]]
        verts = np.concatenate([mesh.crack_plus, mesh.crack_minus], axis=1)
        local = (verts[:, :, None] * d + np.arange(d)).reshape(-1, 4 * d)
        at = np.searchsorted(self.free, local)
        free = ~dofmap.constrained[local]
        live = (free[:, :, None] & free[:, None, :]).ravel()
        keys = (at[:, :, None] * n + at[:, None, :]).ravel()
        self.slots, rank = unique_ranks(keys[live])
        self.slot_of = np.full(live.size, self.slots.size)
        self.slot_of[live] = rank
        rows, cols = np.divmod(self.slots, max(n, 1))
        self.diagonal = np.flatnonzero(rows == cols)
        self.diagonal_rows = rows[self.diagonal]
        self.ncrack = quad.crack_free.size
        self.crack_rows = np.searchsorted(quad.crack_free, rows)
        self.crack_cols = np.searchsorted(quad.crack_free, cols)

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

    def crack_to_nodal(self, x: np.ndarray) -> np.ndarray:
        """The crack vector (on quad.crack_dofs) of the unknowns' crack
        entries x (on quad.crack_free), in place."""
        return _turn_groups(x, self.crack_at, self.q, transpose=True)

    def crack_to_unknowns(self, f: np.ndarray) -> np.ndarray:
        """The unknowns' crack entries of the crack vector f, in place."""
        return _turn_groups(f, self.crack_at, self.q)

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
    the Newton matrix, lin plus the pairs' crack tangents, which differs
    from lin on the basis's slots alone.  The matrix's data hold lin's
    values or the Newton matrix's on those slots, whichever was asked
    for last; each switch rewrites the slots, a few entries per crack
    row.  linear() returns lin, and this object is the Newton matrix,
    with what fem.solve_spd uses, ``@`` and diagonal(), ``nonlinear``,
    false if it may be solved as a linear system, and tangent_product,
    the tangents' part of it on the crack unknowns."""

    def __init__(self, lin: sp.csr_matrix, basis: CrackBasis):
        self.matrix, self.basis = lin, basis
        self.at, found = _positions(lin, basis.slots, basis.nfree)
        if not found.all():
            raise ValueError("the matrix stores no entry at a crack slot")
        self.lin_at = self.newton_at = self.held = lin.data[self.at]
        self.tangent_at = np.zeros(self.at.size)
        self.nonlinear = False
        self._diag = None

    def _hold(self, values):
        if self.held is not values:
            self.matrix.data[self.at] = self.held = values

    def linear(self) -> sp.csr_matrix:
        self._hold(self.lin_at)
        return self.matrix

    def update(self, tangents: np.ndarray) -> StepMatrix:
        """The Newton matrix of the pairs' summed tangents (npairs, 8, 8):
        each turned into the basis, P T P^T, and summed onto its slots.
        It holds until the next update."""
        basis = self.basis
        if self._diag is None:
            self._diag = self.linear().diagonal()
        self.nonlinear = bool(tangents.any())    # crack terms are active
        turned = basis.pairs @ tangents @ basis.pairs.transpose(0, 2, 1)
        self.tangent_at = np.bincount(
            basis.slot_of, weights=turned.ravel(),
            minlength=basis.slots.size + 1)[:-1]
        self.newton_at = self.lin_at + self.tangent_at
        self._diag[basis.diagonal_rows] = self.newton_at[basis.diagonal]
        self._hold(self.newton_at)
        return self

    def diagonal(self) -> np.ndarray:
        return self._diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        self._hold(self.newton_at)
        return self.matrix @ x

    def tangent_product(self, z: np.ndarray) -> np.ndarray:
        """T z: the pairs' tangents, as the last update wrote them into
        the slots, times z, both on the crack unknowns (the entries of a
        vector of unknowns on quad.crack_free).  It makes no product
        with the matrix."""
        basis = self.basis
        return np.bincount(basis.crack_rows,
                           weights=self.tangent_at * z[basis.crack_cols],
                           minlength=basis.ncrack)
