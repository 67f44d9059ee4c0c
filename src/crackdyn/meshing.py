"""Cracked simplicial meshes: generation, validation, text I/O.

A crack is represented by duplicated vertices: cells on the two sides of
the crack reference distinct vertex indices at geometrically coincident
positions.  The crack facet pairs are three aligned arrays: the plus-side
facets, the minus-side facets (vertices aligned position by position)
and the unit normals pointing from the minus side into the plus side.

Generation and validation work on whole arrays of cells, facets and
crack pairs, so the number of Python calls does not grow with the mesh.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "CrackedMesh",
    "SIDE_PLUS",
    "SIDE_MINUS",
    "generate_rect_crack",
    "save_mesh",
    "load_mesh",
    "unique_ranks",
]

SIDE_PLUS = 1
SIDE_MINUS = -1

_SIDE_NAMES = {SIDE_PLUS: "plus", SIDE_MINUS: "minus"}
_SIDE_VALUES = {"plus": SIDE_PLUS, "minus": SIDE_MINUS}

COINCIDENCE_RTOL = 1e-12


class MeshError(ValueError):
    """A mesh violates a structural invariant."""


class MeshFormatError(MeshError):
    """A mesh file cannot be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CrackedMesh:
    """Simplicial mesh of a cracked domain.

    Parameters
    ----------
    dim : int
        Spatial dimension.  Only 2 is supported.
    vertices : (nv, dim) array
    cells : (nc, dim+1) int array
    cell_sides : (nc,) int array of SIDE_PLUS / SIDE_MINUS
    dirichlet_facets, neumann_facets : (nf, dim) int arrays
    crack_plus, crack_minus : (npairs, dim) int arrays, each pair's two
        facets with coincident vertices aligned; empty input is (0, dim)
    crack_normals : (npairs, dim) unit outward normals of the minus facets
    """

    def __init__(self, dim, vertices, cells, cell_sides, dirichlet_facets,
                 neumann_facets, crack_plus, crack_minus, crack_normals):
        if dim != 2:
            raise MeshError(f"dim must be 2, got {dim}")
        self.dim = int(dim)
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.cell_sides = np.ascontiguousarray(cell_sides, dtype=np.int8)
        self.dirichlet_facets = np.ascontiguousarray(
            dirichlet_facets, dtype=np.int64).reshape(-1, dim)
        self.neumann_facets = np.ascontiguousarray(
            neumann_facets, dtype=np.int64).reshape(-1, dim)
        self.crack_plus, self.crack_minus, self.crack_normals = (
            a.reshape(0, dim) if a.size == 0 else a
            for a in (np.ascontiguousarray(crack_plus, dtype=np.int64),
                      np.ascontiguousarray(crack_minus, dtype=np.int64),
                      np.ascontiguousarray(crack_normals, dtype=float)))
        self.validate()

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_pairs(self) -> int:
        return len(self.crack_plus)

    @functools.cached_property
    def vertex_graph(self):
        """The pairs of vertices that the assembled matrices store, each
        vertex paired with itself too, as (indptr, indices, slots); built
        on first use and held until deleted, which build_operators does
        once M and K are assembled.  These are the pairs of vertices that
        share a cell or a crack pair, with each vertex of a pair swapped
        for its partner across the crack (crack_partners) too: the crack
        terms couple a crack pair's four vertices, and the crack basis
        turns each partner's rows and columns with the other's.  Row i
        of the CSR arrays (indptr, indices) lists the vertices paired
        with i in increasing order, and slots (dim+1, dim+1, nc) holds
        the position in indices of each cell's pair (cells[c, a],
        cells[c, b]) at [a, b, c].  One sort of the pair keys ranks them
        (unique_ranks)."""
        nv = self.n_vertices
        plus, minus = self.crack_partners
        partner = np.arange(nv)
        partner[plus], partner[minus] = minus, plus
        # the pairs of each crack pair's four vertices and of each cell
        # with a partnered vertex, with either vertex swapped for its
        # partner
        extra = []
        for group in (self.cells[(partner[self.cells] != self.cells)
                                 .any(axis=1)],
                      np.concatenate([self.crack_plus, self.crack_minus],
                                     axis=1)):
            i = np.repeat(group, group.shape[1], axis=1).ravel()
            j = np.tile(group, group.shape[1]).ravel()
            extra += [a * nv + b for a in (i, partner[i])
                      for b in (j, partner[j])]
        corners = np.ascontiguousarray(self.cells.T)
        n = corners.size * len(corners)
        keys = np.empty(n + sum(e.size for e in extra), dtype=np.int64)
        np.add(corners[:, None, :] * nv, corners[None, :, :],
               out=keys[:n].reshape(len(corners), len(corners), -1))
        np.concatenate(extra, out=keys[n:])
        pairs, ranks = unique_ranks(keys)
        rows, indices = np.divmod(pairs, nv)
        indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])
        return indptr, indices, ranks[:n].reshape(len(corners),
                                                  len(corners), -1)

    @functools.cached_property
    def crack_partners(self):
        """(plus, minus): each plus-side crack vertex onto which
        merged_vertex_map glues a minus-side copy, and that copy (the
        highest numbered, if it has several); built on first use."""
        ident = self.merged_vertex_map()
        minus = np.flatnonzero(ident != np.arange(self.n_vertices))[::-1]
        plus, first = np.unique(ident[minus], return_index=True)
        return plus, minus[first]

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants, raising MeshError on failure.

        Beyond shapes and index ranges: each crack pair is coincident and
        carries the outward normal of its minus facet, the crack
        separates its interior vertices (``_check_crack_separation``), and
        gluing the crack shut leaves a conforming mesh on which tagged
        facets are boundary facets and crack pairs interior ones
        (``_check_merged_conforming``).  Each check covers every item at
        once; where several items fail it, the first is named.
        """
        nv = self.n_vertices
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.dim:
            raise MeshError("vertices must have shape (nv, dim)")
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertex coordinates must be finite")
        if self.cells.ndim != 2 or self.cells.shape[1] != self.dim + 1:
            raise MeshError("cells must have shape (nc, dim+1)")
        if self.cell_sides.shape != (self.n_cells,):
            raise MeshError("every cell needs a side tag")
        if not np.all(np.isin(self.cell_sides, (SIDE_PLUS, SIDE_MINUS))):
            raise MeshError("cell side tags must be plus or minus")
        for name, arr in (("cells", self.cells),
                          ("dirichlet", self.dirichlet_facets),
                          ("neumann", self.neumann_facets)):
            if arr.size and (arr.min() < 0 or arr.max() >= nv):
                raise MeshError(f"{name} reference vertex out of range")
        if self.dirichlet_facets.shape[0] == 0:
            raise MeshError("Γ_D must be nonempty")

        plus, minus, normals = crack = (
            self.crack_plus, self.crack_minus, self.crack_normals)
        if any(a.shape != (self.n_pairs, self.dim) for a in crack):
            raise MeshError(f"crack plus, minus and normal arrays must all "
                            f"have shape (npairs, {self.dim})")
        verts = self.vertices
        _first_bad_pair(((plus < 0) | (plus >= nv)
                         | (minus < 0) | (minus >= nv)).any(axis=1),
                        "vertex index out of range")
        scale = max(1.0, float(np.abs(verts).max())) if nv else 1.0
        _first_bad_pair(np.abs(verts[plus] - verts[minus]).max(axis=(1, 2))
                        > COINCIDENCE_RTOL * scale,
                        "plus and minus facets are not coincident")
        _first_bad_pair(~(np.abs(np.linalg.norm(normals, axis=1) - 1.0)
                          <= 1e-12), "normal is not unit length")
        a, b = verts[minus[:, 0]], verts[minus[:, 1]]
        edge = b - a
        length = np.linalg.norm(edge, axis=1)
        _first_bad_pair(length == 0.0, "degenerate minus facet")
        cell = self._minus_cells(minus)
        _first_bad_pair(cell < 0, "minus facet borders no minus cell")
        # the edge's unit perpendicular, turned away from the minus cell
        perp = np.stack([edge[:, 1], -edge[:, 0]], axis=1) / length[:, None]
        outward = 0.5 * (a + b) - verts[self.cells[cell]].mean(axis=1)
        perp[np.einsum("pd,pd->p", perp, outward) < 0] *= -1.0
        _first_bad_pair(np.linalg.norm(normals - perp, axis=1) > 1e-10,
                        "normal does not match the outward normal of the "
                        "minus facet")

        self._check_crack_separation()
        self._check_merged_conforming()

    def _minus_cells(self, facets) -> np.ndarray:
        """Lowest-numbered minus cell holding each (n, 2) facet, or -1."""
        nv = self.n_vertices
        minus = np.flatnonzero(self.cell_sides == SIDE_MINUS)
        edges = self.cells[minus][:, [[0, 1], [1, 2], [0, 2]]]
        keys, first = np.unique(_facet_keys(edges, nv), return_index=True)
        # nv*nv exceeds every key, so a lookup past the end finds no cell
        keys = np.append(keys, nv * nv)
        cells = np.append(minus[first // 3], -1)
        want = _facet_keys(facets, nv)
        i = np.searchsorted(keys, want)
        return np.where(keys[i] == want, cells[i], -1)

    def _check_crack_separation(self) -> None:
        # A vertex strictly inside the crack (incident to >= 2 crack facets
        # on its side) must belong to cells of that side only; otherwise the
        # faces were not actually separated.
        interior = []
        for f in (self.crack_plus, self.crack_minus):
            verts, count = np.unique(f, return_counts=True)
            interior.append(verts[count >= 2])
        interior_plus, interior_minus = interior
        if np.intersect1d(interior_plus, interior_minus).size:
            raise MeshError("crack interior vertex is shared between the sides")
        plus = self.cell_sides == SIDE_PLUS
        in_plus = np.zeros(self.n_vertices, dtype=bool)
        in_minus = np.zeros(self.n_vertices, dtype=bool)
        in_plus[self.cells[plus]] = True
        in_minus[self.cells[~plus]] = True
        bad = np.union1d(interior_plus[in_minus[interior_plus]],
                         interior_minus[in_plus[interior_minus]])
        if bad.size:
            raise MeshError(
                f"vertices {bad.tolist()} lie strictly inside the crack but are "
                f"shared between plus and minus cells")

    def merged_vertex_map(self) -> np.ndarray:
        """Vertex renumbering that glues the crack shut.

        Minus-side crack vertices map onto their coincident plus-side
        partners; everything else maps to itself.
        """
        ident = np.arange(self.n_vertices, dtype=np.int64)
        vp, vm = self.crack_plus.ravel(), self.crack_minus.ravel()
        moved = np.flatnonzero(vp != vm)
        verts, first = np.unique(vm[moved], return_index=True)
        ident[verts] = vp[moved[first]]
        clash = moved[ident[vm[moved]] != vp[moved]]
        if clash.size:
            j = int(clash[0])
            raise MeshError(f"crack pair {j // self.dim}: vertex {vm[j]} "
                            f"pairs with several plus vertices")
        return ident

    def _check_merged_conforming(self) -> None:
        # Every facet of the glued mesh is keyed lo*nv + hi, lo < hi, in
        # (cell, dropped vertex) order; where several items are bad, the
        # lowest cell, the facet met first and the lowest pair are named.
        nv = self.n_vertices
        ident = self.merged_vertex_map()
        glued = ident[self.cells]
        v0, v1, v2 = glued.T
        degenerate = (v0 == v1) | (v1 == v2) | (v0 == v2)
        if degenerate.any():
            c = int(np.argmax(degenerate))
            raise MeshError(f"cell {c} degenerates when the crack is glued")
        ends = glued[:, [1, 0, 0]], glued[:, [2, 2, 1]]  # drop vertex 0, 1, 2
        keys = (np.minimum(*ends) * nv + np.maximum(*ends)).ravel()
        uniq, ranks = unique_ranks(keys)
        counts = np.bincount(ranks)
        over = counts > 2
        if over.any():
            i = ranks[np.argmax(over[ranks])]       # the one met first
            lo, hi = divmod(int(uniq[i]), nv)
            raise MeshError(
                f"glued mesh is not conforming: facet {[lo, hi]} is "
                f"shared by {int(counts[i])} cells")
        # nv*nv exceeds every key, so a lookup past the end finds count 0
        uniq = np.append(uniq, nv * nv)
        counts = np.append(counts, 0)

        def glued_counts(facets):
            """How many glued cells hold each (n, 2) facet once glued."""
            key = _facet_keys(ident[facets], nv)
            i = np.searchsorted(uniq, key)
            return np.where(uniq[i] == key, counts[i], 0)

        for name, facets in (("dirichlet", self.dirichlet_facets),
                             ("neumann", self.neumann_facets)):
            bad = glued_counts(facets) != 1
            if bad.any():
                f = facets[np.argmax(bad)]
                raise MeshError(
                    f"{name} facet {f.tolist()} is not a boundary facet")
        if np.intersect1d(_facet_keys(self.dirichlet_facets, nv),
                          _facet_keys(self.neumann_facets, nv)).size:
            raise MeshError("a facet is tagged both Dirichlet and Neumann")
        bad = glued_counts(self.crack_plus) != 2
        if bad.any():
            raise MeshError(
                f"crack pair {int(np.argmax(bad))} is not an interior facet "
                f"of the glued mesh")


def unique_ranks(keys):
    """(the distinct values of the 1-D array keys in increasing order,
    the index among them of each key's value), from one stable sort:
    equal keys end up next to each other, and each key's index is the
    number of distinct keys sorted before it."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = np.cumsum(first) - 1
    return ranked[first], ranks


def _facet_keys(facets, nv):
    """Orientation-free key lo*nv + hi of each facet along the last axis."""
    return facets.min(axis=-1) * nv + facets.max(axis=-1)


def _first_bad_pair(bad, message):
    if bad.any():
        raise MeshError(f"crack pair {int(np.argmax(bad))}: {message}")


# ---------------------------------------------------------------------------
# structured generator
# ---------------------------------------------------------------------------

def generate_rect_crack(width, height, nx, ny, crack_span=None) -> CrackedMesh:
    """Structured triangulation of a rectangle with a horizontal mid-crack.

    The rectangle [0, width] x [0, height] is meshed with nx-by-ny quads,
    each split into two triangles.  Cells above the midline y = height/2
    are tagged plus, cells below minus.  Midline vertices whose relative
    x position lies strictly inside ``crack_span`` (a subinterval of
    (0, 1)) are duplicated, and every midline edge touching a duplicated
    vertex becomes a crack facet pair with normal (0, 1).  The left and
    right edges are Dirichlet, top and bottom are Neumann.

    ``crack_span=None`` produces the glued (uncracked) variant.
    """
    if not (0 < width < np.inf and 0 < height < np.inf):
        raise MeshError("width and height must be positive and finite")
    if nx < 2 or ny < 2:
        raise MeshError("nx and ny must be at least 2")
    if ny % 2 != 0:
        raise MeshError("ny must be even so the midline is a mesh line")
    if crack_span is not None:
        lo, hi = crack_span
        if not lo < hi:
            raise MeshError("crack_span must have positive length")
        if lo <= 0.0 or hi >= 1.0:
            raise MeshError("crack reaches interface boundary")

    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    grid = np.arange((ny + 1) * (nx + 1), dtype=np.int64).reshape(ny + 1, -1)
    verts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)

    # quad (i, j) splits into (v00, v10, v11) and (v00, v11, v01), row by row
    v00, v10 = grid[:-1, :-1], grid[:-1, 1:]
    v01, v11 = grid[1:, :-1], grid[1:, 1:]
    cells = np.stack([np.stack([v00, v10, v11], axis=-1),
                      np.stack([v00, v11, v01], axis=-1)],
                     axis=2).reshape(-1, 3)
    jmid = ny // 2
    sides = np.repeat(np.where(np.arange(ny) < jmid, SIDE_MINUS, SIDE_PLUS),
                      2 * nx).astype(np.int8)

    # duplicate midline vertices strictly inside the span; minus cells are
    # rewired to the duplicates
    midline = grid[jmid]
    remap = np.arange(verts.shape[0], dtype=np.int64)
    if crack_span is not None:
        lo, hi = crack_span
        rel = np.arange(nx + 1) / nx
        orig = midline[(lo + 1e-12 < rel) & (rel < hi - 1e-12)]
        remap[orig] = verts.shape[0] + np.arange(orig.size)
        verts = np.vstack([verts, verts[orig]])
        minus_rows = sides == SIDE_MINUS
        cells[minus_rows] = remap[cells[minus_rows]]

    # every midline edge with a duplicated end is a crack pair
    edges = np.stack([midline[:-1], midline[1:]], axis=1)
    plus = edges[(remap[edges] != edges).any(axis=1)]

    dirichlet = np.stack([grid[:-1, [0, nx]], grid[1:, [0, nx]]],
                         axis=-1).reshape(-1, 2)
    neumann = np.stack([grid[[0, ny], :-1].T, grid[[0, ny], 1:].T],
                       axis=-1).reshape(-1, 2)

    return CrackedMesh(
        dim=2,
        vertices=verts,
        cells=cells,
        cell_sides=sides,
        dirichlet_facets=dirichlet,
        neumann_facets=neumann,
        crack_plus=plus,
        crack_minus=remap[plus],
        crack_normals=np.tile([0.0, 1.0], (plus.shape[0], 1)),
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
# crackmesh 1 <dim>
# vertices <n>        followed by n coordinate lines
# cells <n>           lines: v0 .. vd side
# dirichlet <n>       lines: d vertex indices
# neumann <n>
# crackpairs <n>      lines: d plus indices, d minus indices, d normal comps
#
# '#' starts a comment; blank lines are ignored.

def save_mesh(mesh: CrackedMesh, path) -> None:
    d = mesh.dim
    with open(path, "w") as f:
        f.write(f"crackmesh 1 {d}\n")
        f.write(f"vertices {mesh.n_vertices}\n")
        for p in mesh.vertices:
            f.write(" ".join(repr(float(c)) for c in p) + "\n")
        f.write(f"cells {mesh.n_cells}\n")
        for cell, side in zip(mesh.cells, mesh.cell_sides):
            f.write(" ".join(str(int(v)) for v in cell)
                    + f" {_SIDE_NAMES[int(side)]}\n")
        f.write(f"dirichlet {mesh.dirichlet_facets.shape[0]}\n")
        for facet in mesh.dirichlet_facets:
            f.write(" ".join(str(int(v)) for v in facet) + "\n")
        f.write(f"neumann {mesh.neumann_facets.shape[0]}\n")
        for facet in mesh.neumann_facets:
            f.write(" ".join(str(int(v)) for v in facet) + "\n")
        f.write(f"crackpairs {mesh.n_pairs}\n")
        for plus, minus, normal in zip(mesh.crack_plus, mesh.crack_minus,
                                       mesh.crack_normals):
            parts = [str(int(v)) for v in (*plus, *minus)]
            parts += [repr(float(c)) for c in normal]
            f.write(" ".join(parts) + "\n")


class _LineReader:
    def __init__(self, path):
        self.path = path
        self.lineno = 0
        with open(path) as f:
            self.raw = f.readlines()
        self.pos = 0

    def next_tokens(self):
        while self.pos < len(self.raw):
            line = self.raw[self.pos]
            self.pos += 1
            self.lineno = self.pos
            text = line.split("#", 1)[0].strip()
            if text:
                return text.split()
        raise MeshFormatError("unexpected end of file", len(self.raw))

    def error(self, message):
        raise MeshFormatError(message, self.lineno)


def load_mesh(path) -> CrackedMesh:
    """Read a mesh in the crackmesh text format and validate it."""
    r = _LineReader(path)
    header = r.next_tokens()
    if len(header) != 3 or header[0] != "crackmesh":
        r.error("expected header 'crackmesh 1 <dim>'")
    if header[1] != "1":
        r.error(f"unsupported format version {header[1]!r}")
    try:
        dim = int(header[2])
    except ValueError:
        r.error(f"bad dimension {header[2]!r}")
    if dim != 2:
        r.error(f"dimension must be 2, got {dim}")

    def section(name):
        toks = r.next_tokens()
        if len(toks) != 2 or toks[0] != name:
            r.error(f"expected section '{name} <count>'")
        try:
            n = int(toks[1])
        except ValueError:
            r.error(f"bad count {toks[1]!r}")
        if n < 0:
            r.error("count must be non-negative")
        return n

    def floats(toks, n):
        if len(toks) != n:
            r.error(f"expected {n} numbers, got {len(toks)}")
        try:
            return [float(tk) for tk in toks]
        except ValueError:
            r.error(f"bad number in {toks!r}")

    def ints(toks, n):
        if len(toks) != n:
            r.error(f"expected {n} integers, got {len(toks)}")
        try:
            return np.array([int(tk) for tk in toks], dtype=np.int64)
        except (ValueError, OverflowError):     # not an int64 either
            r.error(f"bad integer in {toks!r}")

    nv = section("vertices")
    vertices = np.array([floats(r.next_tokens(), dim) for _ in range(nv)],
                        dtype=float).reshape(nv, dim)

    nc = section("cells")
    cells = np.zeros((nc, dim + 1), dtype=np.int64)
    sides = np.zeros(nc, dtype=np.int8)
    for k in range(nc):
        toks = r.next_tokens()
        if len(toks) != dim + 2:
            r.error(f"cell line needs {dim + 1} vertices and a side tag")
        cells[k] = ints(toks[:-1], dim + 1)
        if toks[-1] not in _SIDE_VALUES:
            r.error(f"unknown side tag {toks[-1]!r}")
        sides[k] = _SIDE_VALUES[toks[-1]]

    nd = section("dirichlet")
    dirichlet = np.array([ints(r.next_tokens(), dim) for _ in range(nd)],
                         dtype=np.int64).reshape(nd, dim)
    nn = section("neumann")
    neumann = np.array([ints(r.next_tokens(), dim) for _ in range(nn)],
                       dtype=np.int64).reshape(nn, dim)

    crack = ([], [], [])
    for _ in range(section("crackpairs")):
        toks = r.next_tokens()
        if len(toks) != 3 * dim:
            r.error(f"crack pair line needs {3 * dim} entries")
        crack[0].append(ints(toks[:dim], dim))
        crack[1].append(ints(toks[dim:2 * dim], dim))
        crack[2].append(floats(toks[2 * dim:], dim))

    try:
        return CrackedMesh(dim, vertices, cells, sides, dirichlet, neumann,
                           *crack)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
