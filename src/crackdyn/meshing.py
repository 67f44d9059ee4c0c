"""Cracked simplicial meshes: generation, validation, text I/O.

A crack is represented by duplicated vertices: cells on the two sides of
the crack reference distinct vertex indices at geometrically coincident
positions.  Each crack facet pair stores the plus-side facet, the
minus-side facet (vertex lists aligned position by position) and the
unit normal pointing from the minus side into the plus side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "CrackPair",
    "CrackedMesh",
    "SIDE_PLUS",
    "SIDE_MINUS",
    "generate_rect_crack",
    "save_mesh",
    "load_mesh",
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


@dataclass(frozen=True)
class CrackPair:
    """Coincident facet pair across the crack.

    ``plus`` and ``minus`` list vertex indices aligned so that
    ``plus[i]`` and ``minus[i]`` occupy the same position.  ``normal``
    is the unit outward normal of the minus side.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))


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
    crack_pairs : sequence of CrackPair
    """

    def __init__(self, dim, vertices, cells, cell_sides, dirichlet_facets,
                 neumann_facets, crack_pairs, validate=True):
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
        self.crack_pairs = tuple(crack_pairs)
        if validate:
            self.validate()

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants, raising MeshError on failure."""
        nv = self.n_vertices
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.dim:
            raise MeshError("vertices must have shape (nv, dim)")
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

        scale = max(1.0, float(np.abs(self.vertices).max())) if nv else 1.0
        tol = COINCIDENCE_RTOL * scale
        facet_cells = self._facet_cells()
        for k, pair in enumerate(self.crack_pairs):
            if len(pair.plus) != self.dim or len(pair.minus) != self.dim:
                raise MeshError(f"crack pair {k}: facet must have {self.dim} vertices")
            for idx in (*pair.plus, *pair.minus):
                if not 0 <= idx < nv:
                    raise MeshError(f"crack pair {k}: vertex index out of range")
            pp = self.vertices[list(pair.plus)]
            pm = self.vertices[list(pair.minus)]
            if np.abs(pp - pm).max() > tol:
                raise MeshError(
                    f"crack pair {k}: plus and minus facets are not coincident")
            self._check_pair_normal(k, pair, facet_cells)
        del facet_cells     # not held through the conforming check's peak

        self._check_crack_separation()
        self._check_merged_conforming()

    def _check_pair_normal(self, k: int, pair: CrackPair, facet_cells) -> None:
        n = pair.normal
        if n.shape != (self.dim,):
            raise MeshError(f"crack pair {k}: normal must have {self.dim} components")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise MeshError(f"crack pair {k}: normal is not unit length")
        geom = self._outward_normal_of_minus_facet(k, pair, facet_cells)
        if np.linalg.norm(n - geom) > 1e-10:
            raise MeshError(
                f"crack pair {k}: normal does not match the outward normal "
                f"of the minus facet")

    def _outward_normal_of_minus_facet(self, k: int, pair: CrackPair,
                                       facet_cells) -> np.ndarray:
        a, b = self.vertices[pair.minus[0]], self.vertices[pair.minus[1]]
        edge = b - a
        length = np.linalg.norm(edge)
        if length == 0.0:
            raise MeshError(f"crack pair {k}: degenerate minus facet")
        perp = np.array([edge[1], -edge[0]]) / length
        cell = self._adjacent_cell(facet_cells, pair.minus, SIDE_MINUS)
        if cell is None:
            raise MeshError(f"crack pair {k}: minus facet borders no minus cell")
        centroid = self.vertices[self.cells[cell]].mean(axis=0)
        outward = 0.5 * (a + b) - centroid
        if np.dot(perp, outward) < 0:
            perp = -perp
        return perp

    def _facet_key(self, lo, hi, plus):
        """Integer key of facet (lo, hi), lo < hi, on the plus side or
        not; elementwise on arrays."""
        return (lo * self.n_vertices + hi) * 2 + plus

    def _facet_cells(self):
        """Every cell edge's facet key, sorted, with the lowest-numbered
        cell of each key."""
        edges = np.sort(self.cells[:, [[0, 1], [1, 2], [0, 2]]], axis=2)
        plus = (self.cell_sides == SIDE_PLUS)[:, None]
        keys = self._facet_key(edges[..., 0], edges[..., 1], plus)
        uniq, first = np.unique(keys.ravel(), return_index=True)
        return uniq, first // 3

    def _adjacent_cell(self, facet_cells, facet, side):
        """Lowest-numbered cell of ``side`` containing a two-vertex facet,
        or None."""
        keys, cells = facet_cells
        key = self._facet_key(*sorted(int(i) for i in facet), side == SIDE_PLUS)
        i = int(np.searchsorted(keys, key))
        return int(cells[i]) if i < keys.size and keys[i] == key else None

    def _check_crack_separation(self) -> None:
        # A vertex strictly inside the crack (incident to >= 2 crack facets
        # on its side) must belong to cells of that side only; otherwise the
        # faces were not actually separated.
        plus_count: dict[int, int] = {}
        minus_count: dict[int, int] = {}
        for pair in self.crack_pairs:
            for v in pair.plus:
                plus_count[v] = plus_count.get(v, 0) + 1
            for v in pair.minus:
                minus_count[v] = minus_count.get(v, 0) + 1
        interior_plus = {v for v, c in plus_count.items() if c >= 2}
        interior_minus = {v for v, c in minus_count.items() if c >= 2}
        if interior_plus & interior_minus:
            raise MeshError("crack interior vertex is shared between the sides")
        plus_cells_verts: set[int] = set()
        minus_cells_verts: set[int] = set()
        for c in range(self.n_cells):
            verts = set(self.cells[c].tolist())
            if self.cell_sides[c] == SIDE_PLUS:
                plus_cells_verts |= verts
            else:
                minus_cells_verts |= verts
        bad = (interior_plus & minus_cells_verts) | (interior_minus & plus_cells_verts)
        if bad:
            raise MeshError(
                f"vertices {sorted(bad)} lie strictly inside the crack but are "
                f"shared between plus and minus cells")

    def merged_vertex_map(self) -> np.ndarray:
        """Vertex renumbering that glues the crack shut.

        Minus-side crack vertices map onto their coincident plus-side
        partners; everything else maps to itself.
        """
        ident = np.arange(self.n_vertices, dtype=np.int64)
        for k, pair in enumerate(self.crack_pairs):
            for vp, vm in zip(pair.plus, pair.minus):
                if vm == vp:
                    continue
                if ident[vm] not in (vm, vp):
                    raise MeshError(
                        f"crack pair {k}: vertex {vm} pairs with several "
                        f"plus vertices")
                ident[vm] = vp
        return ident

    def _check_merged_conforming(self) -> None:
        ident = self.merged_vertex_map()
        counts: dict[frozenset, int] = {}
        for c in range(self.n_cells):
            cell = ident[self.cells[c]]
            if len(set(cell.tolist())) != self.dim + 1:
                raise MeshError(f"cell {c} degenerates when the crack is glued")
            for drop in range(self.dim + 1):
                facet = frozenset(np.delete(cell, drop).tolist())
                counts[facet] = counts.get(facet, 0) + 1
        for facet, cnt in counts.items():
            if cnt > 2:
                raise MeshError(
                    f"glued mesh is not conforming: facet {sorted(facet)} is "
                    f"shared by {cnt} cells")
        for name, facets in (("dirichlet", self.dirichlet_facets),
                             ("neumann", self.neumann_facets)):
            for f in facets:
                key = frozenset(ident[f].tolist())
                if counts.get(key, 0) != 1:
                    raise MeshError(
                        f"{name} facet {f.tolist()} is not a boundary facet")
        dir_set = {frozenset(f.tolist()) for f in self.dirichlet_facets}
        neu_set = {frozenset(f.tolist()) for f in self.neumann_facets}
        if dir_set & neu_set:
            raise MeshError("a facet is tagged both Dirichlet and Neumann")
        for k, pair in enumerate(self.crack_pairs):
            key = frozenset(ident[list(pair.plus)].tolist())
            if counts.get(key, 0) != 2:
                raise MeshError(
                    f"crack pair {k} is not an interior facet of the glued mesh")


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
    if width <= 0 or height <= 0:
        raise MeshError("width and height must be positive")
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
    vid = lambda i, j: j * (nx + 1) + i
    verts = [(x, y) for y in ys for x in xs]

    jmid = ny // 2
    cells = []
    sides = []
    for j in range(ny):
        side = SIDE_MINUS if j < jmid else SIDE_PLUS
        for i in range(nx):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v01 = vid(i, j + 1)
            v11 = vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
            sides.append(side)
            sides.append(side)

    # duplicate midline vertices strictly inside the span; minus cells are
    # rewired to the duplicates
    dup: dict[int, int] = {}
    if crack_span is not None:
        lo, hi = crack_span
        for i in range(nx + 1):
            rel = i / nx
            if lo + 1e-12 < rel < hi - 1e-12:
                orig = vid(i, jmid)
                dup[orig] = len(verts)
                verts.append(tuple(verts[orig]))
    cells_arr = np.array(cells, dtype=np.int64)
    sides_arr = np.array(sides, dtype=np.int8)
    if dup:
        remap = np.arange(len(verts), dtype=np.int64)
        for orig, copy in dup.items():
            remap[orig] = copy
        minus_rows = sides_arr == SIDE_MINUS
        cells_arr[minus_rows] = remap[cells_arr[minus_rows]]

    pairs = []
    normal = np.array([0.0, 1.0])
    for i in range(nx):
        a, b = vid(i, jmid), vid(i + 1, jmid)
        if a in dup or b in dup:
            pairs.append(CrackPair(
                plus=(a, b),
                minus=(dup.get(a, a), dup.get(b, b)),
                normal=normal,
            ))

    dirichlet = []
    neumann = []
    for j in range(ny):
        dirichlet.append((vid(0, j), vid(0, j + 1)))
        dirichlet.append((vid(nx, j), vid(nx, j + 1)))
    for i in range(nx):
        neumann.append((vid(i, 0), vid(i + 1, 0)))
        neumann.append((vid(i, ny), vid(i + 1, ny)))

    return CrackedMesh(
        dim=2,
        vertices=np.array(verts, dtype=float),
        cells=cells_arr,
        cell_sides=sides_arr,
        dirichlet_facets=np.array(dirichlet, dtype=np.int64),
        neumann_facets=np.array(neumann, dtype=np.int64),
        crack_pairs=pairs,
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
        f.write(f"crackpairs {len(mesh.crack_pairs)}\n")
        for pair in mesh.crack_pairs:
            parts = [str(int(v)) for v in pair.plus]
            parts += [str(int(v)) for v in pair.minus]
            parts += [repr(float(c)) for c in pair.normal]
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
            return [int(tk) for tk in toks]
        except ValueError:
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

    np_ = section("crackpairs")
    pairs = []
    for _ in range(np_):
        toks = r.next_tokens()
        if len(toks) != 3 * dim:
            r.error(f"crack pair line needs {3 * dim} entries")
        plus = ints(toks[:dim], dim)
        minus = ints(toks[dim:2 * dim], dim)
        normal = floats(toks[2 * dim:], dim)
        pairs.append(CrackPair(tuple(plus), tuple(minus), np.array(normal)))

    try:
        return CrackedMesh(dim, vertices, cells, sides, dirichlet, neumann, pairs)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
