import gc
import struct

import numpy as np
import pytest

from crackdyn import vtkio
from crackdyn.meshing import SIDE_PLUS, CrackedMesh, generate_rect_crack

from conftest import read_snapshot

# The fields of the golden snapshot, as (x, y) rows: signed zeros, the
# smallest subnormal and doubles that need all 17 digits
U = [(0.0, -0.0), (0.1, 1e16), (1e-300, 5e-324), (-2.5, 1 / 3)]
V = [(5e-324, -1e-300), (-1e16, -0.1), (0.0, -0.0), (7.0, -2 / 3)]


def doubles(rows):
    """Big-endian x y 0.0 triples and the newline that ends the block."""
    return b"".join(struct.pack(">3d", x, y, 0.0) for x, y in rows) + b"\n"


# Every byte of a snapshot is part of the output contract; the data are
# packed by struct, independently of numpy's byte-order conversion.
GOLDEN = b"".join((
    b"# vtk DataFile Version 3.0\nt = 0.1\nBINARY\n"
    b"DATASET UNSTRUCTURED_GRID\nPOINTS 4 double\n",
    doubles([(0.0, 0.0), (2.0, 0.0), (2.0, 1 / 3), (0.1, 1.0)]),
    b"CELLS 2 8\n", struct.pack(">8i", 3, 0, 1, 2, 3, 0, 2, 3), b"\n",
    b"CELL_TYPES 2\n", struct.pack(">2i", 5, 5), b"\n",
    b"POINT_DATA 4\n",
    b"VECTORS u double\n", doubles(U),
    b"VECTORS v double\n", doubles(V),
))


def two_triangles():
    return CrackedMesh([(0.0, 0.0), (2.0, 0.0), (2.0, 1 / 3), (0.1, 1.0)],
                       [(0, 1, 2), (0, 2, 3)], [SIDE_PLUS, SIDE_PLUS],
                       [(0, 3)], [(0, 1), (1, 2), (2, 3)], [], [])


def test_golden_text(tmp_path):
    u, v = np.ravel(U), np.ravel(V)
    mesh = two_triangles()
    for k in range(2):      # the second write reuses the cached mesh block
        path = tmp_path / f"s{k}.vtk"
        vtkio.write_fields(path, mesh, u, v, title="t = 0.1")
        assert path.read_bytes() == GOLDEN


def test_title_is_truncated_or_defaulted(tmp_path):
    mesh = two_triangles()
    zero = np.zeros(8)
    vtkio.write_fields(tmp_path / "a.vtk", mesh, zero, zero, title="x" * 300)
    vtkio.write_fields(tmp_path / "b.vtk", mesh, zero, zero, title="")
    assert read_snapshot(tmp_path / "a.vtk")[0][1] == "x" * 255
    assert read_snapshot(tmp_path / "b.vtk")[0][1] == "fields"


def test_field_size_is_checked(tmp_path):
    mesh = two_triangles()
    with pytest.raises(ValueError):
        vtkio.write_fields(tmp_path / "a.vtk", mesh, np.zeros(7), np.zeros(8))


def points_of(path):
    return read_snapshot(path)[1]["POINTS"][1][:, :2]


def test_mesh_block_does_not_leak_between_meshes(tmp_path):
    a = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    b = generate_rect_crack(1.0, 3.0, 6, 4, crack_span=(0.2, 0.6))
    for name, mesh in (("a0", a), ("b", b), ("a1", a)):
        w = np.full(2 * mesh.n_vertices, 0.5)
        vtkio.write_fields(tmp_path / f"{name}.vtk", mesh, w, w)
        assert np.array_equal(points_of(tmp_path / f"{name}.vtk"),
                              mesh.vertices)
    assert (tmp_path / "a0.vtk").read_bytes() == (tmp_path / "a1.vtk").read_bytes()
    # a mesh made after another is freed may reuse its id(); its block
    # must still be its own
    del a
    gc.collect()
    c = generate_rect_crack(3.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    w = np.zeros(2 * c.n_vertices)
    vtkio.write_fields(tmp_path / "c.vtk", c, w, w)
    assert np.array_equal(points_of(tmp_path / "c.vtk"), c.vertices)


def test_round_trip_is_exact(tmp_path):
    mesh = generate_rect_crack(2.0, 1.0, 32, 16, crack_span=(0.25, 0.75))
    n, nc = mesh.n_vertices, mesh.n_cells
    rng = np.random.default_rng(7)
    u = rng.standard_normal(2 * n) * 10.0 ** rng.integers(-300, 300, 2 * n)
    v = rng.standard_normal(2 * n)
    u[:6] = [0.0, -0.0, 5e-324, -5e-324, 1e16, np.finfo(float).max]
    path = tmp_path / "fields.vtk"
    vtkio.write_fields(path, mesh, u, v, title="t = 0.25")
    head, sections = read_snapshot(path)
    assert head == ["# vtk DataFile Version 3.0", "t = 0.25", "BINARY",
                    "DATASET UNSTRUCTURED_GRID"]
    assert list(sections) == ["POINTS", "CELLS", "CELL_TYPES", "POINT_DATA",
                              "VECTORS u", "VECTORS v"]
    assert sections["POINTS"][0] == ["POINTS", str(n), "double"]
    assert sections["CELLS"][0] == ["CELLS", str(nc), str(4 * nc)]
    assert sections["CELL_TYPES"][0] == ["CELL_TYPES", str(nc)]
    assert sections["POINT_DATA"][0] == ["POINT_DATA", str(n)]
    assert sections["VECTORS u"][0] == ["VECTORS", "u", "double"]
    cells = sections["CELLS"][1]
    assert np.array_equal(cells[:, 0], np.full(nc, 3))
    assert np.array_equal(cells[:, 1:], mesh.cells)
    assert np.array_equal(sections["CELL_TYPES"][1], np.full(nc, 5))
    for key, want in (("POINTS", mesh.vertices.ravel()),
                      ("VECTORS u", u), ("VECTORS v", v)):
        rows = sections[key][1].astype(float)
        assert rows.shape == (n, 3)
        assert np.array_equal(rows[:, 2].view(np.int64), np.zeros(n, np.int64))
        got = rows[:, :2].ravel()
        # bit for bit: equal values, and the same signs of zero
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(np.signbit(got), np.signbit(want))
