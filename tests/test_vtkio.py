import gc

import numpy as np
import pytest

from crackdyn import vtkio
from crackdyn.meshing import SIDE_PLUS, CrackedMesh, generate_rect_crack

# Written by the per-vertex f-string writer that preceded the cached mesh
# block; every byte of a snapshot is part of the output contract.
GOLDEN = """\
# vtk DataFile Version 3.0
t = 0.1
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
0.0 0.0 0.0
2.0 0.0 0.0
2.0 0.3333333333333333 0.0
0.1 1.0 0.0
CELLS 2 8
3 0 1 2
3 0 2 3
CELL_TYPES 2
5
5
POINT_DATA 4
VECTORS u double
0.0 -0.0 0.0
0.1 1e+16 0.0
1e-300 5e-324 0.0
-2.5 0.3333333333333333 0.0
VECTORS v double
5e-324 -1e-300 0.0
-1e+16 -0.1 0.0
0.0 -0.0 0.0
7.0 -0.6666666666666666 0.0
"""


def two_triangles():
    return CrackedMesh(2, [(0.0, 0.0), (2.0, 0.0), (2.0, 1 / 3), (0.1, 1.0)],
                       [(0, 1, 2), (0, 2, 3)], [SIDE_PLUS, SIDE_PLUS],
                       [(0, 3)], [(0, 1), (1, 2), (2, 3)], [])


def read_snapshot(path):
    """The four header lines and {section name: (header, data rows)}."""
    lines = path.read_text(encoding="ascii").split("\n")
    assert lines[-1] == ""
    sections, k = {}, 4
    while k < len(lines) - 1:
        head = lines[k].split()
        if head[0] == "VECTORS":
            name, size = f"VECTORS {head[1]}", n_points
        else:
            name, size = head[0], int(head[1])
        if name == "POINTS":
            n_points = size
        elif name == "POINT_DATA":
            size = 0
        sections[name] = (head, [r.split() for r in lines[k + 1:k + 1 + size]])
        k += 1 + size
    return lines[:4], sections


def test_golden_text(tmp_path):
    u = np.array([0.0, -0.0, 0.1, 1e16, 1e-300, 5e-324, -2.5, 1 / 3])
    v = np.array([5e-324, -1e-300, -1e16, -0.1, 0.0, -0.0, 7.0, -2 / 3])
    mesh = two_triangles()
    for k in range(2):      # the second write reuses the cached mesh block
        path = tmp_path / f"s{k}.vtk"
        vtkio.write_fields(path, mesh, u, v, title="t = 0.1")
        assert path.read_bytes() == GOLDEN.encode("ascii")


def test_title_is_truncated_or_defaulted(tmp_path):
    mesh = two_triangles()
    zero = np.zeros(8)
    vtkio.write_fields(tmp_path / "a.vtk", mesh, zero, zero, title="x" * 300)
    vtkio.write_fields(tmp_path / "b.vtk", mesh, zero, zero, title="")
    assert (tmp_path / "a.vtk").read_text().split("\n")[1] == "x" * 255
    assert (tmp_path / "b.vtk").read_text().split("\n")[1] == "fields"


def test_field_size_is_checked(tmp_path):
    mesh = two_triangles()
    with pytest.raises(ValueError):
        vtkio.write_fields(tmp_path / "a.vtk", mesh, np.zeros(7), np.zeros(8))


def points_of(path):
    _, sections = read_snapshot(path)
    return np.array([[float(x) for x in row[:2]]
                     for row in sections["POINTS"][1]])


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
    assert head == ["# vtk DataFile Version 3.0", "t = 0.25", "ASCII",
                    "DATASET UNSTRUCTURED_GRID"]
    assert list(sections) == ["POINTS", "CELLS", "CELL_TYPES", "POINT_DATA",
                              "VECTORS u", "VECTORS v"]
    assert sections["POINTS"][0] == ["POINTS", str(n), "double"]
    assert sections["CELLS"][0] == ["CELLS", str(nc), str(4 * nc)]
    assert sections["CELL_TYPES"][0] == ["CELL_TYPES", str(nc)]
    assert sections["POINT_DATA"][0] == ["POINT_DATA", str(n)]
    cells = np.array(sections["CELLS"][1], dtype=np.int64)
    assert np.array_equal(cells[:, 0], np.full(nc, 3))
    assert np.array_equal(cells[:, 1:], mesh.cells)
    assert sections["CELL_TYPES"][1] == [["5"]] * nc
    for key, want in (("POINTS", mesh.vertices.ravel()),
                      ("VECTORS u", u), ("VECTORS v", v)):
        rows = sections[key][1]
        assert len(rows) == n and all(len(r) == 3 and r[2] == "0.0"
                                      for r in rows)
        got = np.array([float(x) for r in rows for x in r[:2]])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
