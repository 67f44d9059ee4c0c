import numpy as np
import pytest

from crackdyn import meshing
from crackdyn.meshing import (
    CrackedMesh,
    CrackPair,
    MeshError,
    MeshFormatError,
    SIDE_MINUS,
    SIDE_PLUS,
    generate_rect_crack,
    load_mesh,
    save_mesh,
)


def test_small_rect_counts():
    # 2x2 quads on [0,2]x[0,1], crack over the middle half of the midline:
    # one duplicated midline vertex, two crack facet pairs, eight triangles.
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    assert m.n_vertices == 10
    assert m.n_cells == 8
    assert len(m.crack_pairs) == 2
    assert np.count_nonzero(m.cell_sides == SIDE_PLUS) == 4
    assert np.count_nonzero(m.cell_sides == SIDE_MINUS) == 4
    for pair in m.crack_pairs:
        assert np.allclose(pair.normal, [0.0, 1.0])
    # the duplicate sits on top of its original
    dup = m.n_vertices - 1
    assert np.allclose(m.vertices[dup], [1.0, 0.5])


def test_three_pair_fixture():
    # nx = 3 on [0,3], span (1/6, 5/6): both interior midline vertices are
    # duplicated, so all three midline edges become crack pairs.
    m = generate_rect_crack(3.0, 1.0, 3, 2, crack_span=(1 / 6, 5 / 6))
    assert len(m.crack_pairs) == 3
    for pair in m.crack_pairs:
        assert len(pair.plus) == len(pair.minus) == 2
        assert np.allclose(m.vertices[list(pair.plus)],
                           m.vertices[list(pair.minus)])


def test_glued_when_span_is_none():
    m = generate_rect_crack(1.0, 1.0, 4, 4)
    assert len(m.crack_pairs) == 0
    assert m.crack_pairs == ()
    assert np.array_equal(m.merged_vertex_map(), np.arange(m.n_vertices))


def test_generator_errors():
    with pytest.raises(MeshError, match="even"):
        generate_rect_crack(1.0, 1.0, 4, 3, crack_span=(0.25, 0.75))
    with pytest.raises(MeshError, match="positive length"):
        generate_rect_crack(1.0, 1.0, 4, 4, crack_span=(0.5, 0.5))
    with pytest.raises(MeshError, match="boundary"):
        generate_rect_crack(1.0, 1.0, 4, 4, crack_span=(0.0, 0.5))
    with pytest.raises(MeshError, match="boundary"):
        generate_rect_crack(1.0, 1.0, 4, 4, crack_span=(0.5, 1.0))
    with pytest.raises(MeshError, match="positive"):
        generate_rect_crack(-1.0, 1.0, 4, 4)


def test_normal_points_from_minus_to_plus():
    m = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))

    def centroid_of(facet, side):
        want = set(int(v) for v in facet)
        for c in range(m.n_cells):
            if m.cell_sides[c] == side and want <= set(m.cells[c].tolist()):
                return m.vertices[m.cells[c]].mean(axis=0)
        raise AssertionError("no adjacent cell found")

    for pair in m.crack_pairs:
        cp = centroid_of(pair.plus, SIDE_PLUS)
        cm = centroid_of(pair.minus, SIDE_MINUS)
        assert np.dot(pair.normal, cp - cm) > 0


def test_refinement_contains_coarse_vertices():
    coarse = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    fine = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    fine_set = {tuple(np.round(p, 12)) for p in fine.vertices}
    for p in coarse.vertices:
        assert tuple(np.round(p, 12)) in fine_set


def test_trace_maps_coincide():
    m = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.2, 0.8))
    assert len(m.crack_pairs) == 4
    for pair in m.crack_pairs:
        assert np.allclose(m.vertices[list(pair.plus)],
                           m.vertices[list(pair.minus)])


def test_validate_rejects_moved_duplicate():
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    verts = m.vertices.copy()
    verts[-1] += [1e-3, 0.0]
    with pytest.raises(MeshError, match="coincident"):
        CrackedMesh(2, verts, m.cells, m.cell_sides,
                    m.dirichlet_facets, m.neumann_facets, m.crack_pairs)


def test_validate_rejects_flipped_normal():
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    bad = [CrackPair(p.plus, p.minus, -p.normal) for p in m.crack_pairs]
    with pytest.raises(MeshError, match="outward normal"):
        CrackedMesh(2, m.vertices, m.cells, m.cell_sides,
                    m.dirichlet_facets, m.neumann_facets, bad)


def test_validate_rejects_shared_interior_vertex():
    # rewire the minus cells back onto the plus-side duplicate partner:
    # the interior crack vertex is then shared between the sides
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    dup = m.n_vertices - 1
    orig = int(m.crack_pairs[0].plus[1])
    cells = m.cells.copy()
    cells[cells == dup] = orig
    with pytest.raises(MeshError, match="crack"):
        CrackedMesh(2, m.vertices, cells, m.cell_sides,
                    m.dirichlet_facets, m.neumann_facets, m.crack_pairs)


def test_validate_rejects_empty_dirichlet():
    m = generate_rect_crack(1.0, 1.0, 2, 2)
    with pytest.raises(MeshError, match="nonempty"):
        CrackedMesh(2, m.vertices, m.cells, m.cell_sides,
                    np.zeros((0, 2), dtype=np.int64), m.neumann_facets,
                    m.crack_pairs)


def test_validate_rejects_double_tagged_facet():
    m = generate_rect_crack(1.0, 1.0, 2, 2)
    neumann = np.vstack([m.neumann_facets, m.dirichlet_facets[:1]])
    with pytest.raises(MeshError, match="both"):
        CrackedMesh(2, m.vertices, m.cells, m.cell_sides,
                    m.dirichlet_facets, neumann, m.crack_pairs)


def test_validate_rejects_interior_tagged_facet():
    m = generate_rect_crack(1.0, 1.0, 2, 2)
    interior = None
    counts = {}
    for cell in m.cells:
        for drop in range(3):
            key = frozenset(np.delete(cell, drop).tolist())
            counts[key] = counts.get(key, 0) + 1
    for key, cnt in counts.items():
        if cnt == 2:
            interior = sorted(key)
            break
    neumann = np.vstack([m.neumann_facets, [interior]])
    with pytest.raises(MeshError, match="boundary"):
        CrackedMesh(2, m.vertices, m.cells, m.cell_sides,
                    m.dirichlet_facets, neumann, m.crack_pairs)


def test_validate_rejects_minus_facet_without_minus_cell():
    m = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    sides = np.full(m.n_cells, SIDE_PLUS, dtype=np.int8)
    with pytest.raises(MeshError,
                       match="crack pair 0: minus facet borders no minus cell"):
        CrackedMesh(2, m.vertices, m.cells, sides,
                    m.dirichlet_facets, m.neumann_facets, m.crack_pairs)


def test_facet_cells_match_a_scan_of_every_cell():
    # reference: the first cell, by index, of the facet's side whose
    # vertices include the facet's
    m = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.25, 0.75))
    facet_cells = m._facet_cells()

    def scan(facet, side):
        for c in range(m.n_cells):
            if m.cell_sides[c] == side and set(facet) <= set(m.cells[c].tolist()):
                return c
        return None

    nv = m.n_vertices
    for a in range(nv):
        for b in range(a + 1, nv):
            for side in (SIDE_PLUS, SIDE_MINUS):
                for facet in ((a, b), (b, a)):
                    assert m._adjacent_cell(facet_cells, facet, side) == \
                        scan(facet, side)


def test_dim3_unsupported():
    with pytest.raises(MeshError, match="dim must be 2"):
        CrackedMesh(3, np.zeros((4, 3)), np.zeros((1, 4), dtype=np.int64),
                    np.array([SIDE_PLUS]), np.zeros((1, 3), dtype=np.int64),
                    np.zeros((0, 3), dtype=np.int64), ())


def test_save_load_roundtrip(tmp_path):
    m = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.2, 0.8))
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.cells, m.cells)
    assert np.array_equal(back.cell_sides, m.cell_sides)
    assert np.array_equal(back.dirichlet_facets, m.dirichlet_facets)
    assert np.array_equal(back.neumann_facets, m.neumann_facets)
    assert len(back.crack_pairs) == len(m.crack_pairs)
    for a, b in zip(back.crack_pairs, m.crack_pairs):
        assert a.plus == b.plus and a.minus == b.minus
        assert np.array_equal(a.normal, b.normal)
    # saving the loaded mesh reproduces the file byte for byte
    path2 = tmp_path / "mesh2.txt"
    save_mesh(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_tolerates_comments_and_blanks(tmp_path):
    m = generate_rect_crack(1.0, 1.0, 2, 2)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    text = path.read_text()
    decorated = "# a comment\n\n" + text.replace(
        "cells", "# another\ncells", 1)
    path.write_text(decorated)
    back = load_mesh(path)
    assert back.n_cells == m.n_cells


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("wrongmagic 1 2\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh(path)

    good = generate_rect_crack(1.0, 1.0, 2, 2)
    path2 = tmp_path / "trunc.txt"
    save_mesh(good, path2)
    lines = path2.read_text().splitlines()
    path2.write_text("\n".join(lines[:4]) + "\n")  # cut inside the vertex block
    with pytest.raises(MeshFormatError):
        load_mesh(path2)


def test_load_validates_invariants(tmp_path):
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    verts = m.vertices.copy()
    verts[-1] += [5e-3, 0.0]
    path = tmp_path / "bad.txt"
    save_mesh(CrackedMesh(2, verts, m.cells, m.cell_sides, m.dirichlet_facets,
                          m.neumann_facets, m.crack_pairs, validate=False),
              path)
    with pytest.raises(MeshError, match="coincident"):
        load_mesh(path)


def test_merged_vertex_map_glues_pairs():
    m = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    ident = m.merged_vertex_map()
    for pair in m.crack_pairs:
        assert np.array_equal(ident[list(pair.minus)], ident[list(pair.plus)])
    untouched = np.setdiff1d(np.arange(m.n_vertices),
                             [v for pair in m.crack_pairs for v in pair.minus])
    assert np.array_equal(ident[untouched], untouched)
