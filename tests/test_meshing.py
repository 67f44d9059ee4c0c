import hashlib

import numpy as np
import pytest
from conftest import python_calls

from crackdyn import meshing
from crackdyn.meshing import (
    CrackedMesh,
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
    assert m.n_pairs == 2
    assert np.count_nonzero(m.cell_sides == SIDE_PLUS) == 4
    assert np.count_nonzero(m.cell_sides == SIDE_MINUS) == 4
    assert np.allclose(m.crack_normals, [0.0, 1.0])
    # the duplicate sits on top of its original
    dup = m.n_vertices - 1
    assert np.allclose(m.vertices[dup], [1.0, 0.5])


def test_three_pair_fixture():
    # nx = 3 on [0,3], span (1/6, 5/6): both interior midline vertices are
    # duplicated, so all three midline edges become crack pairs.
    m = generate_rect_crack(3.0, 1.0, 3, 2, crack_span=(1 / 6, 5 / 6))
    assert m.n_pairs == 3
    assert m.crack_plus.shape == m.crack_minus.shape == (3, 2)
    assert np.allclose(m.vertices[m.crack_plus], m.vertices[m.crack_minus])


def test_glued_when_span_is_none():
    m = generate_rect_crack(1.0, 1.0, 4, 4)
    assert m.n_pairs == 0
    assert m.crack_plus.shape == m.crack_minus.shape == (0, 2)
    assert m.crack_normals.shape == (0, 2)
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

    for plus, minus, normal in zip(m.crack_plus, m.crack_minus,
                                   m.crack_normals):
        cp = centroid_of(plus, SIDE_PLUS)
        cm = centroid_of(minus, SIDE_MINUS)
        assert np.dot(normal, cp - cm) > 0


def test_refinement_contains_coarse_vertices():
    coarse = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    fine = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    fine_set = {tuple(np.round(p, 12)) for p in fine.vertices}
    for p in coarse.vertices:
        assert tuple(np.round(p, 12)) in fine_set


def test_trace_maps_coincide():
    m = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.2, 0.8))
    assert m.n_pairs == 4
    assert np.allclose(m.vertices[m.crack_plus], m.vertices[m.crack_minus])


def _crack(m):
    return m.crack_plus, m.crack_minus, m.crack_normals


def test_validate_rejects_moved_duplicate():
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    verts = m.vertices.copy()
    verts[-1] += [1e-3, 0.0]
    with pytest.raises(MeshError, match="coincident"):
        CrackedMesh(verts, m.cells, m.cell_sides,
                    m.dirichlet_facets, m.neumann_facets, *_crack(m))


def test_validate_rejects_flipped_normal():
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    with pytest.raises(MeshError, match="outward normal"):
        CrackedMesh(m.vertices, m.cells, m.cell_sides,
                    m.dirichlet_facets, m.neumann_facets,
                    m.crack_plus, m.crack_minus, -m.crack_normals)


def test_validate_rejects_shared_interior_vertex():
    # rewire the one minus cell that touches the duplicate 9 at a vertex
    # only (no crack facet) back onto its plus-side partner 4: every crack
    # facet still borders a cell of its side, but 4 is then shared
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    dup = m.n_vertices - 1
    orig = int(m.crack_plus[0, 1])
    cells = m.cells.copy()
    assert (dup, orig) == (9, 4) and cells[0].tolist() == [0, 1, dup]
    cells[0, 2] = orig
    with pytest.raises(MeshError) as exc:
        CrackedMesh(m.vertices, cells, m.cell_sides,
                    m.dirichlet_facets, m.neumann_facets, *_crack(m))
    assert str(exc.value) == ("vertices [4] lie strictly inside the crack "
                              "but are shared between plus and minus cells")


def test_validate_rejects_empty_dirichlet():
    m = generate_rect_crack(1.0, 1.0, 2, 2)
    with pytest.raises(MeshError, match="nonempty"):
        CrackedMesh(m.vertices, m.cells, m.cell_sides,
                    np.zeros((0, 2), dtype=np.int64), m.neumann_facets,
                    *_crack(m))


def test_validate_rejects_double_tagged_facet():
    m = generate_rect_crack(1.0, 1.0, 2, 2)
    neumann = np.vstack([m.neumann_facets, m.dirichlet_facets[:1]])
    with pytest.raises(MeshError, match="both"):
        CrackedMesh(m.vertices, m.cells, m.cell_sides,
                    m.dirichlet_facets, neumann, *_crack(m))


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
        CrackedMesh(m.vertices, m.cells, m.cell_sides,
                    m.dirichlet_facets, neumann, *_crack(m))


def test_validate_rejects_minus_facet_without_minus_cell():
    m = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    sides = np.full(m.n_cells, SIDE_PLUS, dtype=np.int8)
    with pytest.raises(MeshError,
                       match="crack pair 0: minus facet borders no minus cell"):
        CrackedMesh(m.vertices, m.cells, sides,
                    m.dirichlet_facets, m.neumann_facets, *_crack(m))


def test_facet_cells_match_a_scan_of_every_cell():
    # reference: the first minus cell, by index, whose vertices include
    # the facet's, or -1
    m = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.25, 0.75))

    def scan(facet):
        for c in range(m.n_cells):
            if m.cell_sides[c] == SIDE_MINUS and \
                    set(facet) <= set(m.cells[c].tolist()):
                return c
        return -1

    nv = m.n_vertices
    facets = [f for a in range(nv) for b in range(a + 1, nv)
              for f in ((a, b), (b, a))]
    found = m._minus_cells(np.array(facets))
    assert found.tolist() == [scan(f) for f in facets]


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
    assert np.array_equal(back.crack_plus, m.crack_plus)
    assert np.array_equal(back.crack_minus, m.crack_minus)
    assert np.array_equal(back.crack_normals, m.crack_normals)
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
    # move the crack-face duplicate (the last vertex line) off its partner
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    path = tmp_path / "bad.txt"
    save_mesh(m, path)
    lines = path.read_text().splitlines()
    assert lines[1 + m.n_vertices] == "1.0 0.5"
    lines[1 + m.n_vertices] = "1.005 0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match="coincident"):
        load_mesh(path)


def _load_error(tmp_path, lineno, text):
    """The full error text of loading the 2 x 2 cracked mesh's file with
    line ``lineno`` (1-based) replaced by ``text``."""
    path = tmp_path / "edited.txt"
    save_mesh(generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75)),
              path)
    lines = path.read_text().splitlines()
    assert lines[31:] == ["crackpairs 2", "3 4 3 9 0.0 1.0",
                          "4 5 9 5 0.0 1.0"]
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError) as exc:
        load_mesh(path)
    return str(exc.value)


@pytest.mark.parametrize("lineno,text,message", [
    (1, "crackmesh 2 2", "unsupported format version '2'"),
    (1, "crackmesh 1 two", "bad dimension 'two'"),
    (13, "cell 8", "expected section 'cells <count>'"),
    (2, "vertices ten", "bad count 'ten'"),
    (22, "dirichlet -1", "count must be non-negative"),
    (5, "2.0", "expected 2 numbers, got 1"),
    (5, "2.0 zero", "bad number in ['2.0', 'zero']"),
    (24, "2 5 8", "expected 2 integers, got 3"),
    (24, "2 five", "bad integer in ['2', 'five']"),
    # past int64: the index arrays could not hold it
    (16, "1 2 99999999999999999999 minus",
     "bad integer in ['1', '2', '99999999999999999999']"),
    (34, "4 5 9 99999999999999999999 0.0 1.0",
     "bad integer in ['9', '99999999999999999999']"),
    (16, "1 2 minus", "cell line needs 3 vertices and a side tag"),
    (16, "1 2 5 below", "unknown side tag 'below'"),
    (34, "4 5 9 5 0.0", "crack pair line needs 6 entries"),
])
def test_load_names_the_bad_line(tmp_path, lineno, text, message):
    assert _load_error(tmp_path, lineno, text) == f"line {lineno}: {message}"


@pytest.mark.parametrize("text,message", [
    ("4 5 9 10 0.0 1.0", "vertex index out of range"),
    ("4 5 -1 5 0.0 1.0", "vertex index out of range"),
    ("4 5 9 5 0.0 2.0", "normal is not unit length"),
    ("4 4 9 9 0.0 1.0", "degenerate minus facet"),
])
def test_load_names_the_bad_crack_pair(tmp_path, text, message):
    assert _load_error(tmp_path, 34, text) == \
        f"{tmp_path / 'edited.txt'}: crack pair 1: {message}"


def test_merged_vertex_map_glues_pairs():
    m = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    ident = m.merged_vertex_map()
    assert np.array_equal(ident[m.crack_minus], ident[m.crack_plus])
    untouched = np.setdiff1d(np.arange(m.n_vertices), m.crack_minus)
    assert np.array_equal(ident[untouched], untouched)


def test_merged_vertex_map_matches_a_loop_over_the_pairs():
    m = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))

    # reference: visit the pairs in order and keep each minus vertex's
    # first partner; a later, different partner is an error
    def loop(plus, minus):
        ident = list(range(m.n_vertices))
        for k in range(len(plus)):
            for vp, vm in zip(plus[k], minus[k]):
                if vm == vp:
                    continue
                if ident[vm] not in (vm, vp):
                    return (f"crack pair {k}: vertex {vm} pairs with several "
                            f"plus vertices")
                ident[vm] = vp
        return ident

    rng = np.random.default_rng(3)
    outcomes = set()
    for _ in range(300):
        # few vertices, so that partners repeat and clash
        shape = (2, rng.integers(7), 2)
        m.crack_plus, m.crack_minus = rng.integers(0, 5, shape)
        want = loop(m.crack_plus.tolist(), m.crack_minus.tolist())
        try:
            got = m.merged_vertex_map().tolist()
        except MeshError as exc:
            got = str(exc)
        assert got == want
        outcomes.add(type(want))
    assert outcomes == {list, str}


# -- every message of the separation and glued-mesh checks, in full; where
# two items are bad the message names the lowest cell, the facet met first,
# the first Dirichlet facet before the first Neumann one and the lowest pair

def _message(m, **changes):
    """The MeshError text of ``m`` with some constructor arguments replaced."""
    args = dict(vertices=m.vertices, cells=m.cells, cell_sides=m.cell_sides,
                dirichlet_facets=m.dirichlet_facets,
                neumann_facets=m.neumann_facets, crack_plus=m.crack_plus,
                crack_minus=m.crack_minus, crack_normals=m.crack_normals)
    args.update(changes)
    with pytest.raises(MeshError) as exc:
        CrackedMesh(**args)
    return str(exc.value)


def _pairs(*pairs):
    """Constructor arguments for crack pairs given as (plus, minus, normal)."""
    plus, minus, normals = zip(*pairs)
    return dict(crack_plus=plus, crack_minus=minus, crack_normals=normals)


UP = np.array([0.0, 1.0])
DOWN = np.array([0.0, -1.0])


def test_separation_rejects_vertex_interior_on_both_sides():
    # uncracked 2 x 2: midline 3-4-5 listed as a crack with plus == minus
    m = generate_rect_crack(2.0, 1.0, 2, 2)
    pairs = _pairs(((3, 4), (3, 4), UP), ((4, 5), (4, 5), UP))
    assert _message(m, **pairs) == \
        "crack interior vertex is shared between the sides"


def test_separation_names_every_shared_interior_vertex():
    # duplicates 15, 16, 17 of midline vertices 6, 7, 8; the minus cells
    # that touch the midline at one vertex only are wired back to 7 and 6
    m = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.2, 0.8))
    cells = m.cells.copy()
    assert cells[0].tolist() == [0, 1, 15] and cells[2].tolist() == [1, 2, 16]
    cells[2, 2] = 7
    cells[0, 2] = 6
    assert _message(m, cells=cells) == (
        "vertices [6, 7] lie strictly inside the crack but are shared "
        "between plus and minus cells")


def test_separation_names_minus_interior_vertices_in_plus_cells():
    # the mesh above with its sides relabelled: 6 and 7 are then minus
    # crack vertices that plus cells hold
    m = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.2, 0.8))
    cells = m.cells.copy()
    cells[2, 2] = 7
    cells[0, 2] = 6
    assert _message(m, cells=cells, cell_sides=-m.cell_sides,
                    crack_plus=m.crack_minus, crack_minus=m.crack_plus,
                    crack_normals=-m.crack_normals) == (
        "vertices [6, 7] lie strictly inside the crack but are shared "
        "between plus and minus cells")


def test_glued_check_names_lowest_degenerate_cell():
    # pair 0 alone glues 9 onto 4; cells 3 and 6 then hold both
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    cells = m.cells.copy()
    assert cells[3].tolist() == [1, 5, 9] and cells[6].tolist() == [4, 5, 8]
    cells[6] = [4, 9, 8]
    cells[3] = [4, 5, 9]
    assert _message(m, cells=cells, crack_plus=m.crack_plus[:1],
                    crack_minus=m.crack_minus[:1],
                    crack_normals=m.crack_normals[:1]) == \
        "cell 3 degenerates when the crack is glued"


def test_glued_check_names_first_overfull_facet():
    # three extra cells put {0, 1}, {0, 4} and {1, 5} in three cells each;
    # cell 0 = (0, 1, 4), dropping its vertices in turn, meets {1, 4},
    # then {0, 4}, then {0, 1}
    m = generate_rect_crack(2.0, 1.0, 2, 2)
    assert m.cells[0].tolist() == [0, 1, 4]
    cells = np.vstack([m.cells, [[0, 1, 5], [0, 1, 3], [0, 4, 2]]])
    sides = np.append(m.cell_sides, [SIDE_MINUS] * 3)
    assert _message(m, cells=cells, cell_sides=sides) == \
        "glued mesh is not conforming: facet [0, 4] is shared by 3 cells"


def test_glue_rejects_minus_vertex_with_two_plus_partners():
    # vertex 10 sits on 4 and 9; pair 0 glues 9 onto 4, pair 1 onto 10
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    verts = np.vstack([m.vertices, [[1.0, 0.5]]])
    pairs = _pairs(((3, 4), (3, 9), UP), ((10, 5), (9, 5), UP))
    assert _message(m, vertices=verts, **pairs) == \
        "crack pair 1: vertex 9 pairs with several plus vertices"


def test_tagged_facet_must_be_a_boundary_facet():
    m = generate_rect_crack(2.0, 1.0, 2, 2)
    # {0, 4} is interior and {1, 3} no facet at all; raw order is printed
    dirichlet = np.vstack([m.dirichlet_facets, [[4, 0]]])
    neumann = np.vstack([[[1, 3]], m.neumann_facets])
    assert _message(m, dirichlet_facets=dirichlet, neumann_facets=neumann) \
        == "dirichlet facet [4, 0] is not a boundary facet"
    assert _message(m, neumann_facets=np.vstack(
        [m.neumann_facets, [[4, 1], [4, 0]]])) == \
        "neumann facet [4, 1] is not a boundary facet"
    # a crack face glues onto an interior facet
    c = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    assert _message(c, dirichlet_facets=np.vstack(
        [c.dirichlet_facets, [[3, 9]]])) == \
        "dirichlet facet [3, 9] is not a boundary facet"


def test_crack_pair_must_be_interior_once_glued():
    # uncracked 3 x 2: pair 0 is the interior facet (4, 5); pairs 1 and 2
    # are the bottom boundary facets (2, 3) and (0, 1)
    m = generate_rect_crack(3.0, 1.0, 3, 2)
    pairs = _pairs(((4, 5), (4, 5), UP), ((2, 3), (2, 3), DOWN),
                   ((0, 1), (0, 1), DOWN))
    assert _message(m, **pairs) == \
        "crack pair 1 is not an interior facet of the glued mesh"


def test_facet_tagged_twice_in_either_orientation():
    m = generate_rect_crack(2.0, 1.0, 2, 2)
    a, b = m.dirichlet_facets[1].tolist()
    neumann = np.vstack([m.neumann_facets, [[b, a]]])
    assert _message(m, neumann_facets=neumann) == \
        "a facet is tagged both Dirichlet and Neumann"


def test_crack_arrays_must_all_be_npairs_by_2():
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    message = "crack plus, minus and normal arrays must all have shape " \
        "(npairs, 2)"
    for change in (dict(crack_plus=np.hstack([m.crack_plus, [[3], [4]]])),
                   dict(crack_minus=m.crack_minus[:1]),
                   dict(crack_normals=[0.0, 1.0]),
                   dict(crack_normals=[[0.0, 1.0, 0.0]] * 2),
                   # a flat list of four indices is not read as two pairs
                   dict(crack_plus=m.crack_plus.ravel()),
                   dict(crack_plus=(), crack_minus=(), crack_normals=UP)):
        assert _message(m, **change) == message
    # empty input of any shape is no pairs
    empty = np.zeros((0, 3))
    glued = generate_rect_crack(2.0, 1.0, 2, 2)
    mesh = CrackedMesh(glued.vertices, glued.cells, glued.cell_sides,
                       glued.dirichlet_facets, glued.neumann_facets,
                       [], empty, ())
    assert mesh.crack_plus.shape == mesh.crack_normals.shape == (0, 2)


def test_each_pair_check_names_its_lowest_bad_pair():
    # pair 0's normal is not unit length and pair 1 holds an index out of
    # range: the range check runs first over every pair, so pair 1 is named
    m = generate_rect_crack(2.0, 1.0, 2, 2, crack_span=(0.25, 0.75))
    pairs = _pairs(((3, 4), (3, 9), 2 * UP), ((4, 5), (9, 10), UP))
    assert _message(m, **pairs) == "crack pair 1: vertex index out of range"
    pairs = _pairs(((3, 4), (3, 9), 2 * UP), ((4, 5), (9, 5), DOWN))
    assert _message(m, **pairs) == "crack pair 0: normal is not unit length"
    pairs = _pairs(((3, 4), (3, 9), UP), ((4, 5), (9, 5), DOWN))
    assert _message(m, **pairs) == ("crack pair 1: normal does not match "
                                    "the outward normal of the minus facet")


# sha256 of the save_mesh text of generate_rect_crack(2.0, 1.0, nx, ny, span),
# recorded from the per-cell Python generator this one replaced
GOLDEN_MESHES = [
    ((6, 4, (0.25, 0.75)),
     "804e4bb7ee75f3332cc68f63cf48e7e4b65adebe57a3d2df4e642056e1918551"),
    ((8, 4, None),
     "9fd9c100e958750bd91f0c09e20560f6a55f3603feafb3fc98e5ebeae058c484"),
    ((128, 64, (0.25, 0.75)),
     "770d143ad4afce72b4efa5db2798ca4c3c31c863353e0e623e1b876de144b15d"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_MESHES,
                         ids=[str(a) for a, _ in GOLDEN_MESHES])
def test_generator_output_is_unchanged(tmp_path, args, digest):
    path = tmp_path / "mesh.txt"
    save_mesh(generate_rect_crack(2.0, 1.0, *args), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _calls_to_generate(nx):
    return python_calls(generate_rect_crack, 2.0, 1.0, nx, nx // 2,
                        (0.25, 0.75))


def test_generate_and_validate_make_the_same_calls_at_every_size():
    # cells, facets and crack pairs are all handled as whole arrays, so no
    # Python call is made per item: nx = 256 makes exactly the calls of 16
    assert _calls_to_generate(16) == _calls_to_generate(64) == \
        _calls_to_generate(256)
