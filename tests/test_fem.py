import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import python_calls, turned

from crackdyn import exprlang as ex
from crackdyn import diagnostics, fem, timestepper
from crackdyn.fem import DofMap, Material
from crackdyn.interface import ContactParams
from crackdyn.meshing import (CrackedMesh, SIDE_PLUS, generate_rect_crack,
                              load_mesh, save_mesh)
from oracles import dense_mass_stiffness, patch_forces


def single_triangle():
    return CrackedMesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                       [SIDE_PLUS], [(0, 1)], np.zeros((0, 2), dtype=np.int64),
                       (), (), ())


def retag_top_neumann(mesh, height):
    """Move all boundary facets except the top edge into the Dirichlet set."""
    facets = np.vstack([mesh.dirichlet_facets, mesh.neumann_facets])
    ys = mesh.vertices[:, 1]
    on_top = np.all(np.isclose(ys[facets], height), axis=1)
    return CrackedMesh(mesh.vertices, mesh.cells, mesh.cell_sides,
                       facets[~on_top], facets[on_top], mesh.crack_plus,
                       mesh.crack_minus, mesh.crack_normals)


def test_material_validation():
    Material(lam=1.0, mu=1.0, rho=1.0)
    Material(lam=-0.5, mu=1.0, rho=1.0)  # negative lambda can still be admissible
    with pytest.raises(ValueError):
        Material(lam=1.0, mu=0.0, rho=1.0)
    with pytest.raises(ValueError):
        Material(lam=-1.0, mu=1.0, rho=1.0)  # 3*lam + 2*mu <= 0
    with pytest.raises(ValueError):
        Material(lam=1.0, mu=1.0, rho=0.0)


def test_unit_triangle_mass_block():
    mesh = single_triangle()
    m = fem.assemble_mass(mesh, Material(lam=1.0, mu=1.0, rho=1.0)).toarray()
    block = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    assert np.allclose(m[0::2, 0::2], block, rtol=0, atol=1e-15)
    assert np.allclose(m[1::2, 1::2], block, rtol=0, atol=1e-15)
    assert np.allclose(m[0::2, 1::2], 0.0)


def test_mass_row_sums_and_rho_scaling():
    mesh = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    m1 = fem.assemble_mass(mesh, Material(lam=1.0, mu=1.0, rho=1.0))
    m3 = fem.assemble_mass(mesh, Material(lam=1.0, mu=1.0, rho=3.0))
    # sum over everything = rho * |Omega| * dim
    assert np.isclose(m1.sum(), 2.0 * 2)
    assert np.allclose((m3 - 3.0 * m1).toarray(), 0.0, atol=1e-15)


def test_stiffness_kills_rigid_modes():
    mesh = generate_rect_crack(2.0, 1.0, 8, 4)
    mat = Material(lam=1.3, mu=0.7, rho=1.0)
    kernel = diagnostics.check_kernel(mesh, fem.assemble_stiffness(mesh, mat))
    assert kernel.ok, kernel.detail


def test_uniaxial_patch_test():
    # nodal u = (alpha*x, 0) has constant plane-strain stress: K @ u is 0
    # at interior nodes and the edge traction integrals on the boundary.
    # Measured error 1.5e-15 of the largest force; with lambda and mu
    # swapped in the stiffness, 0.13
    mesh = generate_rect_crack(2.0, 1.0, 4, 2)
    mat = Material(lam=1.3, mu=0.9, rho=1.0)
    alpha = 0.01
    u = np.column_stack([alpha * mesh.vertices[:, 0],
                         np.zeros(mesh.n_vertices)]).ravel()
    expected = patch_forces(mesh, mat, alpha)
    interior = ((mesh.vertices > 0.0) & (mesh.vertices < (2.0, 1.0))).all(1)
    assert interior.any() and not expected.reshape(-1, 2)[interior].any()
    force = fem.assemble_stiffness(mesh, mat) @ u
    scale = np.abs(expected).max()
    assert np.abs(force - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("field, modulus", [
    ("x", lambda mat: mat.lam + 2 * mat.mu),    # uniaxial strain
    ("y", lambda mat: mat.mu),                  # simple shear
], ids=["uniaxial", "shear"])
def test_stiffness_energy_of_linear_fields(field, modulus):
    # u = (a*field, 0) has constant strain, so u.K.u/2 is the energy
    # density times the area; lam and mu differ, so a swap shows
    mesh = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.25, 0.75))
    mat = Material(lam=1.3, mu=0.7, rho=1.0)
    k = fem.assemble_stiffness(mesh, mat)
    a = 0.3
    u = fem.interpolate(mesh, (ex.parse(f"{a}*{field}"), ex.parse("0")))
    assert 0.5 * u @ (k @ u) == pytest.approx(
        modulus(mat) * a ** 2 * 2.0 / 2, rel=1e-13)


def test_bilinear_form_symmetry():
    mesh = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.25, 0.75))
    k = fem.assemble_stiffness(mesh, Material(lam=2.0, mu=0.5, rho=1.0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(k.shape[0])
        w = rng.standard_normal(k.shape[0])
        a_vw = v @ (k @ w)
        a_wv = w @ (k @ v)
        assert abs(a_vw - a_wv) <= 1e-13 * max(abs(a_vw), 1.0)


def test_stiffness_coercive_on_free_dofs():
    mesh = generate_rect_crack(2.0, 1.0, 4, 2)
    dofmap = DofMap(mesh)
    k = fem.assemble_stiffness(mesh, Material(lam=1.0, mu=1.0, rho=1.0))
    free = ~dofmap.constrained
    kff = k.toarray()[np.ix_(free, free)]
    assert np.linalg.eigvalsh(kff).min() > 0.0


def test_load_constant_body_force():
    mesh = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    mat = Material(lam=1.0, mu=1.0, rho=2.5)
    c = (0.7, -1.2)
    f = (ex.parse("0.7"), ex.parse("-1.2"))
    load = fem.assemble_load(fem.LoadForm(mesh, mat, f=f))
    const = np.tile(c, mesh.n_vertices)
    mass = fem.assemble_mass(mesh, mat)
    # for a constant integrand both quadratures are exact: load = M c
    assert np.allclose(load, mass @ const, rtol=1e-13, atol=1e-15)
    assert np.isclose(load.reshape(-1, 2)[:, 1].sum(), mat.rho * 2.0 * c[1])


def test_load_linear_body_force():
    # the edge midpoints are exact for the quadratic integrand, and the
    # mass is consistent, so a linear f gives load = M f exactly
    mesh = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    mat = Material(lam=1.0, mu=1.0, rho=2.5)
    f = (ex.parse("1 + 2*x - y"), ex.parse("3*y"))
    load = fem.assemble_load(fem.LoadForm(mesh, mat, f=f))
    nodal = fem.interpolate(mesh, f)
    mass = fem.assemble_mass(mesh, mat)
    assert np.allclose(load, mass @ nodal, rtol=1e-13, atol=1e-15)


def test_load_top_edge_traction():
    mesh = retag_top_neumann(generate_rect_crack(2.0, 1.0, 4, 2), 1.0)
    mat = Material(lam=1.0, mu=1.0, rho=1.0)
    p = 0.3
    load = fem.assemble_load(
        fem.LoadForm(mesh, mat, trac=(ex.parse("0"), ex.parse("-0.3"))))
    totals = load.reshape(-1, 2).sum(axis=0)
    assert np.isclose(totals[0], 0.0, atol=1e-15)
    assert np.isclose(totals[1], -p * 2.0)  # -p times the top edge length
    # only top-edge vertices are loaded
    loaded = np.nonzero(np.abs(load.reshape(-1, 2)[:, 1]) > 0)[0]
    assert np.allclose(mesh.vertices[loaded, 1], 1.0)


def test_load_zero_when_no_data():
    mesh = generate_rect_crack(1.0, 1.0, 2, 2)
    load = fem.assemble_load(
        fem.LoadForm(mesh, Material(lam=1.0, mu=1.0, rho=1.0)))
    assert not load.any()


def test_load_time_dependent():
    mesh = generate_rect_crack(1.0, 1.0, 2, 2)
    mat = Material(lam=1.0, mu=1.0, rho=1.0)
    f = (ex.parse("t*x"), ex.parse("0"))
    form = fem.LoadForm(mesh, mat, f=f)
    l1 = fem.assemble_load(form, t=1.0)
    l2 = fem.assemble_load(form, t=2.0)
    assert np.allclose(l2, 2.0 * l1)


def test_interpolate_matches_expressions():
    mesh = generate_rect_crack(2.0, 1.0, 4, 2)
    w = fem.interpolate(mesh, (ex.parse("x + 2*y"), ex.parse("x*y"))).reshape(-1, 2)
    assert np.allclose(w[:, 0], mesh.vertices[:, 0] + 2 * mesh.vertices[:, 1])
    assert np.allclose(w[:, 1], mesh.vertices[:, 0] * mesh.vertices[:, 1])


def test_dofmap_partition():
    mesh = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    dofmap = DofMap(mesh)
    assert dofmap.ndof == 2 * mesh.n_vertices
    dirichlet_verts = set(mesh.dirichlet_facets.ravel().tolist())
    for v in range(mesh.n_vertices):
        expected = v in dirichlet_verts
        assert bool(dofmap.constrained[2 * v]) == expected
        assert bool(dofmap.constrained[2 * v + 1]) == expected
    w = np.ones(dofmap.ndof)
    z = dofmap.zero_constrained(w)
    assert not z[dofmap.constrained].any()
    assert z[~dofmap.constrained].all()


def test_check_state():
    # a system's initial State is zero on the Dirichlet dofs, and a field
    # of the wrong length is rejected, not indexed
    ops = timestepper.build_operators(generate_rect_crack(1.0, 1.0, 2, 2),
                                      Material(lam=1.0, mu=1.0, rho=1.0),
                                      ContactParams(gamma=0.0, epsilon=1e-2))
    ones = np.ones(ops.dofmap.ndof)
    state = ops.initial_state(ones, ones)
    for w in (state.u, state.v, state.a):
        assert w.shape == ones.shape
        assert not w[ops.dofmap.constrained].any()
    with pytest.raises(ValueError, match="shape"):
        ops.dofmap.zero_constrained(ones[:-1])
    with pytest.raises(ValueError, match="shape"):
        ops.initial_state(ones, ones[:-1])


def test_apply_dirichlet_pins_rows():
    # Operators.pin eliminates constrained rows and columns and keeps the
    # free ones as they are
    mesh = generate_rect_crack(1.0, 1.0, 2, 2)
    material = Material(lam=1.0, mu=1.0, rho=1.0)
    ops = timestepper.build_operators(mesh, material,
                                      ContactParams(gamma=0.0, epsilon=1e-2))
    k = fem.assemble_stiffness(mesh, material)
    kp = ops.pin(k).toarray()
    free = np.nonzero(~ops.dofmap.constrained)[0]
    assert 0 < free.size < ops.dofmap.ndof
    assert kp.shape == (free.size, free.size)
    assert np.array_equal(kp, k.toarray()[np.ix_(free, free)])


def test_solve_spd_identity_and_dense_oracle():
    assert np.array_equal(fem.solve_spd(sp.eye(4, format="csr"),
                                        np.zeros(4)), np.zeros(4))
    rng = np.random.default_rng(11)
    r = rng.standard_normal((10, 10))
    a = r.T @ r + 10 * np.eye(10)
    b = rng.standard_normal(10)
    x = fem.solve_spd(sp.csr_matrix(a), b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-10)


def test_solve_spd_reports_failure():
    rng = np.random.default_rng(5)
    r = rng.standard_normal((30, 30))
    a = sp.csr_matrix(r.T @ r + 1e-6 * np.eye(30))
    with pytest.raises(fem.SolveError) as err:
        fem.solve_spd(a, rng.standard_normal(30), maxit=1)
    assert np.isfinite(err.value.residual)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_solve_spd_rejects_nonfinite_rhs_before_any_product(bad):
    # 1e200 is finite, but the norm overflows: CG could not test its
    # residual against an infinite target
    class Counting:
        products = 0

        def diagonal(self):
            return np.ones(4)

        def __matmul__(self, x):
            self.products += 1
            return x

    a = Counting()
    rhs = np.array([1.0, bad, 0.0, 2.0])
    with pytest.raises(fem.SolveError, match="right-hand side norm is not finite"):
        with np.errstate(over="ignore"):
            fem.solve_spd(a, rhs)
    assert a.products == 0


def _assembly_mesh(case, tmp_path):
    plate = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.25, 0.75))
    if case == "plate":
        return plate
    if case == "clamped_tip":
        # the left crack tip is the shared vertex at x = 0, on the
        # clamped edge
        mesh = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.05, 0.75))
        assert DofMap(mesh).constrained[2 * mesh.crack_plus[0, 0]]
        return mesh
    save_mesh(turned(plate, 0.7), tmp_path / "turned.mesh")
    return load_mesh(tmp_path / "turned.mesh")


def _graph_pairs(mesh):
    """The vertex pairs the assembled matrices store: those of each cell
    and of each crack pair's four vertices, with either vertex swapped
    for its partner across the crack, the highest-numbered minus copy
    of a plus vertex and that plus vertex; a loop over the items."""
    partner = {}
    for plus, minus in zip(mesh.crack_plus.tolist(),
                           mesh.crack_minus.tolist()):
        for vp, vm in zip(plus, minus):
            if vp != vm:
                partner[vp] = max(partner.get(vp, vm), vm)
    partner.update({vm: vp for vp, vm in list(partner.items())})
    pairs = set()
    for group in [*mesh.cells.tolist(),
                  *(p + m for p, m in zip(mesh.crack_plus.tolist(),
                                          mesh.crack_minus.tolist()))]:
        near = group + [partner.get(v, v) for v in group]
        pairs |= {(i, j) for i in near for j in near}
    return pairs


def _stored(a):
    """Where a CSR matrix stores an entry, as a dense boolean array."""
    return sp.csr_matrix((np.ones(a.nnz, dtype=bool), a.indices, a.indptr),
                         shape=a.shape).toarray()


@pytest.mark.parametrize("case", ["plate", "clamped_tip", "turned_file"])
def test_assembly_matches_a_dense_cell_loop(case, tmp_path):
    # every entry of M and K against the textbook element matrices
    # summed cell by cell (lambda != mu, so a swap shows), and the
    # layout the linear Jacobian relies on: canonical CSR with int32
    # indices, K storing every component pair of each vertex pair of
    # the graph (_graph_pairs), M the equal-component ones alone
    mesh = _assembly_mesh(case, tmp_path)
    mat = Material(lam=1.7, mu=0.6, rho=2.5)
    mass, stiffness = dense_mass_stiffness(mesh, mat)
    m, k = fem.assemble_mass(mesh, mat), fem.assemble_stiffness(mesh, mat)
    for a, ref in ((m, mass), (k, stiffness)):
        assert np.abs(a.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
        assert a.indices.dtype == a.indptr.dtype == np.int32
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        assert (np.diff(a.indices)[np.diff(rows) == 0] > 0).all()
    shared = np.zeros((mesh.n_vertices, mesh.n_vertices), dtype=bool)
    shared[tuple(np.array(sorted(_graph_pairs(mesh))).T)] = True
    assert np.array_equal(_stored(k), np.kron(shared, np.ones((2, 2), bool)))
    assert np.array_equal(_stored(m), np.kron(shared, np.eye(2, dtype=bool)))


@pytest.mark.parametrize("case", ["plate", "clamped_tip", "turned_file"])
def test_vertex_graph_matches_the_cell_pairs(case, tmp_path):
    # the CSR arrays against the set of pairs the graph must hold, each
    # cell's vertex pairs among them, and each slot [a, b, c] at a
    # position of row cells[c, a] that holds cells[c, b]; the turned
    # mesh is read back from its file
    mesh = _assembly_mesh(case, tmp_path)
    indptr, indices, slots = mesh.vertex_graph
    pairs = _graph_pairs(mesh)
    assert {(int(i), int(j)) for cell in mesh.cells
            for i in cell for j in cell} < pairs
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(indptr))
    assert list(zip(rows.tolist(), indices.tolist())) == sorted(pairs)
    assert slots.shape == (3, 3, mesh.n_cells)
    for c, cell in enumerate(mesh.cells):
        for a in range(3):
            for b in range(3):
                slot = slots[a, b, c]
                assert indices[slot] == cell[b]
                assert indptr[cell[a]] <= slot < indptr[cell[a] + 1]


def test_combine_matches_the_sparse_sum():
    # one combination of the data equals scipy's ca*M + cu*K entry for
    # entry, on K's pattern, at cu = 0 too
    mesh = generate_rect_crack(2.0, 1.0, 6, 4, crack_span=(0.25, 0.75))
    mat = Material(lam=1.7, mu=0.6, rho=2.5)
    m, k = fem.assemble_mass(mesh, mat), fem.assemble_stiffness(mesh, mat)
    for ca, cu in ((0.5, 3e-3), (1.0, 0.0)):
        combined = fem.combine(m, k, ca, cu)
        assert np.array_equal(combined.toarray(), (ca * m + cu * k).toarray())
    assert np.array_equal(_stored(fem.combine(m, k, 1.0, 0.0)), _stored(k))


def test_build_operators_peak_memory():
    # the transient memory of assembly stays a small multiple of what it
    # builds: 3.0 times the bytes of M and K here, where summing COO
    # triplets takes 7.8
    mesh = generate_rect_crack(2.0, 1.0, 32, 16, crack_span=(0.25, 0.75))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ops = timestepper.build_operators(
            mesh, Material(lam=1.0, mu=1.0, rho=1.0),
            ContactParams(gamma=0.0, epsilon=1e-2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = sum(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
               for a in (ops.mass, ops.stiffness))
    assert peak <= 4 * held


def _calls_to_build_operators(nx):
    mesh = generate_rect_crack(2.0, 1.0, nx, nx // 2, (0.25, 0.75))
    return python_calls(
        timestepper.build_operators, mesh,
        Material(lam=1.0, mu=1.0, rho=1.0),
        ContactParams(gamma=0.0, epsilon=1e-2),
        (ex.parse("x*y"), ex.parse("-1")), (ex.parse("t"), ex.parse("x")))


def test_assembly_makes_the_same_calls_at_every_size():
    # M, K and the load quadrature are formed on whole arrays of cells
    # and facets, so no Python call is made per cell: nx = 256 makes
    # exactly the calls of 16.  The first call also fills the isinstance
    # caches of abstract base classes, so it is not counted
    _calls_to_build_operators(16)
    assert _calls_to_build_operators(16) == _calls_to_build_operators(64) \
        == _calls_to_build_operators(256)


def test_assembly_is_deterministic():
    mesh = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    mat = Material(lam=1.0, mu=1.0, rho=1.0)
    k1 = fem.assemble_stiffness(mesh, mat)
    k2 = fem.assemble_stiffness(mesh, mat)
    assert np.array_equal(k1.data, k2.data)
    assert np.array_equal(k1.indices, k2.indices)
    m1 = fem.assemble_mass(mesh, mat)
    m2 = fem.assemble_mass(mesh, mat)
    assert np.array_equal(m1.data, m2.data)


def test_inverted_cell_rejected():
    mesh = CrackedMesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 2, 1)],
                       [SIDE_PLUS], [(0, 1)], np.zeros((0, 2), dtype=np.int64),
                       (), (), ())
    with pytest.raises(fem.AssemblyError, match="area"):
        fem.assemble_mass(mesh, Material(lam=1.0, mu=1.0, rho=1.0))


def test_norms():
    mesh = generate_rect_crack(1.0, 1.0, 2, 2)
    mat = Material(lam=1.0, mu=1.0, rho=4.0)
    mass = fem.assemble_mass(mesh, mat)
    rng = np.random.default_rng(2)
    w = rng.standard_normal(mass.shape[0])
    assert np.isclose(fem.h_norm_sq(mass, mat.rho, w), (w @ (mass @ w)) / 4.0)
    assert fem.h_norm_sq(mass, mat.rho, w) > 0


def test_facet_quadrature_has_degree_three():
    # on a slanted facet the rule matches five-point Gauss-Legendre (exact
    # to degree 9) on a cubic to rounding, and misses it on a quartic
    verts = np.array([[0.3, -0.2], [1.7, 0.9]])
    pts, w = fem.facet_quadrature(verts, np.array([[0, 1]]))
    assert pts.shape == (1, 2, 2) and w.shape == (1, 2)
    assert np.allclose(fem.FACET_SHAPES @ verts, pts[0])
    s, ws = np.polynomial.legendre.leggauss(5)
    mid, half = 0.5 * (verts[0] + verts[1]), 0.5 * (verts[1] - verts[0])
    ref_pts = mid + np.outer(s, half)

    def rule_and_reference(p):
        return (float(w[0] @ p(*pts[0].T)),
                float(np.linalg.norm(half) * ws @ p(*ref_pts.T)))

    got, ref = rule_and_reference(
        lambda x, y: x**3 - 2.0 * x * x * y + 0.5 * y**3 + x * y - 1.0)
    assert got == pytest.approx(ref, rel=1e-14)
    got, ref = rule_and_reference(lambda x, y: x**4)
    assert abs(got - ref) > 1e-3 * abs(ref)
