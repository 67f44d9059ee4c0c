import os
import subprocess
import sys

import numpy as np
import pytest

import crackdyn
from crackdyn import exprlang as ex
from crackdyn import interface
from crackdyn.interface import (
    ContactParams,
    CrackQuadrature,
    FrictionBoundError,
    alpha_eps,
    beta_eps,
    contact_residual,
    contact_tangent,
    crack_state,
    dalpha_eps,
    dbeta_eps,
    friction_bound_values,
    friction_residual,
    friction_tangent,
    neg_part,
    phi_eps,
    psi_eps,
    recover_tractions,
)
from crackdyn.meshing import generate_rect_crack
from crackdyn.fem import DofMap
from conftest import crack_block, reference_jumps, turned


def cracked_mesh(nx=16, ny=8):
    # crack length is exactly 1.0 for this configuration
    return generate_rect_crack(2.0, 1.0, nx, ny, crack_span=(0.25, 0.75))


def plus_side_field(mesh, quad, value):
    """Crack vector (on quad.crack_dofs, as the crack layer takes and
    gives them) of the nodal field equal to ``value`` on the plus-side
    crack vertices and zero elsewhere.

    Its jump is ``value`` on the facets strictly inside the crack.  The
    two crack tips are glued (one vertex serves both faces), so on the
    two tip facets the jump ramps linearly from 0 to ``value``.
    """
    w = np.zeros((mesh.n_vertices, 2))
    w[np.unique(mesh.crack_plus)] = value
    return w.ravel()[quad.crack_dofs]


def ramp_measures(quad):
    """(facet length, interior facet count) plus the exact integrals of
    ramp^k over one tip facet for k = 1, 2, 3."""
    ell = float(quad.weights.sum(axis=1)[0])
    m = quad.n_pairs - 2
    return ell, m, ell / 2, ell / 3, ell / 4


def forces(crack, params, quad):
    """Crack vector of the crack's nodal forces at a crack_state, formed
    as Operators.interval forms them: the tractions recovered once, each
    pair's contact and friction forces summed, one scatter.  A
    frictionless crack (g = 0) leaves exactly the contact forces, an
    opening one (s >= 0) exactly the friction forces."""
    sigma_n, sigma_t = recover_tractions(crack, params)
    return quad.scatter(contact_residual(sigma_n, quad)
                        + friction_residual(sigma_t, quad))


def tangent(crack, params, quad, coeff_u, coeff_v):
    """Dense crack-dof block of the derivative of forces: the pairs'
    summed tangents, as the Newton matrix sums them, in one block."""
    return crack_block(contact_tangent(crack, params, quad, coeff_u, coeff_v)
                       + friction_tangent(crack, params, quad, coeff_v), quad)


def frictionless(crack):
    """The crack_state at g = 0: its forces are the contact forces."""
    s, jt, g = crack
    return s, jt, np.zeros_like(g)


def opening(crack):
    """The crack_state with the contact argument made nonnegative: its
    forces are the friction forces."""
    s, jt, g = crack
    return np.abs(s), jt, g


# ---------------------------------------------------------------------------
# scalar regularization
# ---------------------------------------------------------------------------

def test_negative_part():
    assert neg_part(2.0) == 0.0
    assert neg_part(-2.0) == 2.0
    assert np.array_equal(neg_part(np.array([-1.0, 0.0, 3.0])), [1.0, 0.0, 0.0])


def test_contact_law_frozen_values():
    assert beta_eps(-0.1, 0.1) == pytest.approx(-0.1)
    assert psi_eps(-0.3, 0.05) == pytest.approx(0.18)
    assert dbeta_eps(-0.3, 0.05) == pytest.approx(12.0)
    for f in (psi_eps, beta_eps, dbeta_eps):
        assert np.all(f(np.array([0.0, 0.5, 2.0]), 0.05) == 0.0)
    assert np.all(beta_eps(np.linspace(-2, 2, 41), 0.1) <= 0.0)
    assert np.all(dbeta_eps(np.linspace(-2, 2, 41), 0.1) >= 0.0)


def test_psi_derivative_is_beta():
    x, eps = -0.3, 0.05
    errs = []
    for h in (1e-2, 5e-3):
        fd = (psi_eps(x + h, eps) - psi_eps(x - h, eps)) / (2 * h)
        errs.append(abs(fd - beta_eps(x, eps)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    # beta is quadratic on the active branch, so its central difference
    # is exact up to roundoff
    h = 1e-4
    fd = (beta_eps(x + h, eps) - beta_eps(x - h, eps)) / (2 * h)
    assert abs(fd - dbeta_eps(x, eps)) <= 1e-8


def test_beta_monotone_and_sign_identity():
    rng = np.random.default_rng(0)
    for eps in (1.0, 1e-2, 1e-4):
        a = rng.uniform(-3, 3, size=2000)
        b = rng.uniform(-3, 3, size=2000)
        assert np.all((beta_eps(a, eps) - beta_eps(b, eps)) * (a - b) >= -1e-12)
        assert np.all(beta_eps(a, eps) * a >= 0.0)


def test_smoothed_norm_at_origin():
    eps = 0.25
    zero = np.zeros(2)
    assert phi_eps(zero, eps) == eps
    assert np.array_equal(alpha_eps(zero, eps), zero)
    assert np.allclose(dalpha_eps(zero, eps), np.eye(2) / eps)


def test_alpha_strictly_inside_unit_ball():
    rng = np.random.default_rng(1)
    x = rng.uniform(-50, 50, size=(500, 2))
    for eps in (1.0, 1e-2, 1e-4):
        a = alpha_eps(x, eps)
        mags = np.linalg.norm(a, axis=-1)
        assert np.all(mags < 1.0)
        assert np.all(np.einsum("nd,nd->n", a, x) >= 0.0)
        assert np.all(phi_eps(x, eps) >= np.linalg.norm(x, axis=-1))


def test_alpha_jacobian_matches_finite_differences():
    x = np.array([0.3, -0.2])
    eps = 0.1
    jac = dalpha_eps(x, eps)
    assert np.allclose(jac, jac.T)
    assert np.linalg.eigvalsh(jac).min() >= 0.0
    errs = []
    for h in (1e-3, 5e-4):
        fd = np.empty((2, 2))
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = h
            fd[:, j] = (alpha_eps(x + dx, eps) - alpha_eps(x - dx, eps)) / (2 * h)
        errs.append(np.abs(fd - jac).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_convexity_subgradient_inequalities():
    rng = np.random.default_rng(4)
    eps = 0.05
    a = rng.uniform(-2, 2, size=200)
    b = rng.uniform(-2, 2, size=200)
    # psi(b) >= psi(a) + beta(a) (b - a)
    assert np.all(psi_eps(b, eps) - psi_eps(a, eps)
                  - beta_eps(a, eps) * (b - a) >= -1e-12)
    va = rng.uniform(-2, 2, size=(200, 2))
    vb = rng.uniform(-2, 2, size=(200, 2))
    gain = (phi_eps(vb, eps) - phi_eps(va, eps)
            - np.einsum("nd,nd->n", alpha_eps(va, eps), vb - va))
    assert np.all(gain >= -1e-12)


# ---------------------------------------------------------------------------
# quadrature and jumps
# ---------------------------------------------------------------------------

def test_quadrature_geometry():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    assert quad.n_pairs == 8
    assert np.allclose(quad.weights.sum(axis=1), 2.0 / 16)
    assert quad.weights.sum() == pytest.approx(1.0)
    assert np.all(quad.weights > 0)
    # quadrature points sit on the crack line
    assert np.allclose(quad.points[:, :, 1], 0.5)
    assert np.all(quad.points[:, :, 0] > 0.5)
    assert np.all(quad.points[:, :, 0] < 1.5)


def test_empty_crack_quadrature():
    mesh = generate_rect_crack(1.0, 1.0, 4, 4)
    quad = CrackQuadrature(mesh, DofMap(mesh))
    assert quad.n_pairs == 0
    assert quad.weights.shape == (0, 2)
    params = ContactParams(gamma=0.0, epsilon=0.1, g=ex.parse("1"))
    z = np.zeros(quad.crack_dofs.size)
    crack = crack_state(z, z, 0.0, params, quad)
    assert quad.crack_dofs.size == 0
    # empty, but floating point: a caller adds floats to them in place
    for residual in (forces(frictionless(crack), params, quad),
                     forces(opening(crack), params, quad)):
        assert residual.shape == (0,) and residual.dtype == float
    for block in (tangent(frictionless(crack), params, quad, 1.0, 1.0),
                  tangent(opening(crack), params, quad, 0.0, 1.0)):
        assert block.shape == (0, 0) and block.dtype == float


def jumps_of(w, quad):
    """(normal jump, tangential part) of a crack vector w, from
    crack_state at gamma = 0."""
    return crack_state(np.zeros_like(w), w, 0.0,
                       ContactParams(gamma=0.0, epsilon=0.05), quad)[:2]


def test_crack_state_rejects_nodal_vectors():
    # a nodal vector indexed by crack-vector slots would read the wrong
    # entries without an error
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=1.0, epsilon=0.05)
    w = np.zeros(mesh.n_vertices * 2)
    for u, v in ((w, w), (w[quad.crack_dofs], w)):
        with pytest.raises(ValueError, match="crack vectors"):
            crack_state(u, v, 0.0, params, quad)


def test_jump_of_plus_side_fields():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    w = plus_side_field(mesh, quad, (0.0, 1.0))
    jn, jt = jumps_of(w, quad)
    # facets 1..-2 lie strictly inside the crack: uniform unit jump
    assert np.allclose(jn[1:-1], 1.0)
    assert np.allclose(jt[1:-1], 0.0)
    # tip facets taper towards the glued tip and stay within [0, 1]
    assert np.all(jn >= 0.0) and np.all(jn <= 1.0)
    assert jn[0, 0] < jn[0, 1] < 1.0     # left tip is at the first point
    assert jn[-1, 1] < jn[-1, 0] < 1.0

    w2 = plus_side_field(mesh, quad, (1.0, 1.0))
    jn2, jt2 = jumps_of(w2, quad)
    assert np.allclose(jn2[1:-1], 1.0)
    assert np.allclose(jt2[1:-1, :, 0], 1.0)
    assert np.allclose(jt2[..., 1], 0.0)


def test_jump_zero_for_continuous_field():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    # continuous nodal field (same expression on both faces)
    w = np.column_stack([mesh.vertices[:, 0] ** 2,
                         np.sin(mesh.vertices[:, 1])]).ravel()
    for j in jumps_of(w[quad.crack_dofs], quad):
        assert np.abs(j).max() <= 1e-14


@pytest.mark.parametrize("span", [(0.25, 0.75), (0.05, 0.75)],
                         ids=["interior", "tip-on-dirichlet"])
@pytest.mark.parametrize("theta, swap", [(0.0, False), (0.5, False),
                                         (2.0, True)])
def test_jump_operators_match_the_pointwise_reference(span, theta, swap):
    # the quadrature's jump operators and their transposes (the
    # residuals) against jumps formed point by point from the face
    # traces, on cracks turned off the axes; the left tip of the second
    # crack is a constrained vertex
    mesh = turned(generate_rect_crack(2.0, 1.0, 8, 4, crack_span=span),
                  theta, swap)
    dofmap = DofMap(mesh)
    quad = CrackQuadrature(mesh, dofmap)
    rng = np.random.default_rng(17)
    u, v, w = (dofmap.zero_constrained(rng.standard_normal(dofmap.ndof))
               for _ in range(3))
    cd = quad.crack_dofs
    params = ContactParams(gamma=1.7, epsilon=0.5, g=ex.parse("0.3"))
    crack = crack_state(u[cd], v[cd], 0.0, params, quad)
    s, jt, g = crack
    (un, _), (vn, vt), (wn, wt) = (reference_jumps(x, mesh)
                                   for x in (u, v, w))
    # rounding of sums of eight O(1) terms
    assert np.abs(s - (1.7 * un + vn)).max() <= 1e-14 * np.abs(s).max()
    assert np.abs(jt - vt).max() <= 1e-14 * np.abs(jt).max()
    assert (beta_eps(s, 0.5) < 0.0).any()
    work = forces(frictionless(crack), params, quad) @ w[cd]
    assert work == pytest.approx(
        np.sum(quad.weights * beta_eps(s, 0.5) * wn), rel=1e-12)
    work = forces(opening(crack), params, quad) @ w[cd]
    assert work == pytest.approx(np.sum(
        (quad.weights * g)[..., None] * alpha_eps(jt, 0.5) * wt), rel=1e-12)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_contact_residual_uniform_penetration():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=0.0, epsilon=0.05)
    c = 0.2
    v = plus_side_field(mesh, quad, (0.0, -c))
    r = forces(crack_state(np.zeros_like(v), v, 0.0, params, quad),
               params, quad)
    w = plus_side_field(mesh, quad, (0.0, 1.0))
    # r . w = integral of beta(-c ramp) * ramp: the interior facets
    # contribute -c^2/eps * ell each, each tip facet the ramp^3 integral
    ell, m, _, _, i3 = ramp_measures(quad)
    expected = -(c ** 2) / 0.05 * (m * ell + 2 * i3)
    assert r @ w == pytest.approx(expected, rel=1e-12)


def test_contact_residual_zero_when_opening():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=0.0, epsilon=0.05)
    v = plus_side_field(mesh, quad, (0.0, 0.3))
    crack = crack_state(np.zeros_like(v), v, 0.0, params, quad)
    assert not forces(crack, params, quad).any()


def test_contact_residual_gamma_blend():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    u = plus_side_field(mesh, quad, (0.0, -0.1))
    zero = np.zeros_like(u)
    # gamma = 2 with displacement jump -0.1 equals gamma = 0 with velocity
    # jump -0.2
    def residual(u, v, params):
        return forces(crack_state(u, v, 0.0, params, quad), params, quad)
    r_blend = residual(u, zero, ContactParams(2.0, 0.05))
    r_vel = residual(zero, 2.0 * u, ContactParams(0.0, 0.05))
    assert np.allclose(r_blend, r_vel, rtol=0, atol=1e-15)
    # gamma = 0 ignores u entirely
    r1 = residual(u, 2.0 * u, ContactParams(0.0, 0.05))
    r2 = residual(5.0 * u, 2.0 * u, ContactParams(0.0, 0.05))
    assert np.array_equal(r1, r2)


def test_contact_residual_sign():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=0.0, epsilon=0.05)
    rng = np.random.default_rng(8)
    v = plus_side_field(mesh, quad, (0.0, -0.2))
    v += 0.05 * rng.standard_normal(v.size)
    r = forces(crack_state(np.zeros_like(v), v, 0.0, params, quad),
               params, quad)
    # tested against any opening-direction field the force is nonpositive
    plus = np.unique(mesh.crack_plus)
    w = np.zeros((mesh.n_vertices, 2))
    w[plus, 1] = rng.uniform(0.0, 1.0, size=plus.size)
    assert r @ w.ravel()[quad.crack_dofs] <= 1e-14


def test_friction_residual_zero_cases():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    v = plus_side_field(mesh, quad, (0.0, -0.2))  # normal jump only
    params = ContactParams(gamma=0.0, epsilon=0.05, g=ex.parse("0.3"))
    assert not forces(opening(crack_state(v, v, 0.0, params, quad)),
                      params, quad).any()
    no_bound = ContactParams(gamma=0.0, epsilon=0.05)
    slip = plus_side_field(mesh, quad, (0.5, 0.0))
    assert not forces(crack_state(slip, slip, 0.0, no_bound, quad),
                      no_bound, quad).any()


def test_frictionless_terms_are_exact_zeros():
    # without g the friction bound is 0, and the friction terms are exact
    # zeros of the crack-vector and crack-block shapes
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=0.5, epsilon=0.05)
    u, v = penetrating_pair(mesh, quad)
    crack = crack_state(u, v, 0.0, params, quad)
    assert crack[1].any() and not crack[2].any()
    k = quad.crack_dofs.size
    r = quad.scatter(friction_residual(recover_tractions(crack, params)[1],
                                       quad))
    tan = crack_block(friction_tangent(crack, params, quad, coeff_v=0.7),
                      quad)
    assert r.shape == (k,) and tan.shape == (k, k)
    assert not r.any() and not tan.any()


def test_friction_residual_dissipative_and_bounded():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=0.0, epsilon=0.05, g=ex.parse("0.3"))
    rng = np.random.default_rng(9)
    v = plus_side_field(mesh, quad, (0.2, 0.0))
    v += 0.05 * rng.standard_normal(v.size)
    r = forces(opening(crack_state(v, v, 0.0, params, quad)), params, quad)
    assert r @ v >= 0.0
    sigma_n, sigma_t = recover_tractions(
        crack_state(np.zeros_like(v), v, 0.0, params, quad), params)
    assert np.all(np.linalg.norm(sigma_t, axis=-1) < 0.3)


def test_recovered_tractions_frozen_values():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    eps, g, p, s = 0.05, 0.3, 0.15, 0.1
    params = ContactParams(gamma=0.0, epsilon=eps, g=ex.parse(repr(g)))
    v = plus_side_field(mesh, quad, (s, -p))
    sigma_n, sigma_t = recover_tractions(
        crack_state(np.zeros_like(v), v, 0.0, params, quad), params)
    # away from the tapering tip facets the jump is exactly (s, -p)
    assert np.allclose(sigma_n[1:-1], -(p ** 2) / eps)
    expected = g * s / np.sqrt(s ** 2 + eps ** 2)
    assert np.allclose(sigma_t[1:-1, :, 0], expected)
    assert np.allclose(sigma_t[..., 1], 0.0)
    assert np.all(sigma_n <= 0.0)
    assert np.all(np.linalg.norm(sigma_t, axis=-1) < g)


def test_friction_bound_validation():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    good = ContactParams(gamma=0.0, epsilon=0.05, g=ex.parse("x - 0.4"))
    vals = friction_bound_values(good, quad, 0.0)   # crack lies in x > 0.5
    assert np.all(vals > 0)
    bad = ContactParams(gamma=0.0, epsilon=0.05, g=ex.parse("x - 0.4 - t"))
    friction_bound_values(bad, quad, 0.0)
    with pytest.raises(FrictionBoundError, match="negative"):
        friction_bound_values(bad, quad, 1.0)
    slip = plus_side_field(mesh, quad, (0.1, 0.0))
    with pytest.raises(FrictionBoundError):
        forces(crack_state(slip, slip, 1.0, bad, quad), bad, quad)


def test_residual_monotonicity():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=1.5, epsilon=0.05, g=ex.parse("0.3"))
    rng = np.random.default_rng(10)
    u = 0.1 * rng.standard_normal(quad.crack_dofs.size)
    for _ in range(10):
        v1 = 0.3 * rng.standard_normal(u.size)
        v2 = 0.3 * rng.standard_normal(u.size)
        c1 = crack_state(u, v1, 0.0, params, quad)
        c2 = crack_state(u, v2, 0.0, params, quad)
        dc = (forces(frictionless(c1), params, quad)
              - forces(frictionless(c2), params, quad)) @ (v1 - v2)
        df = (forces(opening(c1), params, quad)
              - forces(opening(c2), params, quad)) @ (v1 - v2)
        assert dc >= -1e-12
        assert df >= -1e-12


# ---------------------------------------------------------------------------
# tangents
# ---------------------------------------------------------------------------

def penetrating_pair(mesh, quad, seed=12):
    rng = np.random.default_rng(seed)
    u = plus_side_field(mesh, quad, (0.0, -0.3))
    u += 0.03 * rng.standard_normal(u.size)
    v = plus_side_field(mesh, quad, (0.2, -0.3))
    v += 0.03 * rng.standard_normal(v.size)
    return u, v


def test_contact_tangent_directional_derivative():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=1.2, epsilon=0.1)
    u, v = penetrating_pair(mesh, quad)
    cu, cv = 0.4, 0.9
    def residual(u, v):
        return forces(crack_state(u, v, 0.0, params, quad), params, quad)
    tan = tangent(crack_state(u, v, 0.0, params, quad), params,
                  quad, coeff_u=cu, coeff_v=cv)
    rng = np.random.default_rng(13)
    z = rng.standard_normal(u.size)
    h = 1e-4
    # beta is quadratic where the contact is active, so the centered
    # difference is exact up to roundoff
    fd = (residual(u + cu * h * z, v + cv * h * z)
          - residual(u - cu * h * z, v - cv * h * z)) / (2 * h)
    ref = tan @ z
    assert np.abs(fd - ref).max() <= 1e-7 * max(np.abs(ref).max(), 1.0)


def test_friction_tangent_directional_derivative():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=0.0, epsilon=0.1, g=ex.parse("0.3"))
    _, v = penetrating_pair(mesh, quad)
    cv = 0.7
    def residual(v):
        return forces(opening(crack_state(v, v, 0.0, params, quad)),
                      params, quad)
    tan = tangent(opening(crack_state(v, v, 0.0, params, quad)), params,
                  quad, coeff_u=0.0, coeff_v=cv)
    rng = np.random.default_rng(14)
    z = rng.standard_normal(v.size)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (residual(v + cv * h * z) - residual(v - cv * h * z)) / (2 * h)
        errs.append(np.abs(fd - tan @ z).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_tangents_symmetric_positive_semidefinite():
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    params = ContactParams(gamma=1.0, epsilon=0.05, g=ex.parse("0.3"))
    u, v = penetrating_pair(mesh, quad, seed=15)
    crack = crack_state(u, v, 0.0, params, quad)
    tc = tangent(frictionless(crack), params, quad, coeff_u=0.5, coeff_v=1.0)
    tf = tangent(opening(crack), params, quad, coeff_u=0.5, coeff_v=1.0)
    for dense in (tc, tf):
        scale = max(np.abs(dense).max(), 1.0)
        assert np.abs(dense - dense.T).max() <= 1e-13 * scale
    rng = np.random.default_rng(16)
    for _ in range(10):
        w = rng.standard_normal(u.size)
        assert w @ (tc @ w) >= -1e-12
        assert w @ (tf @ w) >= -1e-12


def test_friction_tangent_at_zero_slip():
    # at v = 0 the friction tangent acts as coeff * g/eps times the
    # tangential interface mass: w^T T w = coeff * g/eps times the crack
    # integral of the squared tangential jump of w
    mesh = cracked_mesh()
    quad = CrackQuadrature(mesh, DofMap(mesh))
    coeff, g, eps, tau = 0.7, 0.3, 0.05, 2.0
    params = ContactParams(gamma=0.0, epsilon=eps, g=ex.parse(repr(g)))
    zero = np.zeros(quad.crack_dofs.size)
    tan = tangent(crack_state(zero, zero, 0.0, params, quad),
                  params, quad, coeff_u=0.0, coeff_v=coeff)
    w = plus_side_field(mesh, quad, (tau, 0.0))
    ell, m, _, i2, _ = ramp_measures(quad)
    expected = coeff * g / eps * tau ** 2 * (m * ell + 2 * i2)
    assert w @ (tan @ w) == pytest.approx(expected)
    wn = plus_side_field(mesh, quad, (0.0, tau))
    assert wn @ (tan @ wn) == pytest.approx(0.0, abs=1e-14)


def test_contact_params():
    with pytest.raises(ValueError):
        ContactParams(gamma=-1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        ContactParams(gamma=0.0, epsilon=0.0)


# The crack layer on the nx = 128 mesh (the benchmark's fine problem,
# 256 crack dofs): every result's bytes, hashed.
_CRACK_LAYER_DIGEST = """\
import hashlib
import numpy as np
from crackdyn import exprlang, fem, interface
from crackdyn.meshing import generate_rect_crack
mesh = generate_rect_crack(2.0, 1.0, 128, 64, crack_span=(0.25, 0.75))
quad = interface.CrackQuadrature(mesh, fem.DofMap(mesh))
params = interface.ContactParams(1.0, 1e-2, exprlang.parse("0.05"))
rng = np.random.default_rng(23)
u, v = 0.05 * rng.standard_normal((2, quad.crack_dofs.size))
crack = interface.crack_state(u, v, 0.0, params, quad)
sigma_n, sigma_t = interface.recover_tractions(crack, params)
residual = (interface.contact_residual(sigma_n, quad),
            interface.friction_residual(sigma_t, quad))
tangent = (interface.contact_tangent(crack, params, quad, 0.3, 0.7),
           interface.friction_tangent(crack, params, quad, 0.7))
out = [*crack, sigma_n, sigma_t, *residual, *tangent,
       quad.scatter(residual[0] + residual[1])]
assert (crack[0] < 0.0).any() and out[6].any()
print(hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                              for a in out)).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 CPUs: OpenBLAS runs one thread on one")
def test_crack_layer_is_independent_of_blas_threads():
    # OpenBLAS splits large products across threads, which changes their
    # rounding; the crack layer must give the same bytes at 1 and 2
    src = os.path.dirname(os.path.dirname(os.path.abspath(crackdyn.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _CRACK_LAYER_DIGEST],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]
