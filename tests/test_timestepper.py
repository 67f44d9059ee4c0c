import collections
import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (crack_block, crack_forces, impact_config,
                      reference_jumps, turned, unzip)
from oracles import crack_problem
from scipy.sparse._compressed import _cs_matrix

from crackdyn import config as config_mod
from crackdyn import exprlang as ex
from crackdyn import diagnostics, fem, interface, timestepper
from crackdyn.basis import StepMatrix
from crackdyn.fem import Material, State
from crackdyn.interface import ContactParams
from crackdyn.meshing import generate_rect_crack, load_mesh, save_mesh
from crackdyn.timestepper import (
    CompatibilityWarning,
    StepFailure,
    TimeParams,
    build_operators,
    run,
    step,
)

BUMP = "-0.1*exp(-((x-0.9)^2 + (y-0.75)^2)/0.02)"


def make_ops(nx=8, ny=4, crack=(0.25, 0.75), gamma=0.0, epsilon=1e-2,
             g="0", f=None, trac=None, rho=1.0):
    mesh = generate_rect_crack(2.0, 1.0, nx, ny, crack_span=crack)
    material = Material(lam=1.0, mu=1.0, rho=rho)
    contact = ContactParams(gamma=gamma, epsilon=epsilon, g=ex.parse(g))
    return build_operators(mesh, material, contact, f=f, trac=trac)


def bump_field(ops):
    w = fem.interpolate(ops.mesh, (ex.parse("0"), ex.parse(BUMP)))
    return ops.dofmap.zero_constrained(w)


def crack_plus_velocity(ops, value):
    """Velocity with a prescribed jump across the crack (plus side only)."""
    w = np.zeros((ops.mesh.n_vertices, 2))
    w[np.unique(ops.mesh.crack_plus)] = value
    return ops.dofmap.zero_constrained(w.ravel())


def basis_matrix(ops):
    """R, the dense (nfree, ndof) matrix of ops.unknowns."""
    return np.column_stack([ops.unknowns(e) for e in np.eye(ops.dofmap.ndof)])


def total_energy(ops, state):
    return 0.5 * state.v @ (ops.mass @ state.v) + \
        0.5 * state.u @ (ops.stiffness @ state.u)


def test_timeparams_validation():
    TimeParams(t_end=0.0, dt=0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        TimeParams(t_end=-1.0, dt=0.1)
    with pytest.raises(ValueError, match="dt"):
        TimeParams(t_end=1.0, dt=0.0)
    with pytest.raises(ValueError, match="newmark_b"):
        TimeParams(t_end=1.0, dt=0.1, newmark_b=0.6)
    with pytest.raises(ValueError, match="newmark_g"):
        TimeParams(t_end=1.0, dt=0.1, newmark_g=0.4)
    with pytest.raises(ValueError, match="newton_tol"):
        TimeParams(t_end=1.0, dt=0.1, newton_tol=0.0)
    with pytest.raises(ValueError, match="newton_maxit"):
        TimeParams(t_end=1.0, dt=0.1, newton_maxit=0)


def test_zero_data_stays_at_rest():
    ops = make_ops(g="0.05")
    n = ops.dofmap.ndof
    states, infos = unzip(run(ops, TimeParams(t_end=0.05, dt=0.01),
                              np.zeros(n), np.zeros(n)))
    assert len(states) == 6
    for s in states:
        assert not s.u.any() and not s.v.any() and not s.a.any()
    assert all(info.iterations == 0 for info in infos)


def test_run_time_grid():
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    zero = np.zeros(n)
    states, infos = unzip(run(ops, TimeParams(t_end=0.25, dt=0.1), zero,
                              zero))
    assert [s.t for s in states] == [0.0, 0.1, 0.2, 0.25]
    # t_end = 0 still yields the initial state
    states0, infos0 = unzip(run(ops, TimeParams(t_end=0.0, dt=0.1), zero,
                                zero))
    assert len(states0) == 1 and infos0 == []
    assert states0[0].t == 0.0


def test_initial_acceleration_equilibrium():
    # u0 solving the discrete equilibrium K u = load gives a0 = 0
    ops = make_ops(nx=6, ny=4, crack=None,
                   f=(ex.parse("0.3"), ex.parse("-0.5")))
    load = ops.load(0.0)
    free = ops.dofmap.free
    u0 = np.zeros_like(load)
    u0[free] = fem.solve_spd(
        ops.pin(ops.stiffness),
        load[free], tol=1e-14)
    a0 = ops.initial_state(u0, np.zeros_like(u0)).a
    scale = max(np.abs(u0).max(), 1.0)
    assert np.abs(a0).max() <= 1e-8 * scale


def test_initial_acceleration_constant_force():
    # with f constant the free dofs satisfy the projected identity
    # M a0 = load exactly, and a0 approximates f away from the clamped
    # sides
    ops = make_ops(nx=16, ny=8, crack=None, f=(ex.parse("0.7"), ex.parse("0")))
    n = ops.dofmap.ndof
    a0 = ops.initial_state(np.zeros(n), np.zeros(n)).a
    rhs = ops.load(0.0)
    free = ops.dofmap.free
    assert not a0[ops.dofmap.constrained].any()
    res = ops.pin(ops.mass) @ a0[free] - rhs[free]
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(rhs)
    interior = (np.abs(ops.mesh.vertices[:, 0] - 1.0) < 0.5)
    ax = a0.reshape(-1, 2)[interior, 0]
    assert np.abs(ax - 0.7).max() <= 0.05


def test_compatibility_warnings():
    ops = make_ops()
    n = ops.dofmap.ndof
    with pytest.warns(CompatibilityWarning, match="normal compatibility"):
        ops.initial_state(np.zeros(n), crack_plus_velocity(ops, (0.0, -0.1)))
    with pytest.warns(CompatibilityWarning, match="tangential"):
        ops.initial_state(np.zeros(n), crack_plus_velocity(ops, (0.1, 0.0)))
    # gamma > 0 makes a displacement jump incompatible as well
    ops2 = make_ops(gamma=2.0)
    with pytest.warns(CompatibilityWarning, match="normal compatibility"):
        ops2.initial_state(crack_plus_velocity(ops2, (0.0, -0.1)),
                           np.zeros(n))
    # compatible data stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ops.initial_state(bump_field(ops), np.zeros(n))


def test_glued_linear_energy_conservation():
    # without a crack the default scheme is the trapezoidal rule: the
    # discrete energy is conserved to solver tolerance on every step
    ops = make_ops(nx=8, ny=4, crack=None)
    u0 = bump_field(ops)
    states, infos = unzip(run(ops, TimeParams(t_end=0.5, dt=0.01),
                              u0, np.zeros_like(u0)))
    e0 = total_energy(ops, states[0])
    energies = [total_energy(ops, s) for s in states]
    drift = np.abs(np.diff(energies)).max()
    assert drift <= 1e-10 * e0
    assert all(info.substeps == 1 for info in infos)
    assert all(info.iterations == 1 for info in infos)


def test_second_order_in_time():
    # Richardson: halving dt shrinks the end-state difference about 4x
    ops = make_ops(nx=4, ny=2, crack=None)
    u0 = bump_field(ops)
    finals = []
    for dt in (0.02, 0.01, 0.005):
        *_, (final, _) = run(ops, TimeParams(t_end=0.4, dt=dt),
                             u0, np.zeros_like(u0))
        finals.append(final.u)
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    assert d1 / d2 == pytest.approx(4.0, rel=0.25)


def test_newton_meets_tolerance():
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    _, infos = unzip(run(ops, TimeParams(t_end=0.05, dt=5e-3),
                         u0, np.zeros_like(u0)))
    for info in infos:
        assert info.residual <= info.tol_abs
        assert info.iterations <= 30


def test_run_is_deterministic():
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    params = TimeParams(t_end=0.05, dt=5e-3)
    # the two runs advance in turn on the same operators, which must
    # carry no history from one run into the other
    sa = run(ops, params, u0, np.zeros_like(u0))
    sb = run(ops, params, u0, np.zeros_like(u0))
    for (x, _), (y, _) in zip(sa, sb, strict=True):
        assert np.array_equal(x.u, y.u)
        assert np.array_equal(x.v, y.v)
        assert np.array_equal(x.a, y.a)


def test_run_zeroes_constrained_initial_data():
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    ones = np.ones(n)
    state, _ = next(run(ops, TimeParams(t_end=0.01, dt=0.01), ones, ones))
    assert not state.u[ops.dofmap.constrained].any()
    assert not state.v[ops.dofmap.constrained].any()


def test_run_yields_each_state_before_the_next_step(monkeypatch):
    # the initial state comes with info None and before any step; each
    # accepted state comes with its StepInfo before the next step starts
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    steps = []

    def spy(*args, _f=step):
        steps.append(args[1])
        return _f(*args)

    monkeypatch.setattr(timestepper, "step", spy)
    pairs = run(ops, TimeParams(t_end=0.03, dt=0.01), np.zeros(n), np.zeros(n))
    assert steps == []      # nothing runs before the first pair is asked for
    seen = [(s.t, info, list(steps)) for s, info in pairs]
    assert [t for t, _, _ in seen] == [0.0, 0.01, 0.02, 0.03]
    assert [done for _, _, done in seen] == [
        [], [0.01], [0.01, 0.02], [0.01, 0.02, 0.03]]
    assert seen[0][1] is None
    assert all(isinstance(info, timestepper.StepInfo)
               for _, info, _ in seen[1:])


def test_step_rejects_backward_target():
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    state = State(1.0, np.zeros(n), np.zeros(n), np.zeros(n))
    with pytest.raises(ValueError, match="t_next"):
        step(state, 1.0, ops, TimeParams(t_end=1.0, dt=0.1))


def test_step_failure_carries_diagnostics():
    # nearly rigid contact plus a one-iteration Newton budget cannot
    # converge; the halving cascade must stop with a StepFailure
    ops = make_ops(epsilon=1e-9)
    u0 = np.zeros(ops.dofmap.ndof)
    v0 = crack_plus_velocity(ops, (0.0, -1.0))
    params = TimeParams(t_end=0.1, dt=0.05, newton_maxit=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        with pytest.raises(StepFailure) as err:
            list(run(ops, params, u0, v0))
    exc = err.value
    assert exc.dt <= 0.05
    assert 0.0 <= exc.t < 0.1
    assert exc.residual > 0.0
    assert exc.iterations == 1


def test_step_halving_recovers():
    # a harder nonlinear step succeeds by bisecting; substeps reflect it
    ops = make_ops(epsilon=1e-3, g="0.05")
    u0 = np.zeros(ops.dofmap.ndof)
    v0 = crack_plus_velocity(ops, (0.0, -0.3))
    params = TimeParams(t_end=0.02, dt=0.02, newton_maxit=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        states, infos = unzip(run(ops, params, u0, v0))
    assert states[-1].t == pytest.approx(0.02)
    assert infos[0].substeps >= 2


def test_contact_dissipates_energy():
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    states, _ = unzip(run(ops, TimeParams(t_end=0.2, dt=5e-3),
                          u0, np.zeros_like(u0)))
    records = [diagnostics.record(s, ops) for s in states]
    assert diagnostics.check_energy_decay(records).ok
    assert total_energy(ops, states[-1]) < total_energy(ops, states[0])


def _jac_key(params, dt):
    """The linear Jacobian's cache key (ca, cu) of a step of size dt."""
    b, g = params.newmark_b, params.newmark_g
    return g, g * (b * dt * dt)


def test_linear_jacobian_is_cached():
    ops = make_ops(nx=4, ny=2)
    params = TimeParams(t_end=1.0, dt=0.1)
    j1 = ops.linear_jacobian(*_jac_key(params, 0.1))
    j2 = ops.linear_jacobian(*_jac_key(params, 0.1))
    assert j1 is j2
    lin = j1.linear()
    nfree = ops.dofmap.free.size
    assert lin.shape == (nfree, nfree)
    # at g = 1/2, ca*M + cu*K is g*(M + b*dt^2*K) bit for bit, and lin
    # is that matrix pinned
    combined = fem.combine(ops.mass, ops.stiffness, *_jac_key(params, 0.1))
    assert np.array_equal(combined.toarray(), (
        0.5 * (ops.mass + (0.25 * 0.1 * 0.1) * ops.stiffness)).toarray())
    assert np.array_equal(lin.toarray(), ops.pin(combined).toarray())
    j3 = ops.linear_jacobian(*_jac_key(params, 0.05))
    assert j3 is not j1


def test_linear_jacobian_one_key_per_step_size():
    # k*dt - (k-1)*dt differs from dt in the last bits; full steps must
    # still share one cached linear Jacobian, and halved steps use exact
    # halves of dt
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    params = TimeParams(t_end=0.1, dt=2.5e-3)
    _, infos = unzip(run(ops, params, u0, np.zeros_like(u0)))
    assert all(info.substeps == 1 for info in infos)
    assert list(ops._jac_cache) == [_jac_key(params, params.dt)]

    ops = make_ops(epsilon=1e-3, g="0.05")
    v0 = crack_plus_velocity(ops, (0.0, -0.3))
    params = TimeParams(t_end=0.04, dt=0.02, newton_maxit=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        _, infos = unzip(run(ops, params, np.zeros_like(v0), v0))
    assert infos[0].substeps >= 2
    halves = {_jac_key(params, params.dt / 2 ** j) for j in range(6)}
    assert set(ops._jac_cache) <= halves


def _penetrating_state(ops, rng, t=0.0):
    """Random state whose crack faces interpenetrate and slip."""
    plus = np.unique(ops.mesh.crack_plus)
    u = 0.03 * rng.standard_normal((ops.mesh.n_vertices, 2))
    v = 0.03 * rng.standard_normal(u.shape)
    u[plus] += (0.0, -0.3)
    v[plus] += (0.2, -0.3)
    u, v = u.ravel(), v.ravel()
    a = rng.standard_normal(u.size)
    zc = ops.dofmap.zero_constrained
    return State(t, zc(u), zc(v), zc(a))


def _tip_on_dirichlet_mesh(tmp_path):
    # the left crack tip is the shared vertex at x = 0, on the clamped edge
    path = tmp_path / "edge_crack.mesh"
    save_mesh(generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.05, 0.75)),
              path)
    return load_mesh(path)


@pytest.mark.parametrize("tip_on_dirichlet", [False, True])
@pytest.mark.parametrize("g", [None, "0.05"])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 10.0])
def test_newton_operator_is_residual_derivative(tmp_path, gamma, g,
                                                tip_on_dirichlet):
    # the Newton matrix applied to z equals the central difference of
    # the step residual along z, both in the crack basis; its diagonal
    # is the one of its CSR matrix, its crack terms carry a visible
    # share of the product, and they are B^T D B on the crack unknowns,
    # with B = basis.jumps and D the derivatives it was built from, and
    # zero off them
    if tip_on_dirichlet:
        mesh = _tip_on_dirichlet_mesh(tmp_path)
    else:
        mesh = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    contact = ContactParams(gamma=gamma, epsilon=1e-2, g=ex.parse(g or "0"))
    ops = build_operators(mesh, Material(lam=1.0, mu=1.0, rho=1.0), contact)
    quad = ops.quad
    face = np.unique(np.concatenate([mesh.crack_plus, mesh.crack_minus]))
    face_dofs = (face[:, None] * 2 + np.arange(2)).ravel()
    assert ops.dofmap.constrained[face_dofs].any() == tip_on_dirichlet
    assert not ops.dofmap.constrained[quad.crack_dofs].any()

    rng = np.random.default_rng(31)
    state = _penetrating_state(ops, rng)
    free = ops.dofmap.free
    # the default pair and a dissipative one, whose g is not a power of 2
    for b, gn in ((0.25, 0.5), (0.3025, 0.6)):
        problem, _, _ = timestepper._interval(
            state, 0.05, ops, TimeParams(t_end=1.0, dt=0.05, newmark_b=b,
                                         newmark_g=gn))
        a = rng.standard_normal(free.size)
        _, point = problem.evaluate(a)
        op = problem.newton_matrix(point)
        h = 1e-5
        for _ in range(3):
            z = rng.standard_normal(a.size)
            fd = (problem.evaluate(a + h * z)[0]
                  - problem.evaluate(a - h * z)[0]) / (2 * h)
            ref = op @ z
            assert np.abs(fd - ref).max() <= 1e-6 * np.abs(ref).max()
            assert np.array_equal(op.diagonal(), op.matrix.diagonal())
            crack_part = ref - op.linear() @ z
            assert (np.abs(fd - op.linear() @ z).max()
                    >= 1e-3 * np.abs(ref).max())
            tz = np.zeros_like(ref)
            tz[problem.crack] = crack_tangent_product(ops, op.derivatives,
                                                      z[problem.crack])
            assert (np.abs(tz - crack_part).max()
                    <= 1e-13 * np.abs(ref).max())


def crack_tangent_product(ops, derivatives, z):
    """B^T diag(D) B z on the crack unknowns, B = ops.basis.jumps and D
    the pointwise derivatives the Newton matrix was built from, one per
    row of B."""
    return ops.basis.jumps_t @ (derivatives.ravel() * (ops.basis.jumps @ z))


@pytest.mark.parametrize("theta, swap", [(0.5, False), (2.0, True)])
@pytest.mark.parametrize("tip_on_dirichlet", [False, True])
def test_newton_operator_is_residual_derivative_on_turned_cracks(
        tmp_path, tip_on_dirichlet, theta, swap):
    # off the axes each point's tangential row takes both components of
    # the nodal jump, and each reaches the Newton matrix through the
    # point's friction derivative: it must still be the residual's
    # derivative, and its crack part B^T diag(D) B
    if tip_on_dirichlet:
        mesh = _tip_on_dirichlet_mesh(tmp_path)
    else:
        mesh = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    mesh = turned(mesh, theta, swap)
    ops = build_operators(mesh, Material(lam=1.0, mu=1.0, rho=1.0),
                          ContactParams(gamma=1.0, epsilon=1e-2,
                                        g=ex.parse("0.05")))
    rng = np.random.default_rng(37)
    plus = np.unique(mesh.crack_plus)
    n = mesh.crack_normals[0]
    u, v = 0.03 * rng.standard_normal((2, mesh.n_vertices, 2))
    u[plus] -= 0.3 * n
    v[plus] += 0.2 * np.array([-n[1], n[0]]) - 0.3 * n
    zc = ops.dofmap.zero_constrained
    state = State(0.0, zc(u.ravel()), zc(v.ravel()),
                  zc(rng.standard_normal(u.size)))
    problem, _, _ = timestepper._interval(
        state, 0.05, ops, TimeParams(t_end=1.0, dt=0.05))
    a = rng.standard_normal(ops.free.size)
    _, point = problem.evaluate(a)
    op = problem.newton_matrix(point)
    tangential = ops.quad.jumps[1::2]
    assert np.unique(ops.quad.crack_dofs[tangential.indices] % 2).size == 2
    assert (op.derivatives[..., 1] > 0.0).all()      # friction is live
    h = 1e-5
    for _ in range(3):
        z = rng.standard_normal(a.size)
        fd = (problem.evaluate(a + h * z)[0]
              - problem.evaluate(a - h * z)[0]) / (2 * h)
        ref = op @ z
        assert np.abs(fd - ref).max() <= 1e-6 * np.abs(ref).max()
        crack_part = ref - op.linear() @ z
        tz = np.zeros_like(ref)
        tz[problem.crack] = crack_tangent_product(ops, op.derivatives,
                                                  z[problem.crack])
        assert np.abs(tz - crack_part).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("theta, swap", [(0.0, False), (0.5, False),
                                         (2.0, True)])
@pytest.mark.parametrize("tip_on_dirichlet", [False, True])
def test_crack_jumps_are_the_jumps_of_the_nodal_field(
        tmp_path, tip_on_dirichlet, theta, swap):
    # B x is the jumps interface.crack_state forms from the nodal field
    # of the unknowns x, through the public path: at each point the
    # normal jump, then the tangential one; a framed vertex's mean
    # unknowns do not enter B
    if tip_on_dirichlet:
        mesh = _tip_on_dirichlet_mesh(tmp_path)
    else:
        mesh = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    mesh = turned(mesh, theta, swap)
    ops = build_operators(mesh, Material(lam=1.0, mu=1.0, rho=1.0),
                          ContactParams())
    quad, basis = ops.quad, ops.basis
    rng = np.random.default_rng(73)
    x = rng.standard_normal(ops.free.size)
    jumps = (basis.jumps @ x[quad.crack_free]).reshape(
        quad.weights.shape + (2,))
    w = ops.nodal(x)[quad.crack_dofs]
    s, jt, _ = interface.crack_state(np.zeros_like(w), w, 0.0, ops.contact,
                                     quad)
    scale = np.abs(jumps).max()
    assert np.abs(jumps[..., 0] - s).max() <= 1e-15 * scale
    assert np.abs(jumps[..., 1] - jt).max() <= 1e-15 * scale
    mean = basis.free_at[:, :2]
    assert not np.isin(np.searchsorted(quad.crack_free, mean),
                       basis.jumps.indices).any()
    assert np.array_equal(basis.jumps_t.toarray(), basis.jumps.toarray().T)


@pytest.mark.parametrize("theta, swap", [(0.0, False), (0.5, False),
                                         (2.0, True)])
@pytest.mark.parametrize("tip_on_dirichlet", [False, True])
def test_crack_basis_is_mean_and_jump_in_each_vertex_frame(
        tmp_path, tip_on_dirichlet, theta, swap):
    # the basis is orthogonal to rounding; each duplicated vertex with two
    # free copies maps to the mean and the jump of its copies'
    # components in its normal/tangent frame, the plus copy's dofs
    # holding the mean; every other free dof, crack tips and copies on
    # the clamped edge among them, is its nodal dof
    if tip_on_dirichlet:
        mesh = _tip_on_dirichlet_mesh(tmp_path)
    else:
        mesh = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    mesh = turned(mesh, theta, swap)
    ops = build_operators(mesh, Material(lam=1.0, mu=1.0, rho=1.0),
                          ContactParams())
    free, constrained = ops.dofmap.free, ops.dofmap.constrained
    r = basis_matrix(ops)
    assert np.abs(r @ r.T - np.eye(free.size)).max() <= 4e-16
    assert np.abs(r.T @ r - np.diag(~constrained * 1.0)).max() <= 4e-16

    ident = mesh.merged_vertex_map()
    minus = np.flatnonzero(ident != np.arange(mesh.n_vertices))
    plus = ident[minus]
    pinned = constrained.reshape(-1, 2)
    split = ~pinned[plus].any(axis=1) & ~pinned[minus].any(axis=1)
    # the crack of the clamped-tip mesh has a tip on the clamped edge
    assert (pinned[mesh.crack_plus].any()) == tip_on_dirichlet
    assert split.sum() == (5 if tip_on_dirichlet else 3)
    n = np.array([-math.sin(theta), math.cos(theta)]) * (-1 if swap else 1)
    t = np.array([-n[1], n[0]])
    rng = np.random.default_rng(71)
    w = ops.dofmap.zero_constrained(rng.standard_normal(ops.dofmap.ndof))
    x = ops.unknowns(w)
    wv = w.reshape(-1, 2)
    at = np.searchsorted(free, np.arange(ops.dofmap.ndof)).reshape(-1, 2)
    for p, m in zip(plus[split], minus[split]):
        mean, jump = (wv[p] + wv[m]) / np.sqrt(2), (wv[p] - wv[m]) / np.sqrt(2)
        expected = [mean @ n, mean @ t, jump @ n, jump @ t]
        assert np.abs(x[[*at[p], *at[m]]] - expected).max() <= 1e-15
    framed = np.concatenate([plus[split], minus[split]])
    others = np.setdiff1d(np.flatnonzero(~constrained),
                          (framed[:, None] * 2 + np.arange(2)).ravel())
    assert np.array_equal(x[np.searchsorted(free, others)], w[others])
    back = ops.nodal(x)
    assert not back[constrained].any()
    assert np.abs(back - w).max() <= 1e-15 * np.abs(w).max()


@pytest.mark.parametrize("newmark_b", [0.25, 0.0])
def test_pin_turns_the_free_block_in_place(newmark_b):
    # pin(A) is R A R^T, formed in place on A's free rows and columns:
    # their pattern stays, zeros included, and it holds every entry the
    # crack tangents add to (at b = 0 the Newton matrix is ca*M alone);
    # the mass's own pattern pairs a vertex's x and y dofs nowhere, so
    # it cannot hold the turned rows, and pin says so
    ops = make_ops()
    a = fem.combine(ops.mass, ops.stiffness, 0.5, 0.5 * newmark_b * 0.05 ** 2)
    free, n = ops.free, ops.free.size
    kept = a[free][:, free]
    pinned = ops.pin(a)
    assert np.array_equal(pinned.indptr, kept.indptr)
    assert np.array_equal(pinned.indices, kept.indices)
    r = basis_matrix(ops)
    assert np.abs(pinned.toarray() - r @ a.toarray() @ r.T).max() <= (
        1e-15 * np.abs(a.data).max())
    stored = np.repeat(np.arange(n), np.diff(pinned.indptr)) * n + (
        pinned.indices)
    assert ops.basis.slots.size > 0
    assert np.isin(ops.basis.slots, stored).all()
    with pytest.raises(ValueError, match="framed vertex"):
        ops.pin(ops.mass)


# CG products in the crack basis over those on the nodal free dofs,
# measured on the run below: 1,278 / 1,634 = 0.78.
CG_SHARE = 0.85


def test_crack_basis_saves_cg_products_on_stiff(monkeypatch):
    # Jacobi sees the penalty's coupling of the two crack faces only in
    # the crack basis: on the impact at gamma 10, epsilon 1e-4, the Newton
    # systems take fewer CG products there than the same systems posed on
    # the nodal free dofs, solved to the same tolerance from the same
    # right-hand side (|r| is the same in both bases)
    cfg = impact_config(gamma=10.0, epsilon=1e-4)
    cfg = dataclasses.replace(cfg, time=dataclasses.replace(cfg.time,
                                                            t_end=0.1))
    problem = config_mod.build_problem(cfg)
    ops = problem.ops
    r = sp.csr_matrix(basis_matrix(ops)[:, ops.free])
    counts = collections.Counter()
    solve = fem.solve_spd

    def both(a, rhs, tol=1e-12, **kw):
        if isinstance(a, StepMatrix):
            nodal = (r.T @ a.matrix @ r).tocsr()
            x = solve(_Counted(nodal, counts, "nodal"), r.T @ rhs, tol=tol)
            assert np.linalg.norm(nodal @ x - r.T @ rhs) <= (
                tol * np.linalg.norm(rhs))
            return solve(_Counted(a, counts, "basis"), rhs, tol=tol, **kw)
        return solve(a, rhs, tol=tol, **kw)
    monkeypatch.setattr(fem, "solve_spd", both)
    for _ in run(ops, cfg.time, problem.u0, problem.v0):
        pass
    assert counts["basis"] <= CG_SHARE * counts["nodal"]


def _step_potential(state, dt, ops, params, a):
    """The convex potential Pi of one Newmark interval in a+, whose
    gradient the step residual is:

    Pi = (1/g)*a_w.M.a_w/2 + (1/(g*du))*(u_w.K.u_w/2 - load.u_w)
         + (1/(g*(gamma*du + dv)))*int psi_eps(s)
         + (1/(g*dv))*int g_T*phi_eps(|v_t|)

    with du = b*dt^2 and dv = g*dt; for du = 0 the second term is
    (K.u_w - load).a+, u_w no longer depending on a+."""
    b, g = params.newmark_b, params.newmark_g
    du, dv = b * dt * dt, g * dt
    t_w = state.t + g * dt
    u_end = state.u + dt * state.v + dt * dt * ((0.5 - b) * state.a + b * a)
    v_end = state.v + dt * ((1.0 - g) * state.a + g * a)
    u_w = (1.0 - g) * state.u + g * u_end
    v_w = (1.0 - g) * state.v + g * v_end
    a_w = (1.0 - g) * state.a + g * a
    load = ops.load(t_w)
    pi = 0.5 * a_w @ (ops.mass @ a_w) / g
    if du > 0.0:
        pi += (0.5 * u_w @ (ops.stiffness @ u_w) - load @ u_w) / (g * du)
    else:
        pi += (ops.stiffness @ u_w - load) @ a
    quad, contact = ops.quad, ops.contact
    jn, jt = reference_jumps(v_w, ops.mesh)
    un, _ = reference_jumps(u_w, ops.mesh)
    s = contact.gamma * un + jn
    pi += (quad.weights * interface.psi_eps(s, contact.epsilon)).sum() / (
        g * (contact.gamma * du + dv))
    g_t = interface.friction_bound_values(contact, quad, t_w)
    slip = np.linalg.norm(jt, axis=-1)
    pi += (quad.weights * g_t * interface.phi_eps(slip, contact.epsilon)
           ).sum() / (g * dv)
    return pi


@pytest.mark.parametrize("newmark_b", [0.25, 0.0])
@pytest.mark.parametrize("g", [None, "0.05"])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 10.0])
def test_step_residual_is_potential_gradient(gamma, g, newmark_b):
    # the line search relies on r . d being the slope of Pi along d: check
    # it on the Newton direction against a central difference of Pi
    ops = make_ops(gamma=gamma, g=g or "0",
                   f=(ex.parse("0.3"), ex.parse("-0.5*t")))
    rng = np.random.default_rng(47)
    state = _penetrating_state(ops, rng, t=0.1)
    dt = 0.05
    params = TimeParams(t_end=1.0, dt=dt, newmark_b=newmark_b)
    problem, _, _ = timestepper._interval(state, dt, ops, params)
    free = ops.dofmap.free
    a = rng.standard_normal(free.size)
    r, point = problem.evaluate(a)
    d = fem.solve_spd(problem.newton_matrix(point), -r, tol=1e-12)
    slope = r @ d
    assert slope < 0.0
    h = 1e-5
    pi = [_step_potential(state, dt, ops, params, ops.nodal(x))
          for x in (a + h * d, a - h * d)]
    assert (pi[0] - pi[1]) / (2 * h) == pytest.approx(slope, rel=1e-8)


@pytest.mark.parametrize("tol", [1e-1, 1e-3, timestepper._CG_FORCING])
def test_loosely_solved_newton_direction_descends(tol):
    # any CG iterate from zero on an SPD system has r . d < 0, so an
    # inexact Newton direction still satisfies the line search's premise
    ops = make_ops(gamma=1.0, g="0.05")
    rng = np.random.default_rng(53)
    state = _penetrating_state(ops, rng)
    problem, _, _ = timestepper._interval(
        state, 0.05, ops, TimeParams(t_end=1.0, dt=0.05))
    a = rng.standard_normal(ops.dofmap.free.size)
    r, point = problem.evaluate(a)
    op = problem.newton_matrix(point)
    assert op.nonlinear
    d, r_cg, _ = fem.solve_spd(op, -r, tol=tol, full_output=True)
    assert np.linalg.norm(op @ d + r) <= tol * np.linalg.norm(r)
    assert r @ d < 0.0
    out = timestepper._line_search(problem, op, a, d, r, r_cg, point)
    assert out is not None


# Largest |trial slope - fresh slope| over the largest |slope| term, over
# the steps below: 2.7e-16.  The bound leaves a factor of about 35.
SLOPE_ROUNDING = 1e-14


@pytest.mark.parametrize("g", [None, "0.05"])
def test_line_trial_slope_is_the_fresh_slope(g):
    # a trial's slope, from r.d and r_cg.d and the crack's e(s).d on
    # the points, is the slope r(a + s*d).d of the residual evaluated
    # afresh there, at steps short of and beyond the Newton step; the
    # kept trial's remainder e(s) is the fresh residual's
    ops = make_ops(gamma=1.0, g=g or "0")
    rng = np.random.default_rng(57)
    state = _penetrating_state(ops, rng)
    problem, _, _ = timestepper._interval(
        state, 0.05, ops, TimeParams(t_end=1.0, dt=0.05))
    a = rng.standard_normal(ops.free.size)
    r, point = problem.evaluate(a)
    op = problem.newton_matrix(point)
    d, r_cg, _ = fem.solve_spd(op, -r, tol=1e-3, full_output=True)
    crack = problem.crack
    trial, keep = problem.line(point, op, d[crack])
    for s in (0.3, 1.0, 1.7):
        rest, at = trial(s)
        slope = (1.0 - s) * (r @ d) - s * (r_cg @ d) + rest
        fresh, _ = problem.evaluate(a + s * d)
        scale = max(abs(r @ d), abs(r_cg @ d), abs(fresh @ d))
        assert abs(slope - fresh @ d) <= SLOPE_ROUNDING * scale
        carried = (1.0 - s) * r - s * r_cg
        carried[crack] += keep(at)[0]
        assert (np.abs(carried - fresh).max()
                <= CARRIED_ROUNDING * np.abs(fresh).max())
    assert abs(trial(1.0)[0]) >= 1e-3 * abs(r @ d)   # the crack moves it


def _spy_newton_solves(monkeypatch, ops, params, u0):
    """Step from u0 at rest, handing each step the previous StepInfo as
    run does; return [nonlinear, tol, |rhs|, tol_abs, step, contraction]
    for every Newton system the stepper hands to fem.solve_spd, the last
    three of its step."""
    state = ops.initial_state(u0, np.zeros_like(u0))
    calls = []
    solve = fem.solve_spd

    def spy(a, rhs, tol=1e-12, **kw):
        calls.append([a.nonlinear, tol, float(np.linalg.norm(rhs))])
        return solve(a, rhs, tol=tol, **kw)

    monkeypatch.setattr(fem, "solve_spd", spy)
    info = None
    for k in range(1, int(round(params.t_end / params.dt)) + 1):
        first = len(calls)
        state, info = step(state, k * params.dt, ops, params, info)
        assert info.substeps == 1 and info.residual <= info.tol_abs
        for call in calls[first:]:
            call += [info.tol_abs, k, info.contraction]
    monkeypatch.undo()
    return calls


def test_cg_tolerance_follows_the_forcing_rule(monkeypatch):
    params = TimeParams(t_end=0.03, dt=5e-3)
    floor = timestepper._CG_FLOOR
    # friction makes every crack block nonzero: the forcing term applies
    ops = make_ops(g="0.05")
    calls = _spy_newton_solves(monkeypatch, ops, params, bump_field(ops))
    assert calls and all(nonlinear for nonlinear, *_ in calls)
    assert calls[0][1] == 1e-6          # a run's first system: no history
    # Eisenstat-Walker choice 2, recomputed from the |r_k| handed to CG
    rho = None
    for k in range(1, 7):
        _, tols, norms, tol_abs, _, contraction = zip(
            *[c for c in calls if c[4] == k])
        assert len(norms) >= 2
        eta = 1e-6 if rho is None else min(0.1, max(1e-6, 0.1 * rho))
        for j, (tol, norm_r) in enumerate(zip(tols, norms)):
            if j:
                eta = min(0.1, 0.9 * (norm_r / norms[j - 1]) ** 2)
            assert tol == pytest.approx(
                max(timestepper._CG_TOL, eta, floor * tol_abs[0] / norm_r),
                rel=1e-12)
        rho = norms[1] / norms[0]
        assert contraction[0] == pytest.approx(rho, rel=1e-12)
    # the forcing term loosened solves far beyond 1e-6, and the floor acted
    assert max(tol for _, tol, *_ in calls) > 1e-3
    assert any(tol == pytest.approx(floor * tol_abs / norm_r, rel=1e-12)
               for _, tol, norm_r, tol_abs, *_ in calls)
    # a glued plate is linear: solved down to the floor, one iteration
    ops = make_ops(crack=None)
    calls = _spy_newton_solves(monkeypatch, ops, params, bump_field(ops))
    assert len(calls) == 6
    for nonlinear, tol, norm_r, tol_abs, *_ in calls:
        assert not nonlinear
        assert tol <= floor * tol_abs / norm_r * (1 + 1e-12)


def test_bisected_halves_use_the_fixed_forcing(monkeypatch):
    # the whole interval fails with adaptive forcing terms; its halves go
    # back to 1e-6 on every system, above which only the floor lifts a tol
    ops = make_ops(epsilon=1e-3, g="0.05")
    v0 = crack_plus_velocity(ops, (0.0, -0.3))
    params = TimeParams(t_end=0.02, dt=0.02, newton_maxit=6)
    floor = timestepper._CG_FLOOR
    substeps = []       # per substep: [dt, [(tol, |rhs|)], tol_abs]
    solve, substep = fem.solve_spd, timestepper._solve_substep

    def spy_solve(a, rhs, tol=1e-12, **kw):
        if substeps:        # not the initial acceleration's solve
            substeps[-1][1].append((tol, float(np.linalg.norm(rhs))))
        return solve(a, rhs, tol=tol, **kw)

    def spy_substep(state, dt, *args, **kwargs):
        substeps.append([dt, []])
        new, info = substep(state, dt, *args, **kwargs)
        substeps[-1].append(info.tol_abs)
        return new, info

    monkeypatch.setattr(fem, "solve_spd", spy_solve)
    monkeypatch.setattr(timestepper, "_solve_substep", spy_substep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        _, infos = unzip(run(ops, params, np.zeros_like(v0), v0))
    assert len(substeps) > infos[0].substeps >= 2
    assert substeps[0][0] == 0.02
    assert max(tol for tol, _ in substeps[0][1]) > 1e-3
    for _, solves, tol_abs in substeps[1:]:
        for tol, norm_r in solves:
            assert tol == pytest.approx(max(1e-6, floor * tol_abs / norm_r),
                                        rel=1e-12)


def test_a_bare_step_has_no_forcing_history(monkeypatch):
    # the history travels with the run: after a run on the same
    # operators, a bare step solves its first system at 1e-6, and one
    # handed the previous StepInfo sets it from that step's contraction
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    params = TimeParams(t_end=0.03, dt=5e-3)
    states, infos = unzip(run(ops, params, u0, np.zeros_like(u0)))
    rho = infos[-2].contraction
    assert 0.1 * rho > 1e-6
    tols = []
    solve = fem.solve_spd

    def spy(a, rhs, tol=1e-12, **kw):
        tols.append(tol)
        return solve(a, rhs, tol=tol, **kw)

    monkeypatch.setattr(fem, "solve_spd", spy)
    step(states[-2], states[-1].t, ops, params)
    assert tols[0] == 1e-6
    first = len(tols)
    handed, _ = step(states[-2], states[-1].t, ops, params, infos[-2],
                     (states[-3].a, states[-4].a))
    assert tols[first] == min(0.1, max(1e-6, 0.1 * rho))
    assert np.array_equal(handed.u, states[-1].u)


def test_predictor_continues_a_ringing_sequence():
    # linear in t plus a constant period-2 alternation: the predictor
    # repeats the increment of two steps back and gives the next term
    # exactly (small integers keep every sum exact)
    s0, s1, o = np.random.default_rng(30).integers(-8, 8, (3, 7)) * 1.0
    seq = [s0 + k * s1 + (-1) ** k * o for k in range(7)]
    for n in range(2, 6):
        assert np.array_equal(
            timestepper._predictor(seq[n], (seq[n - 1], seq[n - 2])),
            seq[n + 1])


def _spy_guesses(monkeypatch):
    """Per call of _solve_substep, [dt, the guess it was handed]."""
    calls = []
    substep = timestepper._solve_substep

    def spy(state, dt, *args, guess=None, **kwargs):
        calls.append([dt, guess])
        return substep(state, dt, *args, guess=guess, **kwargs)
    monkeypatch.setattr(timestepper, "_solve_substep", spy)
    return calls


def test_run_predicts_full_steps_once_two_accelerations_are_past(
        monkeypatch):
    # the first two steps have no predictor, the third starts from
    # a_2 + (a_1 - a_0), and the partial last step has none again
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    calls = _spy_guesses(monkeypatch)
    params = TimeParams(t_end=0.0175, dt=5e-3)
    states, infos = unzip(run(ops, params, u0, np.zeros_like(u0)))
    assert [s.t for s in states] == [0.0, 0.005, 0.01, 0.015, 0.0175]
    assert [info.substeps for info in infos] == [1, 1, 1, 1]
    assert [guess is None for _, guess in calls] == [True, True, False, True]
    assert np.array_equal(calls[2][1], timestepper._predictor(
        states[2].a, (states[1].a, states[0].a)))
    assert calls[3][0] == pytest.approx(0.0025)


def test_bisection_restarts_the_predictor_history(monkeypatch):
    # the halving problem with a budget of 10 iterations bisects steps
    # 1, 3 and 4: the history restarts after each, so no step gets two
    # past accelerations, and step 3 gets only a_1.  Each half of a
    # bisected step starts from its own state's acceleration
    ops, params, u0, v0 = _bisected_case()
    params = TimeParams(t_end=0.08, dt=0.02, newton_maxit=10)
    pasts = []

    def spy(state, t_next, ops, params, prev=None, past=(), _f=step):
        pasts.append(past)
        return _f(state, t_next, ops, params, prev, past)
    monkeypatch.setattr(timestepper, "step", spy)
    states, infos = _run_quietly(ops, params, u0, v0)
    assert [info.substeps for info in infos] == [2, 1, 4, 4]
    assert [len(past) for past in pasts] == [0, 0, 1, 0]
    assert pasts[2][0] is states[1].a
    monkeypatch.undo()
    calls = _spy_guesses(monkeypatch)
    past = (states[0].a, states[0].a)     # the predictor is a_0 itself
    _, info = step(states[0], params.dt, ops, params, None, past)
    assert info.substeps == 2 and not info.predicted
    assert calls[0][0] == params.dt
    assert np.array_equal(calls[0][1], states[0].a)
    assert len(calls) > 1
    assert all(guess is None for _, guess in calls[1:])


def test_tolerance_is_set_at_the_previous_acceleration():
    # tol_abs = newton_tol*max(|load_w|, |r(unknowns(a_n))|) on every
    # step, wherever Newton starts; _interval gives |load_w|
    ops, params, u0, v0 = _impact_case(10.0, "0.05", t_end=0.1)
    states, infos = _run_quietly(ops, params, u0, v0)
    assert sum(info.predicted for info in infos) >= 10
    for state, info in zip(states, infos):
        problem, load_norm, _ = timestepper._interval(state, params.dt, ops,
                                                      params)
        r, _ = problem.evaluate(ops.unknowns(state.a))
        assert info.tol_abs == params.newton_tol * max(
            load_norm, float(np.linalg.norm(r)))


def test_a_predictor_with_a_larger_residual_is_not_taken():
    # a step handed a far-off history solves as one handed none, bit for
    # bit; handed the run's own history it starts from the predictor
    ops, params, u0, v0 = _impact_case(10.0, "0.05", t_end=0.05)
    states, infos = _run_quietly(ops, params, u0, v0)
    assert infos[-1].predicted
    state, t_next = states[-2], states[-1].t
    plain, plain_info = step(state, t_next, ops, params, infos[-2])
    far = (np.full_like(state.a, 1e3), np.zeros_like(state.a))
    new, info = step(state, t_next, ops, params, infos[-2], far)
    assert info == plain_info and not info.predicted
    assert np.array_equal(new.a, plain.a)
    handed, handed_info = step(state, t_next, ops, params, infos[-2],
                               (states[-3].a, states[-4].a))
    assert handed_info == infos[-1]
    assert np.array_equal(handed.a, states[-1].a)


def test_run_keeps_two_past_accelerations():
    # every StepInfo field is a scalar (a benchmark keeps them all), and
    # run holds the accelerations of two states before the current one
    # and no more: once the consumer drops the initial state, its
    # acceleration is freed three steps on
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    pairs = run(ops, TimeParams(t_end=0.03, dt=5e-3), u0, np.zeros_like(u0))
    state, _ = next(pairs)
    first = weakref.ref(state.a)
    del state
    alive = []
    for _, info in pairs:
        alive.append(first() is not None)
        for f in dataclasses.fields(info):
            assert isinstance(getattr(info, f.name),
                              (bool, int, float, type(None))), f.name
    assert alive == [True, True, False, False, False, False]


def test_small_epsilon_cg_work(monkeypatch):
    # the benchmark's stiff problem (gamma 10, eps 1e-4, 100 steps): 2,690
    # CG products with adaptive forcing terms and the ringing predictor
    # (3,263 without the predictor), against 5,403 with every system
    # solved to 1e-6, and 470 Newton iterations (645 without the
    # predictor) against 462.  The bounds leave 8 % above the measured
    # CG count and 2 % above the measured Newton count, so a run without
    # the predictor fails both, and nothing bisects
    problem = config_mod.build_problem(dataclasses.replace(
        impact_config(gamma=10.0, epsilon=1e-4),
        time=TimeParams(t_end=0.25, dt=2.5e-3)))
    products = [0]
    solve = fem.solve_spd

    class Counting:
        def __init__(self, a):
            self.a = a

        def diagonal(self):
            return self.a.diagonal()

        def __matmul__(self, x):
            products[0] += 1
            return self.a @ x

    monkeypatch.setattr(fem, "solve_spd",
                        lambda a, *args, **kw: solve(Counting(a), *args, **kw))
    _, infos = unzip(run(problem.ops, problem.config.time, problem.u0,
                         problem.v0))
    assert len(infos) == 100
    assert all(info.substeps == 1 for info in infos)
    assert sum(info.iterations for info in infos) <= int(470 * 1.02)
    assert products[0] <= int(2690 * 1.08)


def test_impact_run_converges_with_inexact_solves(impact_runs):
    # loose CG solves must not cost Newton iterations or accept a step
    # above its tolerance: 475 iterations (594 without the ringing
    # predictor, 474 with every solve at 1e-12); the bound leaves 2 %
    _, _, _, infos = impact_runs.get()
    assert all(info.residual <= info.tol_abs for info in infos)
    assert all(info.substeps == 1 for info in infos)
    assert sum(info.iterations for info in infos) <= int(475 * 1.02)


def _convex_gradient(eps, n):
    """The NewtonProblem of Pi(a) = |a - 1|^2/2 + sum psi_eps(a) on n
    unknowns, every one a crack unknown: a crack of n frictionless points
    whose normal jumps are the unknowns (cu = 0, cv = 1), with its crack
    force psi_eps' = beta_eps."""
    return crack_problem(np.eye(n), -np.ones(n),
                         np.kron(np.eye(n), [[1.0], [0.0]]),
                         np.zeros((n, 2)), 0.0, ContactParams(epsilon=eps),
                         0.0, 1.0)


def _line_search(problem, a, d):
    """timestepper._line_search from a along d, as the stepper calls it:
    with the residual and point at a, and CG's residual -r - J d for d,
    J the Newton matrix at a."""
    r, point = problem.evaluate(a)
    jac = problem.newton_matrix(point)
    return timestepper._line_search(problem, jac, a, d, r, -r - jac @ d,
                                    point)


# Largest |carried - fresh| residual entry over the largest fresh one,
# in the overshoot test below: 2.1e-16.  The bound leaves a factor of
# about 50 for other platforms' rounding.
CARRIED_RTOL = 1e-14


def test_line_search_keeps_a_passing_full_step():
    problem = _convex_gradient(1e-2, 3)
    a = np.array([2.0, 3.0, 1.5])
    d = 1.0 - a                      # exact minimizer: the penalty is off
    base = a.copy()
    out, extra = _line_search(problem, a, d)
    assert extra == 0
    assert np.array_equal(a, base + d)
    assert not out[0].any()


def test_line_search_brackets_an_overshoot():
    # a unit step lands deep in the stiff penalty: regula falsi must come
    # back to a point whose slope passes the two-sided test; the
    # residual it carries there is the fresh residual at the moved a
    problem = _convex_gradient(1e-4, 2)
    a = np.array([2.0, 2.0])
    d = np.array([-3.0, -2.5])
    slope0 = problem.evaluate(a)[0] @ d
    out, extra = _line_search(problem, a, d)
    assert 0 < extra < timestepper._LS_MAX_EVALS - 1
    fresh, point = problem.evaluate(a)
    assert np.array_equal(out[1][1], point[1])
    assert (np.abs(out[0] - fresh).max()
            <= CARRIED_RTOL * np.abs(fresh).max())
    assert abs(out[0] @ d) <= timestepper._LS_ETA * abs(slope0)


def test_line_search_keeps_trials_inside_the_bracket(monkeypatch):
    # phi'(s) = 100*s - 1: the unit step overshoots, and regula falsi's
    # next trial, 0.01, lies next to the bracket's end, so it moves a
    # tenth of the bracket inside it, to 0.1; from [0, 0.1] the Illinois
    # step (the kept end's slope halved) lands on 0.01 itself, where the
    # slope is 0; the crack's one point opens along d, its force zero,
    # and each evaluation of the laws is at the jump s
    trials = []
    recover = interface.recover_tractions

    def law(crack, params):
        trials.append(float(crack[0][0, 0]))
        return recover(crack, params)
    monkeypatch.setattr(interface, "recover_tractions", law)
    problem = crack_problem([[100.0]], -np.ones(1), np.ones((2, 1)),
                            np.zeros((1, 2)), 0.0, ContactParams(), 0.0, 1.0)
    a = np.zeros(1)
    out, extra = _line_search(problem, a, np.ones(1))
    assert trials[1:] == pytest.approx([1.0, 0.1, 0.01], rel=1e-12)
    assert extra == 2 and abs(out[0][0]) <= 1e-12


def test_line_search_rejects_ascent_and_nonfinite_slopes():
    problem = _convex_gradient(1e-2, 2)
    a = np.array([0.5, 0.5])
    for d in (np.array([-1.0, -1.0]), np.array([0.0, 0.0])):
        assert _line_search(problem, a.copy(), d) is None
    # descent at 0, but the unit step overflows the slope
    d = np.array([1e300, 0.0])
    with np.errstate(over="ignore"):
        assert _line_search(problem, a.copy(), d) is None


def test_nonfinite_state_is_not_accepted():
    # a residual that overflows makes the Newton tolerance inf; the step
    # must fail rather than pass the convergence test with 0 iterations
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    params = TimeParams(t_end=0.1, dt=0.1)
    for bad in (1e308, np.nan):
        u = ops.dofmap.zero_constrained(np.full(n, bad))
        state = State(0.0, u, np.zeros(n), np.zeros(n))
        with pytest.raises(StepFailure):
            step(state, 0.1, ops, params)


def test_nonfinite_load_fails_at_once():
    ops = make_ops(nx=4, ny=2, f=(ex.parse("0"),
                                  ex.parse("exp(800*t)*1e-300")))
    n = ops.dofmap.ndof
    state = State(0.9, np.zeros(n), np.zeros(n), np.zeros(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure, match="load is not finite") as err:
            step(state, 1.0, ops, TimeParams(t_end=1.0, dt=0.1))
    assert err.value.dt == 0.1 and err.value.iterations == 0


def test_load_of_overflowing_norm_fails_at_once():
    # finite entries whose norm overflows: no halving of the step can help
    ops = make_ops(nx=4, ny=2, f=(ex.parse("0"), ex.parse("1e300")))
    assert np.isfinite(ops.load(0.05)).all()
    n = ops.dofmap.ndof
    state = State(0.0, np.zeros(n), np.zeros(n), np.zeros(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure,
                           match="load norm is not finite at t=0.05") as err:
            step(state, 0.1, ops, TimeParams(t_end=1.0, dt=0.1))
    assert err.value.dt == 0.1 and err.value.iterations == 0


def test_gamma_zero_contact_ignores_displacement():
    ops = make_ops(gamma=0.0)
    rng = np.random.default_rng(21)
    v = rng.standard_normal(ops.quad.crack_dofs.size)
    ua = rng.standard_normal(v.size)
    ub = rng.standard_normal(v.size)
    def contact_forces(u):
        crack = interface.crack_state(u, v, 0.0, ops.contact, ops.quad)
        sigma_n, sigma_t = interface.recover_tractions(crack, ops.contact)
        return crack_forces(sigma_n, np.zeros_like(sigma_t), ops.quad)
    ra = contact_forces(ua)
    rb = contact_forces(ub)
    assert np.array_equal(ra, rb)


class _Counted:
    """Forwards ``a @ x`` (and anything else) to a, counting the
    products under name."""

    def __init__(self, a, counts, name):
        self.a, self.counts, self.name = a, counts, name

    def __matmul__(self, x):
        self.counts[self.name] += 1
        return self.a @ x

    def __getattr__(self, attr):
        return getattr(self.a, attr)


def test_newton_iteration_evaluates_the_crack_once(monkeypatch):
    # one impact step: the residual's linear part is evaluated twice, at
    # the start and on the accepted unknowns, and each evaluation and each
    # CG iteration makes one product with the step size's one CSR matrix;
    # M and K are applied only in the interval's constant, the crack
    # state of the weighted state is formed and g sampled once, for the
    # step's one t_w, and each Newton iteration builds one contact
    # tangent from its point and writes the derivatives into the matrix
    # once; a crack force, one per residual evaluated afresh, makes one
    # product with B and one with B^T (the line searches' products are
    # counted on stiff below)
    problem = config_mod.build_problem(impact_config())
    ops, params = problem.ops, problem.config.time
    state = ops.initial_state(problem.u0, problem.v0)
    counts = collections.Counter()
    matrices = ops.linear_jacobian(*_jac_key(params, params.dt))
    matrices.matrix = _Counted(matrices.matrix, counts, "lin")
    for name in ("mass", "stiffness"):
        monkeypatch.setattr(ops, name, _Counted(getattr(ops, name), counts,
                                                name))
    for name in ("jumps", "jumps_t"):
        monkeypatch.setattr(ops.basis, name, _Counted(
            getattr(ops.basis, name), counts, name))
    for owner, name in ((interface, "crack_state"),
                        (interface, "friction_bound_values"),
                        (interface, "contact_tangent"),
                        (StepMatrix, "update")):
        def spy(*args, _f=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    def interval(*args, _f=ops.interval):
        problem = _f(*args)

        def force(x_c, _f=problem.force):
            counts["force"] += 1
            return _f(x_c)

        def linear(x, _f=problem.linear):
            counts["linear"] += 1
            return _f(x)
        problem.force, problem.linear = force, linear
        return problem

    monkeypatch.setattr(ops, "interval", interval)
    solve = fem.solve_spd
    monkeypatch.setattr(fem, "solve_spd", lambda a, *args, **kw: solve(
        _Counted(a, counts, "cg"), *args, **kw))
    _, info = step(state, params.dt, ops, params)
    assert info.iterations >= 2 and info.substeps == 1
    assert counts["force"] == counts["linear"] == 2
    assert counts["lin"] == counts["linear"] + counts["cg"]
    assert counts["mass"] == counts["stiffness"] == 1
    assert counts["friction_bound_values"] == 1      # one t_w per interval
    assert counts["crack_state"] == 1
    assert counts["contact_tangent"] == info.iterations
    assert counts["update"] == info.iterations
    assert counts["jumps"] == counts["jumps_t"] == (
        counts["force"] + info.iterations)


def test_line_search_trial_evaluates_the_laws_alone(monkeypatch):
    # on stiff (gamma 10, epsilon 1e-4) to t = 0.1, whose line searches
    # take up to six trials: within each Newton iteration's line search
    # every trial evaluates the laws once (recover_tractions) and makes
    # no sparse product; the line makes one product with B, for B d, and
    # the kept trial one with B^T, however many trials there are
    problem = config_mod.build_problem(dataclasses.replace(
        impact_config(gamma=10.0, epsilon=1e-4),
        time=TimeParams(t_end=0.1, dt=2.5e-3)))
    ops = problem.ops
    counts = collections.Counter()
    for name in ("jumps", "jumps_t"):
        monkeypatch.setattr(ops.basis, name, _Counted(
            getattr(ops.basis, name), counts, name))
    recover = interface.recover_tractions

    def law(*args):
        counts["law"] += 1
        return recover(*args)
    monkeypatch.setattr(interface, "recover_tractions", law)
    line_search = timestepper._line_search
    searches = []

    def spy(*args):
        counts.clear()
        out = line_search(*args)
        searches.append((1 + out[1], dict(counts)))
        return out
    monkeypatch.setattr(timestepper, "_line_search", spy)
    for _ in run(ops, problem.config.time, problem.u0, problem.v0):
        pass
    assert max(trials for trials, _ in searches) >= 3
    for trials, made in searches:
        assert made == {"law": trials, "jumps": 1, "jumps_t": 1}


def _impact_case(gamma, g, t_end=0.5):
    """(ops, params, u0, v0) of the impact problem at gamma with friction
    bound g."""
    cfg = impact_config(gamma=gamma)
    cfg = dataclasses.replace(
        cfg, contact=dataclasses.replace(cfg.contact, g=ex.parse(g)),
        time=dataclasses.replace(cfg.time, t_end=t_end))
    problem = config_mod.build_problem(cfg)
    return problem.ops, cfg.time, problem.u0, problem.v0


def _bisected_case():
    """(ops, params, u0, v0) of one step that Newton fails on whole and
    solves in 31 substeps."""
    ops = make_ops(epsilon=1e-3, g="0.05")
    v0 = crack_plus_velocity(ops, (0.0, -0.3))
    params = TimeParams(t_end=0.02, dt=0.02, newton_maxit=6)
    return ops, params, np.zeros_like(v0), v0


def _cases():
    return {"impact-0-0": lambda: _impact_case(0.0, "0"),
            "impact-0-0.05": lambda: _impact_case(0.0, "0.05"),
            "impact-10-0": lambda: _impact_case(10.0, "0"),
            "impact-10-0.05": lambda: _impact_case(10.0, "0.05"),
            "bisected": _bisected_case}


def _run_quietly(ops, params, u0, v0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        return unzip(run(ops, params, u0, v0))


# Largest |carried - fresh| residual entry over the largest entry of the
# terms r sums (the constant, L a, the crack force and J d), measured
# over the cases below: 8.5e-16 on the impacts and 3.4e-13 on the
# bisected step, whose CG runs long on stiff tangents.  The bound leaves
# a factor of about 3 above the largest.
CARRIED_ROUNDING = 1e-12
# Largest |carried - fresh| jump over the largest jump, and weighted
# traction over the largest traction, of the point the line search
# carries, over the same cases: 3.4e-16 and 8.2e-16 on the impacts, and
# 4.5e-14 and 5.1e-13 on the bisected step, where epsilon = 1e-3 makes
# the contact traction amplify the jumps' rounding.  The bound leaves a
# factor of about 8 above the largest.
CARRIED_POINT_ROUNDING = 4e-12


@pytest.mark.parametrize("case", list(_cases()))
def test_carried_residual_is_the_fresh_residual(monkeypatch, case):
    # at every Newton iteration the residual the line search carries from
    # CG's own residual and the crack's remainder equals, to rounding,
    # the residual evaluated afresh at the moved unknowns, and so do the
    # jumps and tractions of the point it hands on, carried as
    # j + s*c*(B d)
    ops, params, u0, v0 = _cases()[case]()
    gaps, jumps, tractions = [], [], []
    line_search = timestepper._line_search

    def spy(problem, jac, a, d, r, r_cg, point):
        out = line_search(problem, jac, a, d, r, r_cg, point)
        if out is not None:
            (carried, (j, tau)), _ = out
            fresh, (fresh_j, fresh_tau) = problem.evaluate(a)
            const = problem.linear(np.zeros_like(a))
            terms = (const, problem.linear(a) - const,
                     problem.force(a[problem.crack])[0], jac @ d)
            gaps.append(np.abs(carried - fresh).max()
                        / max(np.abs(x).max(initial=0.0) for x in terms))
            jumps.append(np.abs(j - fresh_j).max(initial=0.0)
                         / max(np.abs(fresh_j).max(initial=0.0), 1e-300))
            tractions.append(np.abs(tau - fresh_tau).max(initial=0.0)
                             / max(np.abs(fresh_tau).max(initial=0.0), 1e-300))
        return out
    monkeypatch.setattr(timestepper, "_line_search", spy)
    _, infos = _run_quietly(ops, params, u0, v0)
    # a failed substep's iterations are checked too
    assert len(gaps) >= sum(info.iterations for info in infos) > 0
    assert max(gaps) <= CARRIED_ROUNDING
    assert max(jumps) <= CARRIED_POINT_ROUNDING
    assert max(tractions) <= CARRIED_POINT_ROUNDING


@pytest.mark.parametrize("case", ["impact-10-0.05", "bisected"])
def test_accepted_residual_is_fresh(monkeypatch, case):
    # a step is accepted on a residual evaluated afresh at its accepted
    # unknowns: StepInfo.residual is its norm bit for bit, the largest
    # over a bisected step's substeps
    ops, params, u0, v0 = _cases()[case]()
    accepted = []       # per step, the fresh |r| of each accepted substep
    interval, step_ = timestepper._interval, timestepper.step

    def spy_interval(*args):
        problem, load_norm, end = interval(*args)

        def checked(x):
            accepted[-1].append(float(np.linalg.norm(problem.evaluate(x)[0])))
            return end(x)
        return problem, load_norm, checked

    def spy_step(*args):
        accepted.append([])
        return step_(*args)
    monkeypatch.setattr(timestepper, "_interval", spy_interval)
    monkeypatch.setattr(timestepper, "step", spy_step)
    _, infos = _run_quietly(ops, params, u0, v0)
    assert [len(a) for a in accepted] == [i.substeps for i in infos]
    assert [max(a) for a in accepted] == [i.residual for i in infos]
    assert any(i.iterations for i in infos)


def test_products_outside_cg_are_constant_per_step(monkeypatch):
    # on stiff (gamma 10, epsilon 1e-4), where Newton takes from one to
    # many iterations and line searches, a step makes four sparse
    # products outside CG however many iterations it takes: M and K once
    # each in the interval's constant, and the linear part on the start
    # and on the accepted unknowns; once the run's history holds two
    # accelerations, a fifth evaluates the residual at the predictor
    problem = config_mod.build_problem(dataclasses.replace(
        impact_config(gamma=10.0, epsilon=1e-4),
        time=TimeParams(t_end=0.1, dt=2.5e-3)))
    ops = problem.ops
    counts = collections.Counter()
    for name in ("mass", "stiffness"):
        monkeypatch.setattr(ops, name, _Counted(getattr(ops, name), counts,
                                                "outside"))

    def linear_jacobian(ca, cu, _f=ops.linear_jacobian):
        matrices = _f(ca, cu)
        if not isinstance(matrices.matrix, _Counted):
            matrices.matrix = _Counted(matrices.matrix, counts, "outside")
        return matrices
    monkeypatch.setattr(ops, "linear_jacobian", linear_jacobian)
    solve = fem.solve_spd

    def counted(a, *args, **kw):
        before = counts["outside"]
        out = solve(a, *args, **kw)
        counts["cg"] += counts["outside"] - before
        counts["outside"] = before
        return out
    monkeypatch.setattr(fem, "solve_spd", counted)
    per_step, infos = [], []
    for _, info in run(ops, problem.config.time, problem.u0, problem.v0):
        if info is not None:
            infos.append(info)
            per_step.append(counts["outside"])
        counts.clear()
    assert all(info.substeps == 1 for info in infos)
    assert len({info.iterations for info in infos}) >= 3
    assert sum(info.line_search for info in infos) > 0
    assert per_step == [4, 4] + [5] * (len(infos) - 2)


def test_no_csr_product_goes_through_scipys_dispatch(monkeypatch):
    # every CSR product of a run's steps and records is fem.matvec, which
    # calls scipy's kernel without the Python dispatch of ``@``; the t = 0
    # mass solve, fem.solve_spd on a CSR matrix, is the one that still
    # passes through it, and shows that the count is live
    problem = config_mod.build_problem(dataclasses.replace(
        impact_config(), time=TimeParams(t_end=0.05, dt=2.5e-3)))
    calls = collections.Counter()

    def counted(self, other, _f=_cs_matrix._matmul_vector):
        calls["dispatch"] += 1
        return _f(self, other)
    monkeypatch.setattr(_cs_matrix, "_matmul_vector", counted)
    infos = []

    def on_record(state, rec, info):
        if info is None:
            assert calls["dispatch"] > 0
            calls.clear()
        else:
            infos.append(info)
    diagnostics.run_with_records(problem, on_record)
    assert len(infos) == 20
    assert calls["dispatch"] == 0


@pytest.mark.parametrize("case", ["impact-0-0.05", "bisected"])
def test_step_info_counts_cg_iterations(monkeypatch, case):
    # StepInfo.cg_iterations is the products CG made inside fem.solve_spd
    # over the substeps the step accepted, like its iterations
    ops, params, u0, v0 = _cases()[case]()
    params = dataclasses.replace(params, t_end=min(params.t_end, 0.05))
    counts = collections.Counter()
    solve, substep = fem.solve_spd, timestepper._solve_substep
    monkeypatch.setattr(fem, "solve_spd", lambda a, *args, **kw: solve(
        _Counted(a, counts, "cg"), *args, **kw))

    def spy_substep(*args, **kwargs):
        before = counts["cg"]
        new, info = substep(*args, **kwargs)
        counts["attempted"] += counts["cg"] - before
        if new is not None:
            counts["accepted"] += counts["cg"] - before
        return new, info
    monkeypatch.setattr(timestepper, "_solve_substep", spy_substep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        state = ops.initial_state(u0, v0)
    info = None
    for k in range(1, round(params.t_end / params.dt) + 1):
        counts.clear()
        state, info = step(state, k * params.dt, ops, params, info)
        assert info.cg_iterations == counts["accepted"] > 0
        assert (counts["attempted"] > counts["accepted"]) == (
            info.substeps > 1)


LOADED_TEXT = """\
[mesh]
kind = rect
width = 2.0
height = 1.0
nx = 8
ny = 4
crack_lo = 0.25
crack_hi = 0.75

[material]
lambda = 1.0
mu = 1.0
rho = 2.0

[contact]
gamma = 1.0
g = 0.05*(1 + 0.5*sin(6*t))*(1 + 0.2*cos(3*x))

[time]
t_end = 0.05
dt = 1e-2

[data]
f = (0.2*sin(9*t)*exp(-((x-0.7)^2 + (y-0.3)^2)/0.05), -0.5*sin(12*t))
F = (0.05*cos(7*t)*x*(2-x), -0.3*(1 - cos(10*t))*sin(1.5707963*x))
"""


def test_loads_and_g_are_bound_once_per_problem(monkeypatch):
    # set-up binds f, F and g to their quadrature points; a run then
    # binds nothing, recomputes no cell geometry, and
    # evaluates each load component and g once per time it needs them
    problem = config_mod.build_problem(
        config_mod.parse_config_text(LOADED_TEXT))
    ops, params = problem.ops, problem.config.time
    counts = collections.Counter()
    for module, name in ((fem, "_cell_geometry"), (ex, "evaluate"),
                         (ex, "bind"), (interface, "friction_bound_values")):
        def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    def load(t, _f=ops.load):
        counts["load"] += 1
        return _f(t)
    monkeypatch.setattr(ops, "load", load)
    _, infos = unzip(run(ops, params, problem.u0, problem.v0))
    assert [info.substeps for info in infos] == [1] * 5
    assert counts["_cell_geometry"] == counts["bind"] == 0
    assert counts["load"] == counts["friction_bound_values"] == 1 + 5
    assert counts["evaluate"] == 4 * counts["load"] + counts[
        "friction_bound_values"]


def test_gradients_are_computed_once_per_problem(monkeypatch):
    # the mass and the body load need the cell areas alone: the basis
    # gradients are computed once, for the stiffness
    calls = []

    def spy(mesh, _f=fem._cell_geometry):
        calls.append(mesh)
        return _f(mesh)
    monkeypatch.setattr(fem, "_cell_geometry", spy)
    problem = config_mod.build_problem(
        config_mod.parse_config_text(LOADED_TEXT))
    form = problem.ops.load_form
    assert form.body is not None and form.traction is not None
    assert len(calls) == 1


# Largest |r - force balance| over the largest |force balance| entry,
# measured over the cases below: 4.7e-16 (4.4e-16 before the Newton
# unknowns moved to the crack basis).  The bound leaves a factor of
# about 20 for other platforms' rounding.
BALANCE_RTOL = 1e-14


@pytest.mark.parametrize("g", [None, "0.05", "0.05*(1 + t)*(1 + 0.2*x)"])
@pytest.mark.parametrize("gamma", [0.0, 10.0])
def test_interval_residual_is_the_force_balance(gamma, g):
    # at random a+, the interval's residual (a constant, one free-dof
    # product and the crack forces) is M a_w + K u_w + contact + friction
    # - load on the free dofs in the crack basis, with the weighted state
    # formed in full from the Newmark end state; a g that varies in t
    # must be sampled at t_w
    ops = make_ops(gamma=gamma, g=g or "0",
                   f=(ex.parse("0.3"), ex.parse("-0.5*t")))
    rng = np.random.default_rng(59)
    state = _penetrating_state(ops, rng, t=0.1)
    free, cd = ops.dofmap.free, ops.quad.crack_dofs
    dt = 0.05
    for b, gn in ((0.25, 0.5), (0.3025, 0.6)):
        params = TimeParams(t_end=1.0, dt=dt, newmark_b=b, newmark_g=gn)
        problem, _, _ = timestepper._interval(state, dt, ops, params)
        for _ in range(3):
            a = rng.standard_normal(free.size)
            r, _ = problem.evaluate(a)
            a_end = ops.nodal(a)
            u_end = state.u + dt * state.v + dt * dt * (
                (0.5 - b) * state.a + b * a_end)
            v_end = state.v + dt * ((1.0 - gn) * state.a + gn * a_end)
            u_w, v_w, a_w = ((1.0 - gn) * x + gn * y for x, y in (
                (state.u, u_end), (state.v, v_end), (state.a, a_end)))
            t_w = state.t + gn * dt
            crack = interface.crack_state(u_w[cd], v_w[cd], t_w, ops.contact,
                                          ops.quad)
            balance = ops.mass @ a_w + ops.stiffness @ u_w - ops.load(t_w)
            sigma_n, sigma_t = interface.recover_tractions(crack, ops.contact)
            balance[cd] += crack_forces(sigma_n, sigma_t, ops.quad)
            balance = ops.unknowns(balance)
            scale = np.abs(balance).max()
            assert np.abs(r - balance).max() <= BALANCE_RTOL * scale


def _friction_interval(seed):
    """An interval at a penetrating, slipping state under friction, and
    the crack state of its residual at a random a+: (ops, problem, a, r,
    crack, cv)."""
    ops = make_ops(gamma=1.0, g="0.05*(1 + x)")
    rng = np.random.default_rng(seed)
    state = _penetrating_state(ops, rng, t=0.1)
    params = TimeParams(t_end=1.0, dt=0.05)
    problem, _, _ = timestepper._interval(state, params.dt, ops, params)
    a = rng.standard_normal(ops.free.size)
    r, point = problem.evaluate(a)
    g = interface.friction_bound_values(
        ops.contact, ops.quad, state.t + params.newmark_g * params.dt)
    crack = (point[0][..., 0], point[0][..., 1], g)
    cv = params.newmark_g ** 2 * params.dt
    return ops, problem, a, r, (point, crack), cv


def test_interval_residual_takes_friction_from_recover_tractions(
        monkeypatch):
    # the law is evaluated in one place: doubling the tangential traction
    # recover_tractions gives moves the residual by exactly one more set
    # of friction forces, to rounding
    ops, problem, a, r, (_, crack), _ = _friction_interval(61)
    recover = interface.recover_tractions
    sigma_n, sigma_t = recover(crack, ops.contact)
    extra = np.zeros(ops.dofmap.ndof)
    extra[ops.quad.crack_dofs] = crack_forces(np.zeros_like(sigma_n),
                                              sigma_t, ops.quad)
    extra = ops.unknowns(extra)
    assert np.abs(extra).max() > 1e-3 * np.abs(r).max()

    def doubled(*args):
        sigma_n, sigma_t = recover(*args)
        return sigma_n, 2.0 * sigma_t
    monkeypatch.setattr(interface, "recover_tractions", doubled)
    moved, _ = problem.evaluate(a)
    assert np.abs(moved - r - extra).max() <= BALANCE_RTOL * np.abs(r).max()


def test_newton_matrix_takes_friction_derivative_from_dalpha_eps(
        monkeypatch):
    # the derivative verify's regularization-gradients check guards is
    # the one Newton uses: dalpha_eps off by 1 % moves the Newton matrix
    # by 1 % of its friction part, R F R^T with F the friction tangent on
    # the crack dofs
    ops, problem, _, _, (point, crack), cv = _friction_interval(62)
    eye = np.eye(ops.free.size)
    op = problem.newton_matrix(point)
    crack_part = op @ eye - op.linear() @ eye
    cd = ops.quad.crack_dofs
    nodal = np.zeros((ops.dofmap.ndof, ops.dofmap.ndof))
    nodal[np.ix_(cd, cd)] = crack_block(ops.quad, friction=(
        interface.friction_tangent(crack, ops.contact, ops.quad.weights,
                                   cv)))
    r = basis_matrix(ops)
    friction = r @ nodal @ r.T
    assert np.abs(friction).max() > 0.0
    dalpha = interface.dalpha_eps
    monkeypatch.setattr(interface, "dalpha_eps",
                        lambda x, eps: 1.01 * dalpha(x, eps))
    moved = problem.newton_matrix(point) @ eye - op.linear() @ eye
    assert (np.abs(moved - crack_part - 0.01 * friction).max()
            <= BALANCE_RTOL * np.abs(crack_part).max())


def test_line_search_give_up_ends_in_step_failure(monkeypatch):
    # every Newton direction points uphill: each substep's line search
    # gives up at once, and after five halvings step raises instead of
    # returning a state
    problem = config_mod.build_problem(impact_config())
    ops, params = problem.ops, problem.config.time
    state = ops.initial_state(problem.u0, problem.v0)
    a0 = state.a.copy()
    solves = []

    def uphill(*args, _f=fem.solve_spd, **kwargs):
        solves.append(1)
        solution = _f(*args, **kwargs)
        return solution._replace(x=-solution.x)

    monkeypatch.setattr(timestepper.fem, "solve_spd", uphill)
    with pytest.raises(StepFailure) as err:
        step(state, params.dt, ops, params)
    assert len(solves) == 6
    assert str(err.value).startswith(
        "Newton stalled at t=0 with dt=7.813e-05 after 5 halvings")
    assert err.value.iterations == 1
    assert state.t == 0.0 and np.array_equal(state.a, a0)
