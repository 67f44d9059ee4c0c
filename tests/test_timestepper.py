import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (crack_block, impact_config, reference_jumps, turned,
                      unzip)
from oracles import DiagonalJacobian

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
    # share of the product, and they are its tangent_product on the
    # crack unknowns and zero off them
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
        _, _, point = problem.evaluate(a)
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
            tz[problem.crack] = op.tangent_product(z[problem.crack])
            assert (np.abs(tz - crack_part).max()
                    <= 1e-13 * np.abs(ref).max())


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
         + (1/(g*dv))*int g_T*phi_eps(v_t)

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
    pi += (quad.weights * g_t * interface.phi_eps(jt, contact.epsilon)
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
    r, _, point = problem.evaluate(a)
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
    r, f, point = problem.evaluate(a)
    op = problem.newton_matrix(point)
    assert op.nonlinear
    d, r_cg, _ = fem.solve_spd(op, -r, tol=tol, full_output=True)
    assert np.linalg.norm(op @ d + r) <= tol * np.linalg.norm(r)
    assert r @ d < 0.0
    out = timestepper._line_search(problem, op, a, d, r, r_cg, f)
    assert out is not None


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
    handed, _ = step(states[-2], states[-1].t, ops, params, infos[-2])
    assert tols[first] == min(0.1, max(1e-6, 0.1 * rho))
    assert np.array_equal(handed.u, states[-1].u)


def test_small_epsilon_cg_work(monkeypatch):
    # the benchmark's stiff problem (gamma 10, eps 1e-4, 100 steps): 4,611
    # CG products with adaptive forcing terms against 8,853 with every
    # system solved to 1e-6, and 644 Newton iterations against 639.  The
    # CG bound leaves 8 % above the measured count; Newton may cost at
    # most 2 % more than with fixed forcing terms, and nothing bisects
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
    assert sum(info.iterations for info in infos) <= int(639 * 1.02)
    assert products[0] <= 5000


def test_impact_run_converges_with_inexact_solves(impact_runs):
    # loose CG solves must not cost Newton iterations or accept a step
    # above its tolerance (591 iterations with every solve at 1e-12)
    _, _, _, infos = impact_runs.get()
    assert all(info.residual <= info.tol_abs for info in infos)
    assert all(info.substeps == 1 for info in infos)
    assert sum(info.iterations for info in infos) <= 598


def _convex_gradient(eps, n):
    """The NewtonProblem of Pi(a) = |a - 1|^2/2 + sum psi_eps(a) on n
    unknowns, every one a crack unknown, with its crack force
    psi_eps' = beta_eps, whose point is the unknowns."""
    def force(x):
        return interface.beta_eps(x, eps), x.copy()

    def newton_matrix(x):
        return DiagonalJacobian(1.0, interface.dbeta_eps(x, eps))
    return timestepper.NewtonProblem(np.arange(n), lambda x: x - 1.0,
                                     force, newton_matrix)


def _line_search(problem, a, d):
    """timestepper._line_search from a along d, as the stepper calls it:
    with the residual and crack force at a, and CG's residual -r - J d
    for d, J the Newton matrix at a."""
    r, f, point = problem.evaluate(a)
    jac = problem.newton_matrix(point)
    return timestepper._line_search(problem, jac, a, d, r, -r - jac @ d, f)


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
    fresh, f, _ = problem.evaluate(a)
    assert np.array_equal(out[1], f)
    assert (np.abs(out[0] - fresh).max()
            <= CARRIED_RTOL * np.abs(fresh).max())
    assert abs(out[0] @ d) <= timestepper._LS_ETA * abs(slope0)


def test_line_search_keeps_trials_inside_the_bracket():
    # phi'(s) = 100*s - 1: the unit step overshoots, and regula falsi's
    # next trial, 0.01, lies next to the bracket's end, so it moves a
    # tenth of the bracket inside it, to 0.1; from [0, 0.1] the Illinois
    # step (the kept end's slope halved) lands on 0.01 itself, where the
    # slope is 0
    trials = []

    def force(x):
        trials.append(float(x[0]))
        return np.zeros(1), None
    problem = timestepper.NewtonProblem(
        np.arange(1), lambda x: 100.0 * x - 1.0, force,
        lambda point: DiagonalJacobian(100.0, 0.0))
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
        sigma_n, _ = interface.recover_tractions(crack, ops.contact)
        return ops.quad.scatter(interface.contact_residual(sigma_n, ops.quad))
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
    # each crack force evaluation, one per line-search trial, forms the
    # crack state once; M and K are applied only in the interval's
    # constant, g is sampled once for the step's one t_w, and each Newton
    # iteration builds one contact tangent from the crack state its last
    # trial formed and writes the tangents into the matrix once; the
    # tractions are recovered and the crack forces scattered once per
    # crack force
    problem = config_mod.build_problem(impact_config())
    ops, params = problem.ops, problem.config.time
    state = ops.initial_state(problem.u0, problem.v0)
    counts = collections.Counter()
    matrices = ops.linear_jacobian(*_jac_key(params, params.dt))
    matrices.matrix = _Counted(matrices.matrix, counts, "lin")
    for name in ("mass", "stiffness"):
        monkeypatch.setattr(ops, name, _Counted(getattr(ops, name), counts,
                                                name))
    for owner, name in ((interface, "crack_state"),
                        (interface, "friction_bound_values"),
                        (interface, "contact_tangent"),
                        (interface, "recover_tractions"),
                        (interface.CrackQuadrature, "scatter"),
                        (StepMatrix, "update")):
        def spy(*args, _f=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    def interval(*args, _f=ops.interval):
        problem = _f(*args)

        def force(x_c):
            counts["force"] += 1
            return problem.force(x_c)

        def linear(x):
            counts["linear"] += 1
            return problem.linear(x)
        return problem._replace(force=force, linear=linear)

    monkeypatch.setattr(ops, "interval", interval)
    solve = fem.solve_spd
    monkeypatch.setattr(fem, "solve_spd", lambda a, *args, **kw: solve(
        _Counted(a, counts, "cg"), *args, **kw))
    _, info = step(state, params.dt, ops, params)
    assert info.iterations >= 2 and info.substeps == 1
    assert counts["force"] == 1 + info.iterations + info.line_search
    assert counts["linear"] == 2
    assert counts["lin"] == counts["linear"] + counts["cg"]
    assert counts["mass"] == counts["stiffness"] == 1
    assert counts["friction_bound_values"] == 1      # one t_w per interval
    assert counts["crack_state"] == counts["force"]
    assert counts["contact_tangent"] == info.iterations
    assert counts["recover_tractions"] == counts["force"]
    assert counts["scatter"] == counts["force"]
    assert counts["update"] == info.iterations


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
# over the cases below: 1.0e-15 on the impacts and 1.3e-13 on the
# bisected step, whose CG runs long on stiff tangents.  The bound
# leaves a factor of about 8 above the largest.
CARRIED_ROUNDING = 1e-12


@pytest.mark.parametrize("case", list(_cases()))
def test_carried_residual_is_the_fresh_residual(monkeypatch, case):
    # at every Newton iteration the residual the line search carries from
    # CG's own residual and the crack force equals, to rounding, the
    # residual evaluated afresh at the moved unknowns; the crack force it
    # hands on is the fresh one bit for bit
    ops, params, u0, v0 = _cases()[case]()
    gaps = []
    line_search = timestepper._line_search

    def spy(problem, jac, a, d, r, r_cg, f):
        out = line_search(problem, jac, a, d, r, r_cg, f)
        if out is not None:
            (carried, force, _), _ = out
            fresh, fresh_force, _ = problem.evaluate(a)
            assert np.array_equal(force, fresh_force)
            const = problem.linear(np.zeros_like(a))
            terms = (const, problem.linear(a) - const, fresh_force, jac @ d)
            gaps.append(np.abs(carried - fresh).max()
                        / max(np.abs(x).max(initial=0.0) for x in terms))
        return out
    monkeypatch.setattr(timestepper, "_line_search", spy)
    _, infos = _run_quietly(ops, params, u0, v0)
    # a failed substep's iterations are checked too
    assert len(gaps) >= sum(info.iterations for info in infos) > 0
    assert max(gaps) <= CARRIED_ROUNDING


@pytest.mark.parametrize("case", ["impact-10-0.05", "bisected"])
def test_accepted_residual_is_fresh(monkeypatch, case):
    # a step is accepted on a residual evaluated afresh at its accepted
    # unknowns: StepInfo.residual is its norm bit for bit, the largest
    # over a bisected step's substeps
    ops, params, u0, v0 = _cases()[case]()
    accepted = []       # per step, the fresh |r| of each accepted substep
    interval, step_ = timestepper._interval, timestepper.step

    def spy_interval(*args):
        problem, load_w, end = interval(*args)

        def checked(x):
            accepted[-1].append(float(np.linalg.norm(problem.evaluate(x)[0])))
            return end(x)
        return problem, load_w, checked

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
    # and on the accepted unknowns
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
    assert per_step == [4] * len(infos)


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
            r, _, _ = problem.evaluate(a)
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
            balance[cd] += ops.quad.scatter(
                interface.contact_residual(sigma_n, ops.quad)
                + interface.friction_residual(sigma_t, ops.quad))
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
    r, _, crack = problem.evaluate(a)
    cv = params.newmark_g ** 2 * params.dt
    return ops, problem, a, r, crack, cv


def test_interval_residual_takes_friction_from_recover_tractions(
        monkeypatch):
    # the law is evaluated in one place: doubling the tangential traction
    # recover_tractions gives moves the residual by exactly one more set
    # of friction forces, to rounding
    ops, problem, a, r, crack, _ = _friction_interval(61)
    recover = interface.recover_tractions
    _, sigma_t = recover(crack, ops.contact)
    extra = np.zeros(ops.dofmap.ndof)
    extra[ops.quad.crack_dofs] = ops.quad.scatter(
        interface.friction_residual(sigma_t, ops.quad))
    extra = ops.unknowns(extra)
    assert np.abs(extra).max() > 1e-3 * np.abs(r).max()

    def doubled(*args):
        sigma_n, sigma_t = recover(*args)
        return sigma_n, 2.0 * sigma_t
    monkeypatch.setattr(interface, "recover_tractions", doubled)
    moved, _, _ = problem.evaluate(a)
    assert np.abs(moved - r - extra).max() <= BALANCE_RTOL * np.abs(r).max()


def test_newton_matrix_takes_friction_derivative_from_dalpha_eps(
        monkeypatch):
    # the derivative verify's regularization-gradients check guards is
    # the one Newton uses: dalpha_eps off by 1 % moves the Newton matrix
    # by 1 % of its friction part, R F R^T with F the friction tangent on
    # the crack dofs
    ops, problem, _, _, crack, cv = _friction_interval(62)
    eye = np.eye(ops.free.size)
    op = problem.newton_matrix(crack)
    crack_part = op @ eye - op.linear() @ eye
    cd = ops.quad.crack_dofs
    nodal = np.zeros((ops.dofmap.ndof, ops.dofmap.ndof))
    nodal[np.ix_(cd, cd)] = crack_block(interface.friction_tangent(
        crack, ops.contact, ops.quad, coeff_v=cv), ops.quad)
    r = basis_matrix(ops)
    friction = r @ nodal @ r.T
    assert np.abs(friction).max() > 0.0
    dalpha = interface.dalpha_eps
    monkeypatch.setattr(interface, "dalpha_eps",
                        lambda x, eps: 1.01 * dalpha(x, eps))
    moved = problem.newton_matrix(crack) @ eye - op.linear() @ eye
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
