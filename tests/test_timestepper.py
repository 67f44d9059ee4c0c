import collections
import dataclasses
import warnings

import numpy as np
import pytest
from conftest import impact_config, reference_jumps

from crackdyn import config as config_mod
from crackdyn import exprlang as ex
from crackdyn import diagnostics, fem, interface, timestepper
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
             g=None, f=None, trac=None, rho=1.0):
    mesh = generate_rect_crack(2.0, 1.0, nx, ny, crack_span=crack)
    material = Material(lam=1.0, mu=1.0, rho=rho)
    contact = ContactParams(gamma=gamma, epsilon=epsilon,
                            g=ex.parse(g) if isinstance(g, str) else g)
    return build_operators(mesh, material, contact, f=f, trac=trac)


def bump_field(ops):
    w = fem.interpolate(ops.mesh, (ex.parse("0"), ex.parse(BUMP)))
    return ops.dofmap.zero_constrained(w)


def crack_plus_velocity(ops, value):
    """Velocity with a prescribed jump across the crack (plus side only)."""
    w = np.zeros((ops.mesh.n_vertices, 2))
    w[np.unique(ops.quad.plus_vertices)] = value
    return ops.dofmap.zero_constrained(w.ravel())


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
    states, infos = run(ops, TimeParams(t_end=0.05, dt=0.01),
                        np.zeros(n), np.zeros(n))
    assert len(states) == 6
    for s in states:
        assert not s.u.any() and not s.v.any() and not s.a.any()
    assert all(info.iterations == 0 for info in infos)


def test_run_time_grid():
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    zero = np.zeros(n)
    states, infos = run(ops, TimeParams(t_end=0.25, dt=0.1), zero, zero)
    assert [s.t for s in states] == [0.0, 0.1, 0.2, 0.25]
    # t_end = 0 still yields the initial state
    states0, infos0 = run(ops, TimeParams(t_end=0.0, dt=0.1), zero, zero)
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
    states, infos = run(ops, TimeParams(t_end=0.5, dt=0.01),
                        u0, np.zeros_like(u0))
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
        states, _ = run(ops, TimeParams(t_end=0.4, dt=dt),
                        u0, np.zeros_like(u0))
        finals.append(states[-1].u.copy())
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    assert d1 / d2 == pytest.approx(4.0, rel=0.25)


def test_newton_meets_tolerance():
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    states, infos = run(ops, TimeParams(t_end=0.05, dt=5e-3),
                        u0, np.zeros_like(u0))
    for info in infos:
        assert info.residual <= info.tol_abs
        assert info.iterations <= 30


def test_run_is_deterministic():
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    params = TimeParams(t_end=0.05, dt=5e-3)
    sa, _ = run(ops, params, u0, np.zeros_like(u0))
    sb, _ = run(ops, params, u0, np.zeros_like(u0))
    for x, y in zip(sa, sb):
        assert np.array_equal(x.u, y.u)
        assert np.array_equal(x.v, y.v)
        assert np.array_equal(x.a, y.a)


def test_run_zeroes_constrained_initial_data():
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    ones = np.ones(n)
    states, _ = run(ops, TimeParams(t_end=0.01, dt=0.01), ones, ones)
    assert not states[0].u[ops.dofmap.constrained].any()
    assert not states[0].v[ops.dofmap.constrained].any()


def test_on_step_streaming():
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    seen = []
    run(ops, TimeParams(t_end=0.03, dt=0.01), np.zeros(n), np.zeros(n),
        on_step=lambda s, info: seen.append((s.t, info)))
    assert [t for t, _ in seen] == [0.0, 0.01, 0.02, 0.03]
    assert seen[0][1] is None
    assert all(info is not None for _, info in seen[1:])


def test_step_rejects_backward_target():
    ops = make_ops(nx=4, ny=2)
    n = ops.dofmap.ndof
    state = State(1.0, np.zeros(n), np.zeros(n), np.zeros(n))
    with pytest.raises(ValueError, match="t_next"):
        step(state, 1.0, ops, TimeParams(t_end=1.0, dt=0.1))


def test_step_failure_carries_diagnostics():
    # nearly rigid contact plus a one-iteration Newton budget cannot
    # converge; the halving cascade must stop with a StepFailure
    ops = make_ops(epsilon=1e-9, g=None)
    u0 = np.zeros(ops.dofmap.ndof)
    v0 = crack_plus_velocity(ops, (0.0, -1.0))
    params = TimeParams(t_end=0.1, dt=0.05, newton_maxit=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        with pytest.raises(StepFailure) as err:
            run(ops, params, u0, v0)
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
        states, infos = run(ops, params, u0, v0)
    assert states[-1].t == pytest.approx(0.02)
    assert infos[0].substeps >= 2


def test_contact_dissipates_energy():
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    states, _ = run(ops, TimeParams(t_end=0.2, dt=5e-3),
                    u0, np.zeros_like(u0))
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
    lin, diag = j1
    nfree = ops.dofmap.free.size
    assert lin.shape == (nfree, nfree)
    assert np.array_equal(diag, lin.diagonal())
    # at g = 1/2, ca*M + cu*K is g*(M + b*dt^2*K) bit for bit
    assert np.array_equal(lin.toarray(), ops.pin(
        0.5 * (ops.mass + (0.25 * 0.1 * 0.1) * ops.stiffness)).toarray())
    j3 = ops.linear_jacobian(*_jac_key(params, 0.05))
    assert j3 is not j1


def test_linear_jacobian_one_key_per_step_size():
    # k*dt - (k-1)*dt differs from dt in the last bits; full steps must
    # still share one cached linear Jacobian, and halved steps use exact
    # halves of dt
    ops = make_ops(g="0.05")
    u0 = bump_field(ops)
    params = TimeParams(t_end=0.1, dt=2.5e-3)
    _, infos = run(ops, params, u0, np.zeros_like(u0))
    assert all(info.substeps == 1 for info in infos)
    assert list(ops._jac_cache) == [_jac_key(params, params.dt)]

    ops = make_ops(epsilon=1e-3, g="0.05")
    v0 = crack_plus_velocity(ops, (0.0, -0.3))
    params = TimeParams(t_end=0.04, dt=0.02, newton_maxit=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        _, infos = run(ops, params, np.zeros_like(v0), v0)
    assert infos[0].substeps >= 2
    halves = {_jac_key(params, params.dt / 2 ** j) for j in range(6)}
    assert set(ops._jac_cache) <= halves


def _penetrating_state(ops, rng, t=0.0):
    """Random state whose crack faces interpenetrate and slip."""
    plus = np.unique(ops.quad.plus_vertices)
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
    # the free-dof Newton operator applied to z equals the central
    # difference of the step residual along z, restricted to free dofs
    if tip_on_dirichlet:
        mesh = _tip_on_dirichlet_mesh(tmp_path)
    else:
        mesh = generate_rect_crack(2.0, 1.0, 8, 4, crack_span=(0.25, 0.75))
    contact = ContactParams(gamma=gamma, epsilon=1e-2,
                            g=None if g is None else ex.parse(g))
    ops = build_operators(mesh, Material(lam=1.0, mu=1.0, rho=1.0), contact)
    quad = ops.quad
    face = np.unique(np.concatenate([quad.plus_vertices, quad.minus_vertices]))
    face_dofs = (face[:, None] * 2 + np.arange(2)).ravel()
    assert ops.dofmap.constrained[face_dofs].any() == tip_on_dirichlet
    assert not ops.dofmap.constrained[quad.crack_dofs].any()

    rng = np.random.default_rng(31)
    state = _penetrating_state(ops, rng)
    free = ops.dofmap.free
    # the default pair and a dissipative one, whose g is not a power of 2
    for b, gn in ((0.25, 0.5), (0.3025, 0.6)):
        residual, newton_matrix, _, _ = timestepper._interval(
            state, 0.05, ops, TimeParams(t_end=1.0, dt=0.05, newmark_b=b,
                                         newmark_g=gn))
        a = rng.standard_normal(free.size)
        _, point = residual(a)
        op = newton_matrix(point)
        assert np.array_equal(op.diagonal(), np.diagonal(
            op.lin.toarray()) + np.bincount(quad.crack_free,
                                            np.diagonal(op.block), free.size))
        h = 1e-5
        for _ in range(3):
            z = rng.standard_normal(a.size)
            fd = (residual(a + h * z)[0] - residual(a - h * z)[0]) / (2 * h)
            ref = op @ z
            assert np.abs(fd - ref).max() <= 1e-6 * np.abs(ref).max()
            # the crack block carries a visible share of the product
            assert (np.abs(fd - op.lin @ z).max()
                    >= 1e-3 * np.abs(ref).max())


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
    jn, jt = reference_jumps(v_w, quad)
    un, _ = reference_jumps(u_w, quad)
    s = contact.gamma * un + jn
    pi += (quad.weights * interface.psi_eps(s, contact.epsilon)).sum() / (
        g * (contact.gamma * du + dv))
    if contact.g is not None:
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
    ops = make_ops(gamma=gamma, g=g, f=(ex.parse("0.3"), ex.parse("-0.5*t")))
    rng = np.random.default_rng(47)
    state = _penetrating_state(ops, rng, t=0.1)
    dt = 0.05
    params = TimeParams(t_end=1.0, dt=dt, newmark_b=newmark_b)
    residual, newton_matrix, _, _ = timestepper._interval(state, dt, ops,
                                                          params)
    free = ops.dofmap.free
    a = rng.standard_normal(free.size)
    r, point = residual(a)
    d = fem.solve_spd(newton_matrix(point), -r, tol=1e-12)
    slope = r @ d
    assert slope < 0.0
    h = 1e-5
    full = np.zeros(ops.dofmap.ndof)
    pi = []
    for x in (a + h * d, a - h * d):
        full[free] = x
        pi.append(_step_potential(state, dt, ops, params, full))
    assert (pi[0] - pi[1]) / (2 * h) == pytest.approx(slope, rel=1e-8)


@pytest.mark.parametrize("tol", [1e-1, 1e-3, timestepper._CG_FORCING])
def test_loosely_solved_newton_direction_descends(tol):
    # any CG iterate from zero on an SPD system has r . d < 0, so an
    # inexact Newton direction still satisfies the line search's premise
    ops = make_ops(gamma=1.0, g="0.05")
    rng = np.random.default_rng(53)
    state = _penetrating_state(ops, rng)
    residual, newton_matrix, _, _ = timestepper._interval(
        state, 0.05, ops, TimeParams(t_end=1.0, dt=0.05))
    a = rng.standard_normal(ops.dofmap.free.size)
    r, point = residual(a)
    op = newton_matrix(point)
    assert op.nonlinear
    d = fem.solve_spd(op, -r, tol=tol)
    assert np.linalg.norm(op @ d + r) <= tol * np.linalg.norm(r)
    assert r @ d < 0.0
    out = timestepper._line_search(residual, a, d, r)
    assert out is not None


def _spy_newton_solves(monkeypatch, ops, params, u0):
    """Step from u0 at rest, handing each step the previous StepInfo as
    run does; return [nonlinear, tol, |rhs|, tol_abs, step, contraction]
    for every Newton system the stepper hands to fem.solve_spd, the last
    three of its step."""
    state = ops.initial_state(u0, np.zeros_like(u0))
    calls = []
    solve = fem.solve_spd

    def spy(a, rhs, tol=1e-12, maxit=None):
        calls.append([a.nonlinear, tol, float(np.linalg.norm(rhs))])
        return solve(a, rhs, tol=tol, maxit=maxit)

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

    def spy_solve(a, rhs, tol=1e-12, maxit=None):
        if substeps:        # not the initial acceleration's solve
            substeps[-1][1].append((tol, float(np.linalg.norm(rhs))))
        return solve(a, rhs, tol=tol, maxit=maxit)

    def spy_substep(state, dt, *args, **kwargs):
        substeps.append([dt, []])
        new, info = substep(state, dt, *args, **kwargs)
        substeps[-1].append(info.tol_abs)
        return new, info

    monkeypatch.setattr(fem, "solve_spd", spy_solve)
    monkeypatch.setattr(timestepper, "_solve_substep", spy_substep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompatibilityWarning)
        _, infos = run(ops, params, np.zeros_like(v0), v0)
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
    states, infos = run(ops, params, u0, np.zeros_like(u0))
    rho = infos[-2].contraction
    assert 0.1 * rho > 1e-6
    tols = []
    solve = fem.solve_spd

    def spy(a, rhs, tol=1e-12, maxit=None):
        tols.append(tol)
        return solve(a, rhs, tol=tol, maxit=maxit)

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
    _, infos = run(problem.ops, problem.params, problem.u0, problem.v0,
                   on_step=lambda state, info: None)
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


def _convex_gradient(eps):
    """Residual of Pi(a) = |a - 1|^2/2 + sum psi_eps(a), in the
    (r, ...) tuple shape the line search reads."""
    def residual(a):
        return (a - 1.0 + interface.beta_eps(a, eps),)
    return residual


def test_line_search_keeps_a_passing_full_step():
    residual = _convex_gradient(1e-2)
    a = np.array([2.0, 3.0, 1.5])
    d = 1.0 - a                      # exact minimizer: the penalty is off
    base = a.copy()
    out, extra = timestepper._line_search(residual, a, d, residual(a)[0])
    assert extra == 0
    assert np.array_equal(a, base + d)
    assert not out[0].any()


def test_line_search_brackets_an_overshoot():
    # a unit step lands deep in the stiff penalty: regula falsi must come
    # back to a point whose slope passes the two-sided test
    residual = _convex_gradient(1e-4)
    a = np.array([2.0, 2.0])
    d = np.array([-3.0, -2.5])
    slope0 = residual(a)[0] @ d
    out, extra = timestepper._line_search(residual, a, d, residual(a)[0])
    assert 0 < extra < timestepper._LS_MAX_EVALS - 1
    assert np.array_equal(out[0], residual(a)[0])
    assert abs(out[0] @ d) <= timestepper._LS_ETA * abs(slope0)


def test_line_search_rejects_ascent_and_nonfinite_slopes():
    residual = _convex_gradient(1e-2)
    a = np.array([0.5, 0.5])
    r = residual(a)[0]
    for d in (np.array([-1.0, -1.0]), np.array([0.0, 0.0])):
        assert timestepper._line_search(residual, a.copy(), d, r) is None
    # descent at 0, but the unit step overflows the slope
    d = np.array([1e300, 0.0])
    with np.errstate(over="ignore"):
        assert timestepper._line_search(residual, a.copy(), d, r) is None


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
    ra = interface.contact_residual(interface.crack_state(
        ua, v, 0.0, ops.contact, ops.quad), ops.contact, ops.quad)
    rb = interface.contact_residual(interface.crack_state(
        ub, v, 0.0, ops.contact, ops.quad), ops.contact, ops.quad)
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
    # one impact step: each residual evaluation makes one product with
    # the cached free-dof matrix and forms the crack state once; M and K
    # are applied only in the interval's constant, g is sampled once for
    # the step's one t_w, and each Newton iteration builds one contact
    # tangent from the crack state its residual formed
    problem = config_mod.build_problem(impact_config())
    ops, params = problem.ops, problem.params
    state = ops.initial_state(problem.u0, problem.v0)
    counts = collections.Counter()
    key = _jac_key(params, params.dt)
    lin, lin_diag = ops.linear_jacobian(*key)
    ops._jac_cache[key] = (_Counted(lin, counts, "lin"), lin_diag)
    for name in ("mass", "stiffness"):
        monkeypatch.setattr(ops, name, _Counted(getattr(ops, name), counts,
                                                name))
    for name in ("crack_state", "friction_bound_values", "contact_tangent"):
        def spy(*args, _f=getattr(interface, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(interface, name, spy)

    def interval(*args, _f=ops.interval):
        residual, newton_matrix = _f(*args)

        def counted(a):
            counts["residual"] += 1
            return residual(a)
        return counted, newton_matrix

    monkeypatch.setattr(ops, "interval", interval)
    solve = fem.solve_spd
    monkeypatch.setattr(fem, "solve_spd", lambda a, *args, **kw: solve(
        _Counted(a, counts, "cg"), *args, **kw))
    _, info = step(state, params.dt, ops, params)
    assert info.iterations >= 2 and info.substeps == 1
    assert counts["residual"] == 1 + info.iterations + info.line_search
    assert counts["lin"] == counts["residual"] + counts["cg"]
    assert counts["mass"] == counts["stiffness"] == 1
    assert counts["friction_bound_values"] == 1      # one t_w per interval
    assert counts["crack_state"] == counts["residual"]
    assert counts["contact_tangent"] == info.iterations


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
    # binds and samples nothing, recomputes no cell geometry, and
    # evaluates each load component and g once per time it needs them
    problem = config_mod.build_problem(
        config_mod.parse_config_text(LOADED_TEXT))
    ops, params = problem.ops, problem.params
    counts = collections.Counter()
    for module, name in ((fem, "_cell_geometry"), (ex, "evaluate"),
                         (ex, "bind"), (ex, "sample"),
                         (interface, "friction_bound_values")):
        def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    def load(t, _f=ops.load):
        counts["load"] += 1
        return _f(t)
    monkeypatch.setattr(ops, "load", load)
    _, infos = run(ops, params, problem.u0, problem.v0)
    assert [info.substeps for info in infos] == [1] * 5
    assert counts["_cell_geometry"] == counts["bind"] == counts["sample"] == 0
    assert counts["load"] == counts["friction_bound_values"] == 1 + 5
    assert counts["evaluate"] == 4 * counts["load"] + counts[
        "friction_bound_values"]


# Largest |r - force balance| over the largest |force balance| entry,
# measured over the cases below: 4.4e-16.  The bound leaves a factor of
# about 20 for other platforms' rounding.
BALANCE_RTOL = 1e-14


@pytest.mark.parametrize("g", [None, "0.05", "0.05*(1 + t)*(1 + 0.2*x)"])
@pytest.mark.parametrize("gamma", [0.0, 10.0])
def test_interval_residual_is_the_force_balance(gamma, g):
    # at random a+, the interval's residual (a constant, one free-dof
    # product and the crack forces) is M a_w + K u_w + contact + friction
    # - load on the free dofs, with the weighted state formed in full
    # from the Newmark end state; a g that varies in t must be sampled
    # at t_w
    ops = make_ops(gamma=gamma, g=g, f=(ex.parse("0.3"), ex.parse("-0.5*t")))
    rng = np.random.default_rng(59)
    state = _penetrating_state(ops, rng, t=0.1)
    free, cd = ops.dofmap.free, ops.quad.crack_dofs
    dt = 0.05
    for b, gn in ((0.25, 0.5), (0.3025, 0.6)):
        params = TimeParams(t_end=1.0, dt=dt, newmark_b=b, newmark_g=gn)
        residual, _, _, _ = timestepper._interval(state, dt, ops, params)
        for _ in range(3):
            a = rng.standard_normal(free.size)
            r, _ = residual(a)
            a_end = np.zeros(ops.dofmap.ndof)
            a_end[free] = a
            u_end = state.u + dt * state.v + dt * dt * (
                (0.5 - b) * state.a + b * a_end)
            v_end = state.v + dt * ((1.0 - gn) * state.a + gn * a_end)
            u_w, v_w, a_w = ((1.0 - gn) * x + gn * y for x, y in (
                (state.u, u_end), (state.v, v_end), (state.a, a_end)))
            t_w = state.t + gn * dt
            crack = interface.crack_state(u_w[cd], v_w[cd], t_w, ops.contact,
                                          ops.quad)
            balance = ops.mass @ a_w + ops.stiffness @ u_w - ops.load(t_w)
            balance[cd] += (
                interface.contact_residual(crack, ops.contact, ops.quad)
                + interface.friction_residual(crack, ops.contact, ops.quad))
            scale = np.abs(balance[free]).max()
            assert np.abs(r - balance[free]).max() <= BALANCE_RTOL * scale


def test_line_search_give_up_ends_in_step_failure(monkeypatch):
    # every Newton direction points uphill: each substep's line search
    # gives up at once, and after five halvings step raises instead of
    # returning a state
    problem = config_mod.build_problem(impact_config())
    ops, params = problem.ops, problem.params
    state = ops.initial_state(problem.u0, problem.v0)
    a0 = state.a.copy()
    solves = []

    def uphill(*args, _f=fem.solve_spd, **kwargs):
        solves.append(1)
        return -_f(*args, **kwargs)

    monkeypatch.setattr(timestepper.fem, "solve_spd", uphill)
    with pytest.raises(StepFailure) as err:
        step(state, params.dt, ops, params)
    assert len(solves) == 6
    assert str(err.value).startswith(
        "Newton stalled at t=0 with dt=7.813e-05 after 5 halvings")
    assert err.value.iterations == 1
    assert state.t == 0.0 and np.array_equal(state.a, a0)
