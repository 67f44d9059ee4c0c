import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from crackdyn import config as config_mod
from crackdyn import (diagnostics, exprlang as ex, fem, interface, meshing,
                      timestepper)
from crackdyn.diagnostics import (
    CSV_COLUMNS,
    epsilon_sweep,
    gamma_sweep,
    record,
    run_with_records,
    vi_residual,
)
from crackdyn.fem import Material, State
from crackdyn.interface import ContactParams
from crackdyn.meshing import generate_rect_crack
from crackdyn.timestepper import (TimeParams, build_operators, run,
                                  weighted_points)

from conftest import (SMALL_TEXT, RunCache, recorded, reference_jumps,
                      small_config, unzip)
from oracles import OneDofParams, one_dof_oracle, stability_probe

def make_ops(gamma=0.0, epsilon=0.05, g="0.3"):
    mesh = generate_rect_crack(2.0, 1.0, 16, 8, crack_span=(0.25, 0.75))
    return build_operators(mesh, Material(lam=1.0, mu=1.0, rho=1.0),
                           ContactParams(gamma=gamma, epsilon=epsilon,
                                         g=ex.parse(g)))


def plus_side_field(ops, value):
    w = np.zeros((ops.mesh.n_vertices, 2))
    w[np.unique(ops.mesh.crack_plus)] = value
    return w.ravel()


def test_record_of_rest_state_is_zero():
    ops = make_ops()
    zero = np.zeros(ops.dofmap.ndof)
    rec = record(State(0.0, zero, zero, zero), ops)
    assert dataclasses.astuple(rec) == (0.0,) * 7 + (0,)
    assert CSV_COLUMNS == ("t", "kinetic", "strain", "penetration_L3",
                           "comp_residual", "friction_gap",
                           "stick_slip_residual", "newton_iters")


def test_record_ignores_opening():
    ops = make_ops()
    zero = np.zeros(ops.dofmap.ndof)
    v = plus_side_field(ops, (0.0, 0.3))
    rec = record(State(0.0, zero, v, zero), ops)
    assert rec.penetration_L3 == 0.0
    assert rec.comp_residual == 0.0
    assert rec.friction_gap == 0.0
    assert rec.kinetic > 0.0


def test_record_uniform_penetration_values():
    # jump is -p inside the crack and ramps to zero on the two tip
    # facets; ell = facet length, m = interior facet count
    ops = make_ops(epsilon=0.05, g="0")
    p = 0.2
    v = plus_side_field(ops, (0.0, -p))
    rec = record(State(0.0, np.zeros_like(v), v, np.zeros_like(v)), ops)
    ell = float(ops.quad.weights.sum(axis=1)[0])
    m = ops.quad.n_pairs - 2
    mass3 = p ** 3 * (m * ell + 2 * ell / 4)   # integral of |jump_n|^3
    assert rec.penetration_L3 == pytest.approx(mass3 ** (1 / 3), rel=1e-12)
    assert rec.comp_residual == pytest.approx(mass3 / 0.05, rel=1e-12)
    assert rec.stick_slip_residual == 0.0


def test_record_stick_slip_oracle():
    # independent recomputation of the discrete integral from the known
    # ramp profile at the two-point Gauss nodes
    eps, g, s = 0.05, 0.3, 0.1
    ops = make_ops(epsilon=eps, g=repr(g))
    v = plus_side_field(ops, (s, 0.0))
    rec = record(State(0.0, np.zeros_like(v), v, np.zeros_like(v)), ops)

    def integrand(slip):
        return g * (abs(slip) - slip ** 2 / np.sqrt(slip ** 2 + eps ** 2))

    ell = float(ops.quad.weights.sum(axis=1)[0])
    m = ops.quad.n_pairs - 2
    r_lo = 0.5 * (1 - 1 / np.sqrt(3.0))
    r_hi = 0.5 * (1 + 1 / np.sqrt(3.0))
    tip = 0.5 * ell * (integrand(s * r_lo) + integrand(s * r_hi))
    expected = m * ell * integrand(s) + 2 * tip
    assert rec.stick_slip_residual == pytest.approx(expected, rel=1e-12)
    assert rec.friction_gap == 0.0


@pytest.mark.parametrize("g", ["0.3*(1 + x)", None])
def test_record_matches_recovered_tractions(g, monkeypatch):
    # reference: the friction columns formed from recover_tractions; record
    # evaluates the crack state (the jumps and g) once
    ops = make_ops(gamma=1.0, epsilon=0.05, g=g or "0")
    rng = np.random.default_rng(12)
    u = ops.dofmap.zero_constrained(0.05 * rng.standard_normal(ops.dofmap.ndof))
    v = ops.dofmap.zero_constrained(0.05 * rng.standard_normal(ops.dofmap.ndof))
    calls = []
    with monkeypatch.context() as patch:
        def spy(*args, _f=interface.crack_state):
            calls.append(args)
            return _f(*args)
        patch.setattr(interface, "crack_state", spy)
        rec = record(State(0.3, u, v, np.zeros_like(v)), ops)
    assert len(calls) == 1
    quad = ops.quad
    cd = quad.crack_dofs
    crack = interface.crack_state(u[cd], v[cd], 0.3, ops.contact, quad)
    _, sigma_t = interface.recover_tractions(crack, ops.contact)
    jt = crack[1]
    gv = interface.friction_bound_values(ops.contact, quad, 0.3)
    gap = float(np.maximum(np.abs(sigma_t) - gv, 0.0).max())
    ssr = float(np.sum(quad.weights * np.abs(gv * np.abs(jt) - sigma_t * jt)))
    assert rec.friction_gap == gap
    assert rec.stick_slip_residual == ssr
    assert (ssr > 0.0) == (g is not None)


def test_record_energies():
    ops = make_ops()
    rng = np.random.default_rng(3)
    u = rng.standard_normal(ops.dofmap.ndof)
    v = rng.standard_normal(u.size)
    rec = record(State(0.0, u, v, np.zeros_like(u)), ops)
    assert rec.kinetic == pytest.approx(0.5 * v @ (ops.mass @ v))
    assert rec.strain == pytest.approx(0.5 * u @ (ops.stiffness @ u))


def test_run_with_records_hook():
    problem = config_mod.build_problem(small_config())
    seen = []
    assert run_with_records(
        problem, on_record=lambda s, r, i: seen.append((s, r, i))) is None
    records = [r for _, r, _ in seen]
    assert [s.t for s, _, _ in seen] == [r.t for r in records]
    assert [s.t for s, _, _ in seen] == [
        s.t for s, _ in run(problem.ops, problem.config.time, problem.u0,
                            problem.v0)]
    assert seen[0][2] is None
    assert records[0].newton_iters == 0
    assert [r.newton_iters for r in records[1:]] == [
        i.iterations for _, _, i in seen[1:]]
    # the pulse closes the crack during this run
    assert max(r.penetration_L3 for r in records) > 0.0
    assert all(r.friction_gap == 0.0 for r in records)


@pytest.mark.parametrize("entry", ["run", "run_with_records"])
def test_streaming_run_keeps_no_old_state(entry):
    # when a state is handed out, every earlier one is already freed
    problem = config_mod.build_problem(small_config())
    refs = []

    def see(state):
        assert [r() is None for r in refs] == [True] * len(refs)
        refs.append(weakref.ref(state))

    if entry == "run":
        for state, _ in run(problem.ops, problem.config.time, problem.u0,
                            problem.v0):
            see(state)
        del state
    else:
        run_with_records(problem, on_record=lambda s, r, i: see(s))
    assert len(refs) > 3
    assert [r() is None for r in refs] == [True] * len(refs)


def test_vi_residual_zero_at_argument():
    ops = make_ops()
    rng = np.random.default_rng(5)
    zc = ops.dofmap.zero_constrained
    u = zc(rng.standard_normal(ops.dofmap.ndof))
    v = zc(rng.standard_normal(u.size))
    a = zc(rng.standard_normal(u.size))
    z = ops.contact.gamma * u + v
    assert vi_residual(u, v, a, 0.0, z, ops) == 0.0
    # with gamma != 0 and friction the friction term compares
    # phi(jt(gamma*u + v) - gamma*jt(u)) with phi(jt(v)): equal up to rounding
    ops = make_ops(gamma=1.3, g="0.3")
    z = ops.contact.gamma * u + v
    cd = ops.quad.crack_dofs
    _, jt, g = interface.crack_state(u[cd], v[cd], 0.0, ops.contact, ops.quad)
    scale = float(np.sum(ops.quad.weights * g
                         * interface.phi_eps(jt, ops.contact.epsilon)))
    assert scale > 0.1
    assert abs(vi_residual(u, v, a, 0.0, z, ops)) <= 1e-14 * scale


def test_vi_residual_forms_its_jumps_through_crack_state(monkeypatch):
    # one crack_state at (u, v) and one at the trial, each sampling g
    # (bound once per expression); the jump operators are read by
    # crack_state alone
    ops = make_ops(gamma=1.3)
    rng = np.random.default_rng(7)
    u, v, a, trial = (ops.dofmap.zero_constrained(
        rng.standard_normal(ops.dofmap.ndof)) for _ in range(4))
    counts = {"friction_bound_values": 0, "crack_state": 0}
    for name in counts:
        def spy(*args, _f=getattr(interface, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(interface, name, spy)
    vi_residual(u, v, a, 0.0, trial, ops)
    assert counts == {"friction_bound_values": 2, "crack_state": 2}


def test_vi_residual_rejects_constrained_trials():
    ops = make_ops()
    trial = np.ones(ops.dofmap.ndof)
    zero = np.zeros_like(trial)
    with pytest.raises(ValueError, match="Dirichlet"):
        vi_residual(zero, zero, zero, 0.0, trial, ops)


def test_vi_residual_nonnegative_on_solution():
    problem = config_mod.build_problem(small_config())
    states, _, infos = recorded(problem)
    vi = diagnostics.check_vi(problem, states, infos, 6, 20, 6)
    # held to the smallest step tolerance, not the check's -10*newton_tol
    assert -10.0 * min(info.tol_abs for info in infos) <= vi.value < np.inf


def test_check_vi_holds_each_point_to_its_step_tolerance():
    # friction off and the crack held wide open: the VI residual is linear
    # in the trial, (M a_w).w, so a_w sets it.  A residual of -1e-10 lies
    # within the old -10*newton_tol = -1e-9 but not within -10*tol_abs
    cfg = small_config()
    problem = config_mod.build_problem(dataclasses.replace(
        cfg, contact=dataclasses.replace(cfg.contact, g=ex.Num(0.0))))
    ops = problem.ops
    zero = np.zeros(ops.dofmap.ndof)
    v = ops.dofmap.zero_constrained(plus_side_field(ops, (0.0, 10.0)))
    jn, _ = reference_jumps(v, ops.mesh)
    assert jn.min() > 2.0
    a = ops.dofmap.zero_constrained(np.ones(ops.dofmap.ndof))

    def check(scale, tol_abs):
        states = [State(t, zero, v, scale * a)
                  for t in (0.0, problem.config.time.dt)]
        infos = [timestepper.StepInfo(iterations=1, residual=0.0,
                                      tol_abs=tol_abs)]
        return diagnostics.check_vi(problem, states, infos, 1, 20, 3)

    unit = check(1.0, 1.0)
    assert unit.ok and unit.value < 0.0
    scale = 1e-10 / -unit.value
    tight = check(scale, 1e-12)
    assert tight.value == pytest.approx(-1e-10, rel=1e-6)
    assert not tight.ok
    assert check(scale, 1e-10).ok


# perfbench's driven workload with zero phases on the impact mesh, 40 steps
DRIVEN_TEXT = """\
[mesh]
kind = rect
width = 2.0
height = 1.0
nx = 16
ny = 8
crack_lo = 0.25
crack_hi = 0.75

[material]
lambda = 1.0
mu = 1.0
rho = 1.0

[contact]
gamma = 1.0
epsilon = 1e-2
g = 0.05*(1 + 0.5*sin(6*t))*(1 + 0.2*cos(3*x))

[time]
t_end = 0.1
dt = 2.5e-3

[data]
f = (0.2*sin(9*t)*exp(-((x-0.7)^2 + (y-0.3)^2)/0.05), \
-0.5*sin(12*t)*exp(-((x-1.2)^2 + (y-0.7)^2)/0.05))
F = (0.05*cos(7*t)*x*(2-x), -0.3*(1 - cos(10*t))*sin(1.5707963*x))
"""


def test_check_vi_on_a_run_under_moving_loads():
    # f, F and g vary in t and x: each balance point's VI residual must
    # take the load at its own time.  Measured: min residual 9.9e-4; with
    # the load taken at t = 0 it is -1.3e-3 against a bound of -3.5e-11
    problem = config_mod.build_problem(
        config_mod.parse_config_text(DRIVEN_TEXT))
    states, infos = unzip(run(problem.ops, problem.config.time, problem.u0,
                              problem.v0))
    assert len(infos) == 40
    vi = diagnostics.check_vi(problem, states, infos, 10, 20, 5)
    assert vi.ok and vi.value > 0.0, vi.detail


def test_check_kernel_fails_off_the_rigid_modes():
    mesh = generate_rect_crack(2.0, 1.0, 4, 2, crack_span=(0.25, 0.75))
    k = fem.assemble_stiffness(mesh, Material(lam=1.3, mu=0.9, rho=1.0))
    assert diagnostics.check_kernel(mesh, k).ok
    shifted = k + 1e-6 * sp.identity(k.shape[0], format="csr")
    assert not diagnostics.check_kernel(mesh, shifted).ok


def _energy_records(energies, friction_gap=0.0):
    return [diagnostics.DiagnosticsRecord(0.1 * k, e, 0.0, 0.0, 0.0,
                                          friction_gap, 0.0, 0)
            for k, e in enumerate(energies)]


def test_check_friction_bound_fails_on_any_excess():
    assert diagnostics.check_friction_bound(_energy_records([1.0, 1.0])).ok
    records = _energy_records([1.0]) + _energy_records([1.0], 1e-300)
    assert not diagnostics.check_friction_bound(records).ok


def test_check_energy_bounded_and_finite_fail_past_their_limits():
    cfg = small_config()
    bounded = dataclasses.replace(
        cfg, contact=dataclasses.replace(cfg.contact, gamma=1.0))
    bound = 10.0 * 2.0 ** 2 * 0.5
    at, above = ([0.5, 1.0, x, 2.0] for x in (bound, np.nextafter(bound, 3e1)))
    check = diagnostics.check_energy(bounded, _energy_records(at))
    assert check.name == "energy-bounded" and check.ok
    assert not diagnostics.check_energy(bounded, _energy_records(above)).ok
    loaded = dataclasses.replace(cfg, f=(ex.Num(0.0), ex.Num(-1.0)))
    check = diagnostics.check_energy(loaded, _energy_records([0.5, 1e300]))
    assert check.name == "energy-finite" and check.ok
    assert not diagnostics.check_energy(
        loaded, _energy_records([0.5, np.nan, 1.0])).ok


def test_check_normal_traction_fails_on_a_positive_traction(monkeypatch):
    problem = config_mod.build_problem(small_config())
    states = [problem.ops.initial_state(problem.u0, problem.v0)]
    assert diagnostics.check_normal_traction(problem, states).ok
    recover = interface.recover_tractions

    def pulling(*args):
        sigma_n, sigma_t = recover(*args)
        return np.full_like(sigma_n, 1e-300), sigma_t

    monkeypatch.setattr(interface, "recover_tractions", pulling)
    assert not diagnostics.check_normal_traction(problem, states).ok


def test_check_monotone_fails_on_a_decreasing_beta(monkeypatch):
    assert diagnostics.check_monotone(1000, 4).ok
    monkeypatch.setattr(interface, "beta_eps", lambda x, eps: -x)
    assert not diagnostics.check_monotone(1000, 4).ok


def test_check_gradients_fails_on_a_derivative_off_by_1_percent(monkeypatch):
    assert diagnostics.check_gradients(100, 4).ok
    dbeta = interface.dbeta_eps
    monkeypatch.setattr(interface, "dbeta_eps",
                        lambda x, eps: 1.01 * dbeta(x, eps))
    check = diagnostics.check_gradients(100, 4)
    assert not check.ok and "beta gradient" in check.detail


def test_sweep_rows_come_from_every_state():
    # a replayed run with known penetrations and accelerations, the
    # largest of each in the middle: max_acc_h is the largest H-norm of
    # the accelerations, sup_penetration the largest penetration, and
    # int_pen3_dt the trapezoidal integral of its cube
    scales = [0.0, 1.0, 3.0, 2.0, 0.5]
    pens = [0.0, 0.1, 0.3, 0.2, 0.05]

    def unit_acceleration(problem):
        return problem.ops.dofmap.zero_constrained(
            np.ones(problem.ops.dofmap.ndof))

    def replay(problem, on_record):
        a = unit_acceleration(problem)
        zero = np.zeros_like(a)
        for k, (c, pen) in enumerate(zip(scales, pens)):
            rec = diagnostics.DiagnosticsRecord(0.1 * k, 0.0, 0.0, pen, 0.0,
                                                0.0, 0.0, 0)
            on_record(State(rec.t, zero, zero, c * a), rec, None)

    cfg = small_config()
    (row,) = gamma_sweep(cfg, [0.0], run=replay)
    problem = config_mod.build_problem(cfg)
    unit = np.sqrt(fem.h_norm_sq(problem.ops.mass, cfg.material.rho,
                                 unit_acceleration(problem)))
    assert row.max_acc_h == pytest.approx(3.0 * unit, rel=1e-14)
    assert row.sup_penetration == 0.3
    cubes = np.array(pens) ** 3
    assert row.int_pen3_dt == pytest.approx(
        0.05 * (cubes[:-1] + cubes[1:]).sum(), rel=1e-14)


@pytest.mark.parametrize("rise, ok", [(1e-6, False), (0.5e-8, True)])
def test_check_energy_decay_allows_a_rise_of_1e_8_of_e0(rise, ok):
    e0 = 3.0
    energies = [e0, 0.9 * e0, (0.9 + rise) * e0, 0.8 * e0]
    records = [diagnostics.DiagnosticsRecord(0.1 * k, e, 0.0, 0.0, 0.0, 0.0,
                                             0.0, 0)
               for k, e in enumerate(energies)]
    check = diagnostics.check_energy_decay(records)
    assert check.ok is ok
    assert check.value == pytest.approx(rise * e0)


def test_weighted_points_midpoint_and_skip():
    problem = config_mod.build_problem(small_config())
    states, infos = unzip(run(problem.ops, problem.config.time, problem.u0,
                              problem.v0))
    pts = weighted_points(states, infos, problem.config.time)
    assert len(pts) == len(infos)          # no halvings in this run
    t0, t1 = states[0].t, states[1].t
    assert pts[0][0] == pytest.approx(0.5 * (t0 + t1))
    infos[2].substeps = 2
    assert (len(weighted_points(states, infos, problem.config.time))
            == len(infos) - 1)


def test_epsilon_sweep_small_config():
    sweep = epsilon_sweep(small_config(), [1e-1, 1e-2, 1e-3])
    vals = [r.int_pen3_dt for r in sweep.rows]
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert sweep.fitted_order > 0.5
    assert sweep.rows[-1].dist_to_finest == 0.0
    assert np.isnan(sweep.rows[0].cauchy_dist)
    assert sweep.rows[1].cauchy_dist > 0.0


def test_epsilon_sweep_validation():
    cfg = small_config()
    with pytest.raises(ValueError, match="at least 3"):
        epsilon_sweep(cfg, [1e-1, 1e-2])
    with pytest.raises(ValueError, match="decreasing"):
        epsilon_sweep(cfg, [1e-2, 1e-1, 1e-3])


def test_epsilon_sweep_glued_mesh_has_no_penetration():
    text = SMALL_TEXT.replace("crack_lo = 0.25\n", "").replace(
        "crack_hi = 0.75\n", "")
    cfg = config_mod.parse_config_text(text)
    sweep = epsilon_sweep(cfg, [1e-1, 1e-2, 1e-3])
    assert all(r.int_pen3_dt == 0.0 for r in sweep.rows)
    assert all(r.sup_penetration == 0.0 for r in sweep.rows)
    assert np.isnan(sweep.fitted_order)


def test_gamma_sweep():
    rows = gamma_sweep(small_config(), [0.0, 1.0])
    assert [r.value for r in rows] == [0.0, 1.0]
    assert rows[-1].dist_to_finest == 0.0
    assert rows[0].dist_to_finest > 0.0
    assert np.isnan(rows[0].cauchy_dist)
    with pytest.raises(ValueError, match="at least one"):
        gamma_sweep(small_config(), [])
    with pytest.raises(ValueError, match="nonnegative"):
        gamma_sweep(small_config(), [0.0, -1.0])


def test_stability_probe_linear_scaling():
    cfg = small_config()
    big = stability_probe(cfg, 2e-5)
    small = stability_probe(cfg, 1e-5)
    assert big.sup_distance / small.sup_distance == pytest.approx(2.0, rel=0.1)
    assert len(big.times) == len(big.distances)
    assert big.distances[0] > 0.0          # u0 is perturbed at t = 0


def test_stability_probe_zero_eta_is_exact():
    probe = stability_probe(small_config(), 0.0)
    assert probe.sup_distance == 0.0
    assert abs(probe.growth_rate) <= 1e-10
    with pytest.raises(ValueError, match="nonnegative"):
        stability_probe(small_config(), -1e-3)


def test_sweeps_and_probe_take_their_runs_from_a_run_function(monkeypatch):
    cfg, eps, gammas = small_config(), [1e-1, 1e-2, 1e-3], [0.0, 1.0]
    cache = RunCache()

    def studies(run):
        # repr is exact and reads the first row's nan cauchy_dist as equal
        return repr((epsilon_sweep(cfg, eps, run=run),
                     gamma_sweep(cfg, gammas, run=run),
                     stability_probe(cfg, 1e-5, run=run)))

    fresh = studies(diagnostics.run_with_records)
    assert studies(cache.run) == fresh      # this fills the cache
    monkeypatch.setattr(diagnostics, "run_with_records",
                        lambda *args: pytest.fail("a fresh run was made"))
    # a replay calls on_record, so a study that passed none would fail
    assert studies(cache.run) == fresh


def test_a_sweep_builds_each_mesh_once(monkeypatch):
    # one problem per value, and no second mesh for the mass matrix
    calls = []

    def spy(*args, _f=meshing.generate_rect_crack):
        calls.append(args)
        return _f(*args)

    monkeypatch.setattr(meshing, "generate_rect_crack", spy)
    epsilon_sweep(small_config(), [1e-1, 1e-2, 1e-3])
    assert len(calls) == 3


def test_one_dof_params_validation():
    p = OneDofParams()
    assert p.period == pytest.approx(2 * np.pi)
    with pytest.raises(ValueError):
        OneDofParams(rho=0.0)
    with pytest.raises(ValueError):
        OneDofParams(epsilon=0.0)
    with pytest.raises(ValueError):
        OneDofParams(g=-0.1)


def test_one_dof_oracle_requires_fine_steps():
    with pytest.raises(ValueError, match="too coarse"):
        one_dof_oracle(OneDofParams(), [0.0, 1.0], dt_fine=1e-3)


def test_one_dof_oracle_harmonic():
    # contact and friction stay inactive while the velocity is positive
    p = OneDofParams(rho=1.0, k=1.0, gamma=0.0, epsilon=1e-2, g=0.0,
                     u0=0.0, v0=1.0)
    ts = np.linspace(0.0, 1.5, 7)
    us, vs = one_dof_oracle(p, ts, dt_fine=5e-5)
    assert np.abs(us - np.sin(ts)).max() <= 1e-6
    assert np.abs(vs - np.cos(ts)).max() <= 1e-6


def test_one_dof_oracle_dissipates_with_interface_active():
    p = OneDofParams(rho=1.0, k=1.0, gamma=0.0, epsilon=1e-2, g=0.3,
                     u0=1.0, v0=-0.5)
    ts = np.linspace(0.0, 3.0, 61)
    us, vs = one_dof_oracle(p, ts, dt_fine=5e-5)
    total = 0.5 * vs ** 2 + 0.5 * us ** 2
    assert np.all(np.diff(total) <= 1e-12)


def test_one_dof_implicit_tracks_oracle():
    p = OneDofParams(rho=1.0, k=1.0, gamma=0.5, epsilon=1e-2, g=0.3,
                     u0=1.0, v0=0.0)
    states, _ = unzip(run(p, TimeParams(t_end=3.0, dt=5e-3), p.u0, p.v0))
    times = [s.t for s in states]
    us = np.array([s.u[0] for s in states])
    assert times[0] == 0.0 and times[-1] == pytest.approx(3.0)
    uo, vo = one_dof_oracle(p, times, dt_fine=5e-5)
    assert np.abs(us - uo).max() <= 3e-5


@pytest.mark.parametrize("contact", [True, False], ids=["contact", "open"])
@pytest.mark.parametrize("g", [0.0, 0.3])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_one_dof_interval_newton_matrix_is_its_derivative(gamma, g, contact):
    # the analog's interval is posed by timestepper.NewtonProblem, with
    # the production laws, chain rule and tangents: its Newton matrix is
    # the central difference of its residual, at a weighted state with
    # distinct cu and cv, in contact and open, with a slip v_w + cv*a of
    # +-0.02, where the friction tangent is large; open and frictionless,
    # it is the linear part and solved as linear
    p = OneDofParams(gamma=gamma, epsilon=1e-2, g=g)
    sign = -1.0 if contact else 1.0
    u_w, v_w = np.full(1, 0.2 * sign), np.full(1, 0.02 * sign - 0.07)
    problem = p.interval(u_w, v_w, np.full(1, 0.1), 0.5, 0.3, 0.7, 0.0,
                         np.full(1, 0.6))
    a = np.array([0.1])
    _, point = problem.evaluate(a)
    assert (point[0][..., 0] < 0.0).all() == contact
    op = problem.newton_matrix(point)
    jac = op @ np.ones(1)
    h = 1e-6
    fd = (problem.evaluate(a + h)[0] - problem.evaluate(a - h)[0]) / (2 * h)
    assert fd[0] == pytest.approx(jac[0], rel=1e-7)
    assert op.nonlinear == (contact or g > 0.0)
    assert (jac[0] > op.linear()[0, 0]) == op.nonlinear


@pytest.mark.parametrize("gamma, g", [(0.0, 0.0), (0.5, 0.3), (10.0, 0.3)])
def test_one_dof_newton_matrix_is_residual_derivative(gamma, g):
    # the scalar analog is a stepper system: its 1x1 Newton matrix is the
    # derivative of the interval residual in the end-of-step acceleration
    p = OneDofParams(gamma=gamma, epsilon=1e-2, g=g, u0=-0.2, v0=-0.4,
                     forcing=lambda t: np.sin(t))
    state = p.initial_state(p.u0, p.v0)
    # the initial acceleration balances the forces at t = 0: measured up
    # to 8.0e-17 of rho*a over the three cases, bound 1e-15
    balance = (p.rho * state.a + p.k * state.u
               + interface.beta_eps(p.gamma * state.u + state.v, p.epsilon)
               + p.g * interface.alpha_eps(state.v, p.epsilon) - p.load(0.0))
    assert abs(balance[0]) <= 1e-15 * max(abs(p.rho * state.a[0]), 1.0)
    # the default Newmark pair and a dissipative one
    for b, gn in ((0.25, 0.5), (0.3025, 0.6)):
        params = TimeParams(t_end=1.0, dt=0.05, newmark_b=b, newmark_g=gn)
        problem, load_norm, end = timestepper._interval(state, 0.05, p,
                                                        params)
        assert load_norm == pytest.approx(np.sin(gn * 0.05))
        a = np.array([0.7])
        _, point = problem.evaluate(a)
        op = problem.newton_matrix(point)
        jac = op @ np.ones(1)
        assert jac.shape == (1,) and jac[0] > 0.0
        assert np.array_equal(op.diagonal(), jac)
        h = 1e-6
        fd = (problem.evaluate(a + h)[0]
              - problem.evaluate(a - h)[0]) / (2 * h)
        assert fd[0] == pytest.approx(jac[0], rel=1e-7)
        assert end(a).a[0] == 0.7 and end(a).t == pytest.approx(0.05)
