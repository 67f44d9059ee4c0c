"""Acceptance battery.

Ten end-to-end checks, one test per criterion.  Each test prints a
single ``[criterion N] PASS/FAIL (detail)`` line before asserting, so a
``pytest -v`` log doubles as the acceptance report.  The checks are
diagnostics' ``check_*``, as in ``crackdyn verify``.  The slow criteria,
sweeps and probe included, share impact runs through the run cache.
"""

import math

import numpy as np

from conftest import impact_config, unzip
from oracles import OneDofParams, one_dof_oracle, patch_forces, stability_probe
from crackdyn import diagnostics, exprlang, fem, interface, meshing, timestepper
from crackdyn.fem import Material
from crackdyn.meshing import generate_rect_crack

try:
    import sympy
except ImportError:            # pragma: no cover
    sympy = None

import pytest


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# The VI check's sample: 20 balance points x 100 trials, seed 11.
VI_SAMPLE = (20, 100, 11)


def interface_family(impact_runs, gamma):
    """Traction and friction-bound checks of the runs at epsilon 1e-1, 1e-2
    and 1e-4, and their largest stick-slip residuals by epsilon."""
    checks, ss = [], {}
    for eps in (1e-1, 1e-2, 1e-4):
        problem, states, records, _ = impact_runs.get(gamma, eps)
        checks += [diagnostics.check_normal_traction(problem, states),
                   diagnostics.check_friction_bound(records)]
        ss[eps] = max(r.stick_slip_residual for r in records)
    return checks, ss


# ---------------------------------------------------------------------------

def test_criterion_01_regularization_calculus():
    rng = np.random.default_rng(42)
    grad = diagnostics.check_gradients(100, rng)
    mono = diagnostics.check_monotone(10_000, rng)
    report(1, grad.ok and mono.ok,
           f"FD errors at {grad.value:.2f} of their bounds ({grad.detail} "
           f"at eps=1e-4), {mono.detail}")


def test_criterion_02_kernel_and_patch_test():
    mat = Material(lam=1.3, mu=0.9, rho=1.0)
    kernel = [diagnostics.check_kernel(m, fem.assemble_stiffness(m, mat))
              for m in (generate_rect_crack(2.0, 1.0, 2, 2),
                        generate_rect_crack(2.0, 1.0, 16, 8,
                                            crack_span=(0.25, 0.75)))]

    # patch test: K @ u of u = (alpha*x, 0) against the edge traction
    # integrals of its constant stress, relative to the largest force
    mesh = generate_rect_crack(2.0, 1.0, 2, 2)
    alpha = 0.01
    u = np.column_stack([alpha * mesh.vertices[:, 0],
                         np.zeros(mesh.n_vertices)]).ravel()
    expected = patch_forces(mesh, mat, alpha)
    force = fem.assemble_stiffness(mesh, mat) @ u
    worst_patch = float(np.abs(force - expected).max()
                        / np.abs(expected).max())
    ok = all(k.ok for k in kernel) and worst_patch <= 1e-12
    report(2, ok, f"kernel residual {max(k.value for k in kernel):.1e}, "
                  f"patch force error {worst_patch:.1e}")


def test_criterion_03_energy_dissipativity(impact_runs):
    problem, states, records, infos = impact_runs.get(0.0, 1e-2)
    assert len(records) == 201
    assert max(r.penetration_L3 for r in records) > 0.0  # contact did occur
    decay = diagnostics.check_energy_decay(records)
    report(3, decay.ok, decay.detail)


def test_criterion_04_penetration_decay(impact_runs):
    res = diagnostics.epsilon_sweep(impact_config(), [1e-1, 1e-2, 1e-3, 1e-4],
                                    run=impact_runs.run)
    pens = [row.int_pen3_dt for row in res.rows]
    ok = res.fitted_order >= 0.8 and all(a > b for a, b in zip(pens, pens[1:]))
    report(4, ok, f"fitted penetration order {res.fitted_order:.3f} >= 0.8, "
                  f"int pen^3 {pens[0]:.1e} -> {pens[-1]:.1e}")


def test_criterion_05_interface_conditions(impact_runs):
    checks, ss = interface_family(impact_runs, 0.0)
    ok = all(c.ok for c in checks) and ss[1e-4] <= 1e-2 * ss[1e-1]
    report(5, ok, f"max sigma_n {max(c.value for c in checks[::2]):.1e}, "
                  f"max friction gap {max(c.value for c in checks[1::2])!r}, "
                  f"stick-slip {ss[1e-1]:.2e} -> {ss[1e-4]:.2e} "
                  f"(ratio {ss[1e-4] / ss[1e-1]:.1e})")


def test_criterion_06_vi_equivalence(impact_runs):
    problem, states, records, infos = impact_runs.get(0.0, 1e-2)
    vi = diagnostics.check_vi(problem, states, infos, *VI_SAMPLE)
    report(6, vi.ok, f"{vi.detail} (100 trials x 20 steps)")


def test_small_epsilon_vi_covers_every_step(impact_runs):
    # at eps = 1e-4 Newton must converge on every full step, so the VI
    # check sees all 200 balance points, not only the unbisected ones
    for gamma in (0.0, 10.0):
        problem, states, records, infos = impact_runs.get(gamma, 1e-4)
        assert [info.substeps for info in infos] == [1] * len(infos)
        assert sum(info.line_search for info in infos) > 0
        pts = timestepper.weighted_points(states, infos, problem.config.time)
        assert len(pts) == len(infos) == 200
        vi = diagnostics.check_vi(problem, states, infos, *VI_SAMPLE)
        assert vi.ok, (gamma, vi.detail)


def test_criterion_07_continuous_dependence(impact_runs):
    cfg = impact_config()
    sups = [stability_probe(cfg, eta, run=impact_runs.run)
            .sup_distance for eta in (1e-5, 5e-6, 2.5e-6)]
    ratios = [a / b for a, b in zip(sups, sups[1:])]
    ok = (all(a > b for a, b in zip(sups, sups[1:]))
          and all(1.5 <= r <= 2.5 for r in ratios))
    report(7, ok, f"sup distances {sups[0]:.2e}/{sups[1]:.2e}/{sups[2]:.2e}, "
                  f"halving ratios {ratios[0]:.3f}, {ratios[1]:.3f}")


def test_criterion_08_one_dof_oracle():
    p = OneDofParams(gamma=0.5, epsilon=1e-2, g=0.3, u0=1.0, v0=0.0)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        states, _ = unzip(timestepper.run(
            p, timestepper.TimeParams(t_end=3.0, dt=dt), p.u0, p.v0))
        times = [s.t for s in states]
        us = np.array([s.u[0] for s in states])
        vs = np.array([s.v[0] for s in states])
        uo, vo = one_dof_oracle(p, times, 5e-5)
        errs.append(max(float(np.abs(us - uo).max()),
                        float(np.abs(vs - vo).max())))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok = all(o >= 1.8 for o in orders)
    report(8, ok, f"trajectory errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
                  f"observed orders {orders[0]:.2f}, {orders[1]:.2f}")


# ---------------------------------------------------------------------------
# criterion 9: smooth reference solution on an uncracked plate
# ---------------------------------------------------------------------------

def _manufactured_forcing(lam, mu, rho, c, om):
    """Body force making u = c*(sin(pi x) sin(pi y) cos(om t)) * (1, 1)
    solve the momentum balance; returned as expression strings."""
    x, y, t = sympy.symbols("x y t")
    shape = c * sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y) \
        * sympy.cos(om * t)
    u = sympy.Matrix([shape, shape])
    jac = u.jacobian([x, y])
    strain = (jac + jac.T) / 2
    sig = lam * (strain[0, 0] + strain[1, 1]) * sympy.eye(2) + 2 * mu * strain
    div = sympy.Matrix([
        sympy.diff(sig[0, 0], x) + sympy.diff(sig[0, 1], y),
        sympy.diff(sig[1, 0], x) + sympy.diff(sig[1, 1], y),
    ])
    f = sympy.Matrix([sympy.diff(u[0], t, 2),
                      sympy.diff(u[1], t, 2)]) - div / rho
    pi_num = sympy.Float(math.pi, 17)
    return [str(sympy.expand(comp).subs(sympy.pi, pi_num)).replace("**", "^")
            for comp in (f[0], f[1])]


def _all_dirichlet(mesh):
    both = np.vstack([mesh.dirichlet_facets, mesh.neumann_facets])
    return meshing.CrackedMesh(
        mesh.vertices, mesh.cells, mesh.cell_sides,
        both, np.zeros((0, 2), dtype=np.int64), (), ())


def _smooth_case(n, lam=1.0, mu=1.0, rho=1.0, c=0.1, om=2.0, t_end=0.5):
    fx, fy = _manufactured_forcing(lam, mu, rho, c, om)
    mesh = _all_dirichlet(generate_rect_crack(1.0, 1.0, n, n))
    ops = timestepper.build_operators(
        mesh, Material(lam=lam, mu=mu, rho=rho),
        interface.ContactParams(gamma=0.0, epsilon=1e-2),
        f=(exprlang.parse(fx), exprlang.parse(fy)))
    pi = repr(math.pi)
    exact = exprlang.parse(f"{c!r}*sin({pi}*x)*sin({pi}*y)*cos({om!r}*t)")
    u0 = fem.interpolate(mesh, (exact, exact), t=0.0)
    h = 1.0 / n
    n_steps = int(round(t_end / (0.25 * h)))
    params = timestepper.TimeParams(t_end=t_end, dt=t_end / n_steps)
    *_, (final, _) = timestepper.run(ops, params, u0, np.zeros_like(u0))
    ref = fem.interpolate(mesh, (exact, exact), t=final.t)
    err = final.u - ref
    return h, math.sqrt(fem.h_norm_sq(ops.mass, rho, err))


@pytest.mark.skipif(sympy is None, reason="needs sympy for the forcing")
def test_criterion_09_smooth_convergence():
    hs, errs = [], []
    for n in (8, 16, 32):
        h, e = _smooth_case(n)
        hs.append(h)
        errs.append(e)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = slope >= 1.7 and all(a > b for a, b in zip(errs, errs[1:]))
    report(9, ok, f"L2 errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
                  f"observed spatial order {slope:.2f}")


def test_criterion_10_gamma_family(impact_runs):
    # gamma = 0 is criteria 3-6 themselves; repeat their checks for the
    # velocity/displacement blends
    details = []
    ok = True
    for gamma in (1.0, 10.0):
        problem, states, records, infos = impact_runs.get(gamma, 1e-2)
        decay = diagnostics.check_energy_decay(records)
        checks, ss = interface_family(impact_runs, gamma)
        vi = diagnostics.check_vi(problem, states, infos, *VI_SAMPLE)
        res = diagnostics.epsilon_sweep(impact_config(gamma=gamma),
                                        [1e-1, 1e-2, 1e-3, 1e-4],
                                        run=impact_runs.run)
        ok = (ok and decay.ok and all(c.ok for c in checks)
              and ss[1e-4] <= 1e-2 * ss[1e-1] and vi.ok
              and res.fitted_order >= 0.8)
        details.append(f"gamma={gamma:g}: rise {decay.value:.1e}, "
                       f"ss ratio {ss[1e-4] / ss[1e-1]:.1e}, "
                       f"vi {vi.value:.1e}, pen order {res.fitted_order:.2f}")
    report(10, ok, "; ".join(details))
