"""Run-time monitors: interface-condition residuals, energy bookkeeping,
the invariant checks that `crackdyn verify` and the acceptance tests
share, and parameter sweeps.  The points at which a run enforced its
force balance come from the stepper (timestepper.weighted_points), the
only code that knows the Newmark scheme.

Quantities with an exact sign or decay property in the continuous model
are exposed here so runs can be checked against them: the normal
traction is never positive, the tangential traction never exceeds the
friction bound, the complementarity and stick-slip residuals vanish as
the regularization scale goes to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import config as config_mod
from . import fem, interface, timestepper
from .config import ConfigError
from .timestepper import Operators

__all__ = [
    "DiagnosticsRecord",
    "CSV_COLUMNS",
    "record",
    "run_with_records",
    "vi_residual",
    "Check",
    "check_monotone",
    "check_gradients",
    "check_kernel",
    "check_normal_traction",
    "check_friction_bound",
    "check_energy_decay",
    "check_energy",
    "check_vi",
    "SweepRow",
    "SweepResult",
    "epsilon_sweep",
    "gamma_sweep",
]

CSV_COLUMNS = ("t", "kinetic", "strain", "penetration_L3", "comp_residual",
               "friction_gap", "stick_slip_residual", "newton_iters")


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-step monitor values (crack integrals use the step endpoint)."""

    t: float
    kinetic: float
    strain: float
    penetration_L3: float
    comp_residual: float
    friction_gap: float
    stick_slip_residual: float
    newton_iters: int

    def row(self):
        return (self.t, self.kinetic, self.strain, self.penetration_L3,
                self.comp_residual, self.friction_gap,
                self.stick_slip_residual, self.newton_iters)


def record(state: fem.State, ops: Operators, newton_iters: int = 0) -> DiagnosticsRecord:
    quad = ops.quad
    kinetic = 0.5 * float(state.v @ (ops.mass @ state.v))
    strain = 0.5 * float(state.u @ (ops.stiffness @ state.u))
    cd = quad.crack_dofs
    crack = interface.crack_state(state.u[cd], state.v[cd], state.t,
                                  ops.contact, quad)
    s, jt, g = crack
    sigma_n, sigma_t = interface.recover_tractions(crack, ops.contact)
    m = interface.neg_part(s)
    pen = float(np.sum(quad.weights * m ** 3)) ** (1.0 / 3.0)
    comp = float(np.sum(quad.weights * np.abs(sigma_n * s)))
    st_norm = np.linalg.norm(sigma_t, axis=-1)
    gap = float(np.maximum(st_norm - g, 0.0).max(initial=0.0))
    slip = np.linalg.norm(jt, axis=-1)
    ssr = float(np.sum(quad.weights * np.abs(
        g * slip - np.einsum("pqd,pqd->pq", sigma_t, jt))))
    return DiagnosticsRecord(
        t=state.t, kinetic=kinetic, strain=strain, penetration_L3=pen,
        comp_residual=comp, friction_gap=gap, stick_slip_residual=ssr,
        newton_iters=newton_iters)


def run_with_records(problem: config_mod.Problem, on_record=None):
    """Integrate a built problem, producing a DiagnosticsRecord per state.

    Returns (states, records, infos).  Without ``on_record`` states holds
    every state; with it, ``on_record(state, record, info)`` sees each
    state as it is accepted and states holds the final state alone.
    This is the sweeps' run function; any function of the same signature
    that calls on_record for every state of the problem's run, such as
    one that replays stored runs, may take its place.
    """
    records = []
    states = []

    def hook(state, info):
        rec = record(state, problem.ops,
                     newton_iters=0 if info is None else info.iterations)
        records.append(rec)
        if on_record is None:
            states.append(state)
        else:
            on_record(state, rec, info)

    last, infos = timestepper.run(
        problem.ops, problem.params, problem.u0, problem.v0, on_step=hook)
    return (states if on_record is None else last), records, infos


# ---------------------------------------------------------------------------
# variational-inequality residual
# ---------------------------------------------------------------------------

def vi_residual(u, v, a, t, trial, ops: Operators) -> float:
    """Inequality residual of the regularized evolution at one instant.

    For a state satisfying the regularized force balance the returned
    value is nonnegative for every admissible trial field, up to the
    Newton/CG solve tolerance.  The trial enters the crack terms as the
    velocity trial - gamma*u at displacement u, whose crack_state gives
    its contact argument and slip.  At trial = gamma*u + v the value is
    zero: exactly at gamma = 0, otherwise up to rounding, because
    (gamma*u + v) - gamma*u is v only up to rounding.  Trials must vanish
    on the Dirichlet dofs.
    """
    con = ops.dofmap.constrained
    if np.any(trial[con] != 0.0):
        raise ValueError("trial field violates the Dirichlet constraints")
    gamma = ops.contact.gamma
    eps = ops.contact.epsilon
    dz = trial - (gamma * u + v)
    val = float(a @ (ops.mass @ dz)) + float(u @ (ops.stiffness @ dz))
    val -= float(ops.load(t) @ dz)
    quad = ops.quad
    u_c, v_c = u[quad.crack_dofs], v[quad.crack_dofs]
    s, jt, g = interface.crack_state(u_c, v_c, t, ops.contact, quad)
    s_trial, jt_trial, _ = interface.crack_state(
        u_c, trial[quad.crack_dofs] - gamma * u_c, t, ops.contact, quad, g=g)
    val += float(np.sum(quad.weights * (
        interface.psi_eps(s_trial, eps) - interface.psi_eps(s, eps))))
    val += float(np.sum(quad.weights * g * (     # g = 0 without friction
        interface.phi_eps(jt_trial, eps) - interface.phi_eps(jt, eps))))
    return val


# ---------------------------------------------------------------------------
# invariant checks: `crackdyn verify` and the acceptance battery
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """A named invariant: verdict, one-line detail and measured value."""

    name: str
    ok: bool
    detail: str
    value: float


def check_monotone(n_pairs: int, seed) -> Check:
    """Smallest monotonicity product of beta_eps and alpha_eps over
    n_pairs random pairs in [-5, 5] per regularization scale.  ``seed``
    may be a Generator, so that several checks share one stream."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    for eps in (1.0, 1e-2, 1e-4):
        x, y = rng.uniform(-5.0, 5.0, (2, n_pairs))
        worst = min(worst, float(np.min(
            (interface.beta_eps(x, eps) - interface.beta_eps(y, eps)) * (x - y))))
        a, b = rng.uniform(-5.0, 5.0, (2, n_pairs, 2))
        da = interface.alpha_eps(a, eps) - interface.alpha_eps(b, eps)
        worst = min(worst, float(np.min(np.einsum("nd,nd->n", da, a - b))))
    return Check("regularization-monotone", worst >= -1e-12,
                 f"worst monotonicity product {worst:.3e}", worst)


def check_gradients(n_points: int, seed) -> Check:
    """Central differences (h = 1e-3, 5e-4) against dbeta_eps and
    dalpha_eps at n_points random points per regularization scale, away
    from zero so no stencil straddles beta's kink or alpha's curvature
    spike.  beta is branchwise quadratic, so its difference is exact up
    to rounding (1e-8 of the derivative's scale); halving h must cut
    alpha's error by about 4 (0.35 leaves slack for rounding).  The value
    is the largest error over its allowance."""
    rng = np.random.default_rng(seed)
    name, worst, detail = "regularization-gradients", 0.0, ""
    for eps in (1.0, 1e-2, 1e-4):
        x = rng.uniform(0.05, 3.0, n_points)
        x *= rng.choice([-1.0, 1.0], n_points)
        allowed = 1e-8 * (1.0 + float(np.max(np.abs(
            interface.dbeta_eps(x, eps)))))
        for h in (1e-3, 5e-4):
            fd = (interface.beta_eps(x + h, eps)
                  - interface.beta_eps(x - h, eps)) / (2 * h)
            err = float(np.max(np.abs(fd - interface.dbeta_eps(x, eps))))
            worst = max(worst, err / allowed)
            if err > allowed:
                return Check(name, False, f"beta gradient error {err:.3e} "
                                          f"at eps={eps}, h={h}", worst)
        r = rng.uniform(0.05, 2.0, n_points)
        th = rng.uniform(0.0, 2.0 * np.pi, n_points)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        d = rng.standard_normal((n_points, 2))
        d /= np.linalg.norm(d, axis=1)[:, None]
        errs = []
        for h in (1e-3, 5e-4):
            fd = (interface.alpha_eps(pts + h * d, eps)
                  - interface.alpha_eps(pts - h * d, eps)) / (2 * h)
            exact = np.einsum("nce,ne->nc", interface.dalpha_eps(pts, eps), d)
            errs.append(float(np.max(np.abs(fd - exact))))
        allowed = max(0.35 * errs[0], 1e-9)
        worst = max(worst, errs[1] / allowed)
        if errs[1] > allowed:
            return Check(name, False, f"alpha gradient not O(h^2): {errs} "
                                      f"at eps={eps}", worst)
        detail = f"alpha FD errors {errs[0]:.2e} -> {errs[1]:.2e}"
    return Check(name, True, detail, worst)


def check_kernel(mesh, stiffness) -> Check:
    """Largest relative residual of K on the three rigid-body modes."""
    xy = mesh.vertices
    modes = (np.tile([1.0, 0.0], mesh.n_vertices),
             np.tile([0.0, 1.0], mesh.n_vertices),
             np.column_stack([-xy[:, 1], xy[:, 0]]).ravel())
    knorm = float(np.abs(stiffness).max())
    worst = max(float(np.abs(stiffness @ m).max())
                / (knorm * max(np.abs(m).max(), 1.0)) for m in modes)
    return Check("rigid-body-kernel", worst <= 1e-12,
                 f"relative kernel residual {worst:.3e}", worst)


def check_normal_traction(problem: config_mod.Problem, states) -> Check:
    """Largest normal traction over the states (0 on a crack-free mesh);
    the model requires sigma_n <= 0."""
    contact, quad = problem.ops.contact, problem.ops.quad
    worst = 0.0 if quad.n_pairs == 0 else max(
        float(interface.recover_tractions(interface.crack_state(
            s.u[quad.crack_dofs], s.v[quad.crack_dofs], s.t, contact, quad),
            contact)[0].max()) for s in states)
    return Check("normal-traction-nonpositive", worst <= 0.0,
                 f"max sigma_n {worst:.3e}", worst)


def check_friction_bound(records) -> Check:
    """Largest excess of |sigma_t| over g; the model allows none."""
    gap = max(r.friction_gap for r in records)
    return Check("friction-bound-respected", gap == 0.0,
                 f"max friction gap {gap:.3e}", gap)


def check_energy_decay(records) -> Check:
    """Worst per-step rise of kinetic + strain energy, allowed up to 1e-8
    of the initial energy: an unloaded run may only dissipate."""
    e = [r.kinetic + r.strain for r in records]
    rise = max(b - a for a, b in zip(e, e[1:]))
    tol = 1e-8 * e[0]
    return Check("energy-decay", rise <= tol,
                 f"worst per-step rise {rise:.3e} vs tol {tol:.3e}", rise)


def check_energy(config: config_mod.Config, records) -> Check:
    """The energy check that applies to a configuration: decay without
    loads at gamma = 0, at most 10*(gamma+1)^2 E(0) without loads at
    gamma > 0, and finiteness with loads."""
    e = [r.kinetic + r.strain for r in records]
    if config.f is not None or config.trac is not None:
        return Check("energy-finite", all(math.isfinite(x) for x in e),
                     f"final energy {e[-1]:.3e}", e[-1])
    if config.gamma == 0.0:
        return check_energy_decay(records)
    bound = 10.0 * (config.gamma + 1.0) ** 2 * e[0]
    return Check("energy-bounded", max(e) <= bound,
                 f"max energy {max(e):.3e} vs bound {bound:.3e}", max(e))


def check_vi(problem: config_mod.Problem, states, infos, n_points: int,
             n_trials: int, seed) -> Check:
    """Smallest vi_residual over n_trials random unit perturbations of
    z = gamma*u + v at up to n_points balance points spread evenly over
    the run.  Each point is held to -10 times the absolute Newton
    tolerance of its step; the detail names the point nearest its bound."""
    pts = timestepper.weighted_points(states, infos, problem.params)
    idx = np.linspace(0, len(pts) - 1, n_points).round().astype(int)
    rng = np.random.default_rng(seed)
    worst, ok, nearest = math.inf, True, (math.inf, 0.0)
    for i in np.unique(idx) if pts else ():
        t_w, u_w, v_w, a_w, tol_abs = pts[i]
        z = problem.ops.contact.gamma * u_w + v_w
        low = math.inf
        for _ in range(n_trials):
            w = problem.ops.dofmap.zero_constrained(
                rng.standard_normal(z.shape))
            w /= np.linalg.norm(w)
            low = min(low, vi_residual(u_w, v_w, a_w, t_w, z + w,
                                       problem.ops))
        bound = -10.0 * tol_abs
        ok = ok and low >= bound
        worst = min(worst, low)
        if low - bound < nearest[0] - nearest[1]:
            nearest = (low, bound)
    return Check("vi-inequality", ok,
                 f"min residual {worst:.3e}; nearest its bound "
                 f"{nearest[0]:.3e} vs {nearest[1]:.3e}", worst)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    value: float
    int_pen3_dt: float
    sup_penetration: float
    max_acc_h: float
    dist_to_finest: float
    cauchy_dist: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    fitted_order: float


def _state_distance(ops: Operators, s1: fem.State, s2: fem.State) -> float:
    du = s1.u - s2.u
    dv = s1.v - s2.v
    return math.sqrt(float(dv @ (ops.mass @ dv)) + float(du @ (ops.stiffness @ du)))


def _run_metrics(problem: config_mod.Problem, run):
    """(final state, time integral of the cubed penetration norm, its
    supremum, largest acceleration H-norm) of one run, taken from the
    states as they arrive."""
    ts, pens, acc, final = [], [], 0.0, None
    mass, rho = problem.ops.mass, problem.config.material.rho

    def on_record(state, rec, info):
        nonlocal acc, final
        ts.append(rec.t)
        pens.append(rec.penetration_L3)
        acc = max(acc, math.sqrt(max(fem.h_norm_sq(mass, rho, state.a), 0.0)))
        final = state

    run(problem, on_record)
    cubed = np.array(pens) ** 3
    int_pen3 = float(np.sum(0.5 * (cubed[1:] + cubed[:-1]) * np.diff(ts)))
    return final, int_pen3, max(pens), acc


def _sweep(config: config_mod.Config, field: str, values, run):
    """Run a configuration with ``field`` (epsilon or gamma: the mass and
    stiffness matrices stay) set to each value in turn, keeping each
    final state; distances are to the last run and to the previous one."""
    runs = []
    for value in values:
        problem = config_mod.build_problem(replace(config, **{field: value}))
        runs.append((value, *_run_metrics(problem, run)))
    ops, last = problem.ops, runs[-1][1]
    rows = []
    for k, (value, final, int3, sup_pen, acc) in enumerate(runs):
        dist = _state_distance(ops, final, last)
        cauchy = (_state_distance(ops, final, runs[k - 1][1])
                  if k else float("nan"))
        rows.append(SweepRow(value, int3, sup_pen, acc, dist, cauchy))
    return tuple(rows)


def epsilon_sweep(config: config_mod.Config, eps_list,
                  run=run_with_records) -> SweepResult:
    """Re-run a configuration over decreasing regularization scales.

    Reports the time integral of the cubed penetration norm, its
    supremum, the largest acceleration H-norm, distances between runs,
    and the least-squares slope of log(integral) against log(epsilon).
    Every value is checked before the first run."""
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ConfigError("need at least 3 epsilon values for a sweep")
    if not all(0.0 < e < math.inf for e in eps_list):
        raise ConfigError("epsilon values must be positive and finite")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("epsilon values must be strictly decreasing")
    rows = _sweep(config, "epsilon", eps_list, run)
    logs = [(math.log(e), math.log(r.int_pen3_dt))
            for e, r in zip(eps_list, rows) if r.int_pen3_dt > 0.0]
    order = (float(np.polyfit(*zip(*logs), 1)[0]) if len(logs) >= 2
             else float("nan"))
    return SweepResult(rows=rows, fitted_order=order)


def gamma_sweep(config: config_mod.Config, gamma_list,
                run=run_with_records) -> tuple[SweepRow, ...]:
    """Re-run over a family of gamma values; no decay fit is implied.
    Every value is checked before the first run."""
    gamma_list = [float(g) for g in gamma_list]
    if not gamma_list:
        raise ConfigError("need at least one gamma value")
    if not all(0.0 <= g < math.inf for g in gamma_list):
        raise ConfigError("gamma values must be nonnegative and finite")
    return _sweep(config, "gamma", gamma_list, run)
