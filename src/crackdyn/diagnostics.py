"""Run-time monitors: interface-condition residuals, energy bookkeeping,
the invariant checks that `crackdyn verify` and the acceptance tests
share, parameter sweeps and a one-degree-of-freedom reference problem.

The scalar analog (OneDofParams) runs on the production stepper,
timestepper.run; one_dof_oracle integrates it by brute-force RK4, so the
two can be compared without a second copy of the implicit scheme.

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
from .timestepper import Operators, TimeParams

__all__ = [
    "DiagnosticsRecord",
    "CSV_COLUMNS",
    "record",
    "run_with_records",
    "vi_residual",
    "weighted_points",
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
    "StabilityResult",
    "stability_probe",
    "OneDofParams",
    "one_dof_oracle",
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
    This is the sweeps' and the stability probe's run function; any
    function of the same signature that calls on_record for every state
    of the problem's run, such as one that replays stored runs, may take
    its place.
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


def weighted_points(states, infos, params: TimeParams):
    """(t, u, v, a, tol_abs) at the points where the force balance was
    enforced, reconstructed from consecutive trajectory states.

    Intervals that were internally bisected are skipped: their balance
    points do not lie on the stored grid.
    """
    g = params.newmark_g
    out = []
    for k, info in enumerate(infos):
        if info.substeps != 1:
            continue
        s0, s1 = states[k], states[k + 1]
        out.append((
            (1.0 - g) * s0.t + g * s1.t,
            (1.0 - g) * s0.u + g * s1.u,
            (1.0 - g) * s0.v + g * s1.v,
            (1.0 - g) * s0.a + g * s1.a,
            info.tol_abs,
        ))
    return out


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
    pts = weighted_points(states, infos, problem.params)
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


# ---------------------------------------------------------------------------
# continuous dependence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityResult:
    eta: float
    sup_distance: float
    growth_rate: float
    times: tuple[float, ...]
    distances: tuple[float, ...]


def stability_probe(config: config_mod.Config, eta: float,
                    run=run_with_records) -> StabilityResult:
    """Distance between a run and one with initial displacement scaled by
    1 + eta, measured in the combined energy norm at every step as the
    perturbed run goes; only the base run's states are stored."""
    if not eta >= 0:
        raise ValueError("eta must be nonnegative")
    base = []
    problem = config_mod.build_problem(config)
    run(problem, lambda state, rec, info: base.append(state))
    dists = []

    def on_step(state, info):
        dists.append(_state_distance(problem.ops, base[len(dists)], state))

    timestepper.run(problem.ops, problem.params, (1.0 + eta) * problem.u0,
                    problem.v0, on_step=on_step)
    ts = [s.t for s in base]
    floor = max(max(dists), 1.0) * 1e-300
    logs = np.log(np.maximum(dists, floor))
    rate = float(np.polyfit(ts, logs, 1)[0]) if len(ts) >= 2 else float("nan")
    return StabilityResult(
        eta=eta, sup_distance=float(max(dists)), growth_rate=rate,
        times=tuple(ts), distances=tuple(dists))


# ---------------------------------------------------------------------------
# one-degree-of-freedom reference problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneDofParams:
    """Scalar analog: rho*u'' + k*u + beta_eps(gamma*u + u') +
    g*alpha_eps(u') = forcing(t).

    It is also a system for timestepper.run (a length-1 residual, whose
    point is the weighted (u, v), and a 1x1 Newton matrix), so the production
    stepper integrates it:
    ``timestepper.run(p, TimeParams(t_end, dt), p.u0, p.v0)``.
    """

    rho: float = 1.0
    k: float = 1.0
    gamma: float = 0.0
    epsilon: float = 1e-2
    g: float = 0.0
    u0: float = 0.0
    v0: float = 0.0
    forcing: object = None            # callable t -> float, or None

    free = np.zeros(1, dtype=np.int64)    # the stepper's system: one unknown

    def __post_init__(self):
        if self.rho <= 0 or self.k <= 0:
            raise ValueError("rho and k must be positive")
        if self.epsilon <= 0 or self.gamma < 0 or self.g < 0:
            raise ValueError("invalid regularization or friction parameters")

    @property
    def period(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.rho / self.k)

    def load(self, t: float) -> np.ndarray:
        return np.full(1, 0.0 if self.forcing is None else self.forcing(t))

    def interval(self, u_w, v_w, a_w, ca, cu, cv, t_w, load_w):
        """The stepper's Newton problem on the weighted state u_w +
        cu*a, v_w + cv*a, a_w + ca*a: (residual, newton_matrix), with
        the point (u, v) of the weighted state."""
        lin = ca * self.rho + cu * self.k
        const = self.rho * a_w + self.k * u_w - load_w

        def residual(a):
            u, v = u_w + cu * a, v_w + cv * a
            r = (lin * a + const
                 + interface.beta_eps(self.gamma * u + v, self.epsilon)
                 + self.g * interface.alpha_eps(v, self.epsilon))
            return r, (u, v)

        def newton_matrix(point):
            u, v = point
            jac = (lin + interface.dbeta_eps(self.gamma * u + v, self.epsilon)
                   * (self.gamma * cu + cv)
                   + self.g * interface.dalpha_eps(v, self.epsilon)[0] * cv)
            return jac.reshape(1, 1)

        return residual, newton_matrix

    def initial_state(self, u0: float, v0: float) -> fem.State:
        u, v = np.full(1, float(u0)), np.full(1, float(v0))
        residual, _ = self.interval(u, v, np.zeros(1), 1.0, 0.0, 0.0, 0.0,
                                    self.load(0.0))
        return fem.State(0.0, u, v, -residual(np.zeros(1))[0] / self.rho)


def one_dof_oracle(p: OneDofParams, sample_times, dt_fine: float):
    """Brute-force explicit RK4 reference trajectory.

    dt_fine must not exceed 1e-5 of the linear period; each interval
    between requested samples is subdivided evenly so the samples are
    hit exactly.  Returns (u, v) arrays aligned with sample_times.
    """
    if dt_fine > 1e-5 * p.period:
        raise ValueError("dt_fine too coarse for an oracle "
                         f"(need <= {1e-5 * p.period:.3e})")
    forcing = p.forcing if p.forcing is not None else (lambda t: 0.0)
    inv_rho = 1.0 / p.rho

    def acc(t, u, v):
        s = p.gamma * u + v
        m = -s if s < 0.0 else 0.0
        contact = -(m * m) / p.epsilon
        friction = p.g * v / math.sqrt(v * v + p.epsilon * p.epsilon)
        return (forcing(t) - p.k * u - contact - friction) * inv_rho

    sample_times = [float(t) for t in sample_times]
    t = sample_times[0]
    u, v = p.u0, p.v0
    us, vs = [u], [v]
    for t_next in sample_times[1:]:
        span = t_next - t
        n = max(1, int(math.ceil(span / dt_fine - 1e-12)))
        h = span / n
        for i in range(n):
            ti = t + i * h
            k1u = v
            k1v = acc(ti, u, v)
            k2u = v + 0.5 * h * k1v
            k2v = acc(ti + 0.5 * h, u + 0.5 * h * k1u, v + 0.5 * h * k1v)
            k3u = v + 0.5 * h * k2v
            k3v = acc(ti + 0.5 * h, u + 0.5 * h * k2u, v + 0.5 * h * k2v)
            k4u = v + h * k3v
            k4v = acc(ti + h, u + h * k3u, v + h * k3v)
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t = t_next
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)
