"""Run-time monitors: interface-condition residuals, energy bookkeeping,
parameter sweeps and a one-degree-of-freedom reference problem.

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

import numpy as np

from . import config as config_mod
from . import fem, interface, timestepper
from .timestepper import Operators, TimeParams

__all__ = [
    "DiagnosticsRecord",
    "CSV_COLUMNS",
    "record",
    "energy",
    "first_estimate_monitor",
    "run_with_records",
    "vi_residual",
    "weighted_points",
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
    eps = ops.contact.epsilon
    kinetic = 0.5 * float(state.v @ (ops.mass @ state.v))
    strain = 0.5 * float(state.u @ (ops.stiffness @ state.u))
    pen = comp = gap = ssr = 0.0
    if quad.n_pairs:
        s = interface.contact_argument(state.u, state.v, ops.contact, quad)
        m = interface.neg_part(s)
        pen = float(np.sum(quad.weights * m ** 3)) ** (1.0 / 3.0)
        comp = float(np.sum(quad.weights * np.abs(
            interface.beta_eps(s, eps) * s)))
        _, jt = interface.split_jump(interface.jump_eval(state.v, quad), quad)
        # sigma_t as interface.recover_tractions forms it, from the jumps
        # and the g evaluated here once (zero without friction)
        g = interface.friction_bound_values(ops.contact, quad, state.t)
        sigma_t = g[..., None] * interface.alpha_eps(jt, eps)
        st_norm = np.linalg.norm(sigma_t, axis=-1)
        gap = float(np.maximum(st_norm - g, 0.0).max())
        slip = np.linalg.norm(jt, axis=-1)
        ssr = float(np.sum(quad.weights * np.abs(
            g * slip - np.einsum("pqd,pqd->pq", sigma_t, jt))))
    return DiagnosticsRecord(
        t=state.t, kinetic=kinetic, strain=strain, penetration_L3=pen,
        comp_residual=comp, friction_gap=gap, stick_slip_residual=ssr,
        newton_iters=newton_iters)


def energy(state: fem.State, ops: Operators) -> float:
    """Kinetic plus strain energy of a state."""
    return (0.5 * float(state.v @ (ops.mass @ state.v))
            + 0.5 * float(state.u @ (ops.stiffness @ state.u)))


def first_estimate_monitor(state: fem.State, ops: Operators) -> float:
    """rho*|v|_H^2 + |u|_V^2/2, the functional the a priori bound controls."""
    return (float(state.v @ (ops.mass @ state.v))
            + 0.5 * float(state.u @ (ops.stiffness @ state.u)))


def run_with_records(problem: config_mod.Problem, on_record=None):
    """Integrate a built problem, producing a DiagnosticsRecord per state."""
    records = []

    def hook(state, info):
        rec = record(state, problem.ops,
                     newton_iters=0 if info is None else info.iterations)
        records.append(rec)
        if on_record is not None:
            on_record(state, rec, info)

    states, infos = timestepper.run(
        problem.ops, problem.params, problem.u0, problem.v0, on_step=hook)
    return states, records, infos


# ---------------------------------------------------------------------------
# variational-inequality residual
# ---------------------------------------------------------------------------

def vi_residual(u, v, a, t, trial, ops: Operators) -> float:
    """Inequality residual of the regularized evolution at one instant.

    For a state satisfying the regularized force balance the returned
    value is nonnegative for every admissible trial field, up to the
    Newton/CG solve tolerance; it is exactly zero for trial = gamma*u+v.
    Trials must vanish on the Dirichlet dofs.
    """
    con = ops.dofmap.constrained
    if np.any(trial[con] != 0.0):
        raise ValueError("trial field violates the Dirichlet constraints")
    gamma = ops.contact.gamma
    eps = ops.contact.epsilon
    z = gamma * u + v
    dz = trial - z
    val = float(a @ (ops.mass @ dz)) + float(u @ (ops.stiffness @ dz))
    val -= float(ops.load(t) @ dz)
    quad = ops.quad
    if quad.n_pairs:
        jn_trial = interface._normal_jump(trial, quad)
        jn_z = interface._normal_jump(z, quad)
        val += float(np.sum(quad.weights * (
            interface.psi_eps(jn_trial, eps) - interface.psi_eps(jn_z, eps))))
        if ops.contact.g is not None:
            g = interface.friction_bound_values(ops.contact, quad, t)
            _, jt_u = interface.split_jump(interface.jump_eval(u, quad), quad)
            _, jt_v = interface.split_jump(interface.jump_eval(v, quad), quad)
            _, jt_trial = interface.split_jump(interface.jump_eval(trial, quad), quad)
            val += float(np.sum(quad.weights * g * (
                interface.phi_eps(jt_trial - gamma * jt_u, eps)
                - interface.phi_eps(jt_v, eps))))
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


def _run_metrics(cfg: config_mod.Config):
    problem = config_mod.build_problem(cfg)
    states, records, infos = run_with_records(problem)
    ts = np.array([r.t for r in records])
    pen = np.array([r.penetration_L3 for r in records])
    cubed = pen ** 3
    int_pen3 = float(np.sum(0.5 * (cubed[1:] + cubed[:-1]) * np.diff(ts)))
    acc = max(math.sqrt(max(fem.h_norm_sq(problem.ops.mass,
                                          problem.ops.material.rho, s.a), 0.0))
              for s in states)
    return problem, states, records, infos, int_pen3, float(pen.max()), acc


def _sweep(config: config_mod.Config, field: str, values):
    """Re-run a configuration with ``field`` set to each value in turn;
    distances are to the last run and to the previous one."""
    runs = []
    for value in values:
        problem, states, records, infos, int3, sup_pen, acc = _run_metrics(
            replace(config, **{field: value}))
        runs.append((value, problem, states, int3, sup_pen, acc))
    ops = runs[-1][1].ops
    last_final = runs[-1][2][-1]
    rows = []
    for k, (value, problem, states, int3, sup_pen, acc) in enumerate(runs):
        dist = _state_distance(ops, states[-1], last_final)
        cauchy = (_state_distance(ops, states[-1], runs[k - 1][2][-1])
                  if k else float("nan"))
        rows.append(SweepRow(value, int3, sup_pen, acc, dist, cauchy))
    return tuple(rows)


def epsilon_sweep(config: config_mod.Config, eps_list) -> SweepResult:
    """Re-run a configuration over decreasing regularization scales.

    Reports the time integral of the cubed penetration norm, its
    supremum, the largest acceleration H-norm, distances between runs,
    and the least-squares slope of log(integral) against log(epsilon).
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ValueError("need at least 3 epsilon values for a sweep")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon values must be strictly decreasing")
    rows = _sweep(config, "epsilon", eps_list)
    logs = [(math.log(e), math.log(r.int_pen3_dt))
            for e, r in zip(eps_list, rows) if r.int_pen3_dt > 0.0]
    if len(logs) >= 2:
        xs, ys = zip(*logs)
        order = float(np.polyfit(xs, ys, 1)[0])
    else:
        order = float("nan")
    return SweepResult(rows=rows, fitted_order=order)


def gamma_sweep(config: config_mod.Config, gamma_list) -> tuple[SweepRow, ...]:
    """Re-run over a family of gamma values; no decay fit is implied."""
    gamma_list = [float(g) for g in gamma_list]
    if not gamma_list:
        raise ValueError("need at least one gamma value")
    if any(g < 0 for g in gamma_list):
        raise ValueError("gamma values must be nonnegative")
    return _sweep(config, "gamma", gamma_list)


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


def stability_probe(config: config_mod.Config, eta: float) -> StabilityResult:
    """Distance between a run and one with initial displacement scaled by
    1 + eta, measured in the combined energy norm at every step."""
    if not eta >= 0:
        raise ValueError("eta must be nonnegative")
    problem = config_mod.build_problem(config)
    base, _ = timestepper.run(problem.ops, problem.params, problem.u0, problem.v0)
    pert, _ = timestepper.run(problem.ops, problem.params,
                              (1.0 + eta) * problem.u0, problem.v0)
    ts = [s.t for s in base]
    dists = [_state_distance(problem.ops, s1, s2) for s1, s2 in zip(base, pert)]
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

    It is also a system for timestepper.run (a length-1 residual and a
    1x1 Newton matrix), so the production stepper integrates it:
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

    def residual(self, u_w, v_w, a_w, t_w, load_w) -> np.ndarray:
        return (self.rho * a_w + self.k * u_w
                + interface.beta_eps(self.gamma * u_w + v_w, self.epsilon)
                + self.g * interface.alpha_eps(v_w, self.epsilon) - load_w)

    def newton_matrix(self, u_w, v_w, t_w, dt, b, g) -> np.ndarray:
        du, dv = b * dt * dt, g * dt
        jac = (g * (self.rho + du * self.k)
               + interface.dbeta_eps(self.gamma * u_w + v_w, self.epsilon)
               * g * (self.gamma * du + dv)
               + self.g * interface.dalpha_eps(v_w, self.epsilon)[0] * g * dv)
        return jac.reshape(1, 1)

    def initial_state(self, u0: float, v0: float) -> fem.State:
        u, v = np.full(1, float(u0)), np.full(1, float(v0))
        r = self.residual(u, v, np.zeros(1), 0.0, self.load(0.0))
        return fem.State(0.0, u, v, -r / self.rho)


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
