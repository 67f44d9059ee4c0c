"""Implicit time integration of the semidiscrete contact problem.

Newmark kinematics with parameters (b, g):

    u+ = u + dt*v + dt^2*((1/2 - b)*a + b*a+)
    v+ = v + dt*((1 - g)*a + g*a+)

The nonlinear force balance is enforced at the g-weighted state
x_g = (1-g)*x + g*x+ and time t + g*dt.  For the default trapezoidal
pair (b, g) = (1/4, 1/2) this is the midpoint evaluation, which makes
the interface terms dissipate exactly (they are tested against their
own arguments); g = 1 recovers the fully implicit end-of-step balance.
The Newton unknown is the end-of-step acceleration on the free dofs;
each Newton system is solved by Jacobi-PCG, only as accurately as the
step needs (an inexact Newton method).  When the crack terms make the
system nonlinear, its relative tolerance is the forcing term eta_k of
Eisenstat and Walker (choice 2 of "Choosing the forcing terms in an
inexact Newton method", SIAM J. Sci. Comput. 17(1), 1996), set from
the measured contraction of the residual:

    eta_k = min(0.1, 0.9*(|r_k|/|r_(k-1)|)^2)             k >= 1
    eta_0 = min(0.1, max(_CG_FORCING, 0.1*rho))           k = 0

where rho = |r_1|/|r_0| of the previous accepted interval of the same
run (StepInfo.contraction), and eta_0 = _CG_FORCING = 1e-6 on a run's
first interval or after one that took no Newton iteration.  Solving
more accurately than Newton's own progress allows is wasted work:
Newton cannot gain more than the nonlinearity lets it.  Eisenstat and
Walker's safeguard, eta_k >= 0.9*eta_(k-1)^2 once that exceeds 0.1,
cannot act under the 0.1 cap and is left out.  The halves of a bisected
interval are solved with eta_k = _CG_FORCING throughout: Newton failed
on the whole interval, so its contractions do not describe them, and
the lag of eta_k behind a sudden speed-up of Newton can cost the
iteration a tight newton_maxit has no room for.  No CG tolerance falls
below _CG_FLOOR*tol_abs/|r| (a tenth of the Newton tolerance over the
current residual) or _CG_TOL.  A linear system (no crack, or no contact
and no friction on the step) is solved down to the floor, so a linear
step still takes one Newton iteration.  Acceptance always tests the
true residual.  The forcing history travels with the run (step takes
the previous StepInfo), never with the system, so a run's output
depends only on its inputs.

The residual is the gradient of a convex potential of a+ and the Newton
matrix its Hessian, so each Newton direction is followed by a line
search on that potential (_line_search).  Bisecting the interval is the
last resort: newton_maxit ran out or a value was not finite.

The stepper holds only the Newmark kinematics, Newton, the line search
and bisection: step advances a state by one interval, and run is the
one way through a run, a generator of each accepted state with its
StepInfo.  The system it integrates has four members:
``free``, the Newton unknowns; ``load(t)``, the load vector at t, zero
on the constrained dofs; ``interval(u_w, v_w, a_w, ca, cu, cv, t_w,
load_w)``; and ``initial_state(u0, v0)``, the State at t = 0 with the
constraints imposed, incompatible data warned about and the consistent
acceleration.  Once per Newmark interval the stepper hands ``interval``
the g-weighted state at a+ = 0, its derivatives ca, cu and cv in a+
(the stepper alone knows the Newmark scheme), t_w and load_w.  It
returns (residual, newton_matrix) on free-dof vectors: residual(a)
gives (r, point), the force balance on the free dofs at the weighted
state of a+ = a and what the system evaluated there;
newton_matrix(point) is the derivative of r in a at that point, as an
operator with ``@`` and diagonal() for fem.solve_spd (and ``nonlinear``
false if it may be solved as a linear system).  The end-of-step State
is built once, for the accepted a+.  The mesh problem's system is
Operators, whose point is the interface.crack_state; the test suite's
scalar analog (tests/oracles.py), whose point is the weighted (u, v),
is a second.  Both take their initial acceleration from their interval
at ca = 1, cu = cv = 0.  weighted_points recovers from a run's states
the points at which it enforced the force balance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem, interface
from .fem import DofMap, Material, State
from .interface import ContactParams, CrackQuadrature

__all__ = [
    "TimeParams",
    "Operators",
    "build_operators",
    "CompatibilityWarning",
    "StepFailure",
    "step",
    "run",
    "StepInfo",
    "weighted_points",
]

_CG_TOL = 1e-12
_MAX_HALVINGS = 5
_COMPAT_TOL = 1e-10
_LS_ETA = 0.5           # line-search slope test, relative to |phi'(0)|
_LS_MAX_EVALS = 20      # residual evaluations per line search
_LS_CLAMP = 0.1         # trials stay this share of the bracket inside it
_CG_FORCING = 1e-6      # forcing term without a measured contraction
_CG_FORCING_MAX = 0.1   # loosest forcing term
_CG_FLOOR = 0.1         # no CG solve below this share of tol_abs


class CompatibilityWarning(UserWarning):
    """Initial data violates the interface compatibility conditions."""


class StepFailure(RuntimeError):
    """Newton failed to converge even after repeated step halving."""

    def __init__(self, message, t, dt, residual, iterations):
        super().__init__(message)
        self.t = t
        self.dt = dt
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class TimeParams:
    """Time grid and solver controls.

    newmark_b in [0, 1/2], newmark_g in [1/2, 1]; the defaults give the
    second-order non-dissipative scheme.  newton_tol is relative to the
    larger of the load norm and the initial Newton residual of the step.
    """

    t_end: float
    dt: float
    newmark_b: float = 0.25
    newmark_g: float = 0.5
    newton_tol: float = 1e-10
    newton_maxit: int = 30

    def __post_init__(self):
        if not self.t_end >= 0:
            raise ValueError("t_end must be nonnegative")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not self.t_end / self.dt < np.inf:
            raise ValueError("t_end/dt must be finite")
        if not 0.0 <= self.newmark_b <= 0.5:
            raise ValueError("newmark_b must lie in [0, 1/2]")
        if not 0.5 <= self.newmark_g <= 1.0:
            raise ValueError("newmark_g must lie in [1/2, 1]")
        if not 0 < self.newton_tol < np.inf:
            raise ValueError("newton_tol must be positive and finite")
        if self.newton_maxit < 1:
            raise ValueError("newton_maxit must be at least 1")


@dataclass
class StepInfo:
    """Newton bookkeeping for one accepted step: Newton iterations,
    final residual and tolerance, substeps, line_search, the residual
    evaluations beyond one per Newton iteration, and contraction,
    |r_1|/|r_0| of the first Newton iteration of the step's last
    interval (None if it took none), from which the next step sets its
    first forcing term."""

    iterations: int
    residual: float
    tol_abs: float
    substeps: int = 1
    line_search: int = 0
    contraction: float | None = None


@dataclass
class Operators:
    """Assembled, mesh-bound operators: the mesh problem's system."""

    mesh: object
    dofmap: DofMap
    contact: ContactParams
    quad: CrackQuadrature
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    load_form: fem.LoadForm
    _jac_cache: dict = field(default_factory=dict, repr=False)

    @property
    def free(self) -> np.ndarray:
        return self.dofmap.free

    def load(self, t: float) -> np.ndarray:
        """The load vector at t, zero on the constrained dofs."""
        vec = fem.assemble_load(self.load_form, t)
        vec[self.dofmap.constrained] = 0.0
        return vec

    def energy(self, u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
        """(kinetic, strain) energy of the nodal fields (u, v):
        v.M.v/2 and u.K.u/2."""
        return (0.5 * float(v @ (self.mass @ v)),
                0.5 * float(u @ (self.stiffness @ u)))

    def pin(self, a: sp.csr_matrix) -> sp.csr_matrix:
        """Impose the Dirichlet constraints: keep the free rows and columns."""
        return a[self.free][:, self.free].tocsr()

    def linear_jacobian(self, ca: float, cu: float):
        """(ca*M + cu*K on the free dofs, its diagonal), cached: one
        combination of their data (fem.combine), then pinned."""
        key = (ca, cu)
        if key not in self._jac_cache:
            lin = self.pin(fem.combine(self.mass, self.stiffness, ca, cu))
            self._jac_cache[key] = (lin, lin.diagonal())
        return self._jac_cache[key]

    def interval(self, u_w, v_w, a_w, ca, cu, cv, t_w, load_w):
        """(residual, newton_matrix) of a Newton problem whose weighted
        state is u_w + cu*a, v_w + cv*a, a_w + ca*a at time t_w, for a
        free-dof vector a.

        residual(a) returns (r, crack): the force balance M a_w + K u_w
        + contact + friction - load_w on the free dofs, and the
        interface.crack_state it was formed from.  Its linear part is
        the cached free-dof matrix ca*M + cu*K times a, plus a constant
        formed here once, so an evaluation makes one product with it and
        otherwise touches the crack dofs alone, recovering the tractions
        and scattering the pairs' summed forces once.  newton_matrix(crack)
        is the derivative of r in a at that crack state: the same matrix
        plus a dense PSD crack-dof block, the pairs' summed tangents
        scattered once.  g is sampled once, at t_w.
        """
        lin, lin_diag = self.linear_jacobian(ca, cu)
        contact, quad = self.contact, self.quad
        slots = quad.crack_free
        const = (self.mass @ a_w + self.stiffness @ u_w - load_w)[self.free]
        u_c, v_c = u_w[quad.crack_dofs], v_w[quad.crack_dofs]
        g = interface.friction_bound_values(contact, quad, t_w)

        def residual(a):
            a_c = a[slots]
            crack = interface.crack_state(u_c + cu * a_c, v_c + cv * a_c,
                                          t_w, contact, quad, g=g)
            sigma_n, sigma_t = interface.recover_tractions(crack, contact)
            r = lin @ a
            r += const
            r[slots] += quad.scatter(
                interface.contact_residual(sigma_n, quad)
                + interface.friction_residual(sigma_t, quad))
            return r, crack

        def newton_matrix(crack):
            block = quad.scatter(
                interface.contact_tangent(crack, contact, quad,
                                          coeff_u=cu, coeff_v=cv)
                + interface.friction_tangent(crack, contact, quad,
                                             coeff_v=cv))
            return _NewtonMatrix(lin, lin_diag, slots, block)

        return residual, newton_matrix

    def initial_state(self, u0: np.ndarray, v0: np.ndarray) -> State:
        """State at t = 0: u0 and v0 zeroed on the constrained dofs and the
        consistent acceleration.  The interval at ca = 1, cu = cv = 0
        gives the force balance r at a = 0, and the acceleration solves
        M a = -r with its linear part, M on the free dofs.

        Emits CompatibilityWarning (never fatal) if the initial crack jumps
        violate the conditions under which the model is well posed.
        """
        u0 = self.dofmap.zero_constrained(u0)
        v0 = self.dofmap.zero_constrained(v0)
        a0 = np.zeros(self.dofmap.ndof)
        residual, _ = self.interval(u0, v0, a0, 1.0, 0.0, 0.0, 0.0,
                                    self.load(0.0))
        r, crack = residual(a0[self.free])
        self._check_compatibility(crack)
        mass, _ = self._jac_cache.pop((1.0, 0.0))   # needed at t = 0 alone
        a0[self.free] = fem.solve_spd(mass, -r, tol=_CG_TOL)
        return State(0.0, u0, v0, a0)

    def _check_compatibility(self, crack) -> None:
        s, jt, _ = crack
        worst = float(np.abs(s).max(initial=0.0))
        if worst > _COMPAT_TOL:
            warnings.warn(
                f"initial data violates the normal compatibility condition "
                f"on the crack (|gamma*u_n + v_n| jump up to {worst:.3e})",
                CompatibilityWarning, stacklevel=3)
        worst_t = float(np.linalg.norm(jt, axis=-1).max(initial=0.0))
        if worst_t > _COMPAT_TOL:
            warnings.warn(
                f"initial velocity has a tangential jump across the crack "
                f"(up to {worst_t:.3e})", CompatibilityWarning, stacklevel=3)


class _NewtonMatrix:
    """Free-dof Newton matrix: the linear part plus a dense block on the
    crack slots.  Provides what solve_spd uses: ``@`` and diagonal()."""

    def __init__(self, lin, lin_diag, slots, block):
        self.lin, self.slots, self.block = lin, slots, block
        self.nonlinear = bool(block.any())     # crack terms are active
        self._diag = lin_diag.copy()
        self._diag[slots] += np.diagonal(block)

    def diagonal(self) -> np.ndarray:
        return self._diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.lin @ x
        y[self.slots] += self.block @ x[self.slots]
        return y


def build_operators(mesh, material: Material, contact: ContactParams,
                    f=None, trac=None) -> Operators:
    """Assemble mass and stiffness, and bind the loads to their quadrature
    points, once (the crack quadrature binds g on first use);
    Operators.load evaluates what depends on t."""
    dofmap = DofMap(mesh)
    quad = CrackQuadrature(mesh, dofmap)
    mass = fem.assemble_mass(mesh, material)
    stiffness = fem.assemble_stiffness(mesh, material)
    del mesh.vertex_graph           # read by the assembly alone
    return Operators(
        mesh=mesh,
        dofmap=dofmap,
        contact=contact,
        quad=quad,
        mass=mass,
        stiffness=stiffness,
        load_form=fem.LoadForm(mesh, material, f, trac),
    )


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _interval(state: State, dt: float, ops, params: TimeParams):
    """Newton problem of one Newmark interval in the end-of-step
    acceleration a+ on the free dofs: (residual, newton_matrix, load_w,
    end).  residual and newton_matrix are the system's, set up from the
    g-weighted state at a+ = 0 and its derivatives in a+; end(a+) is the
    end-of-step State, built once, for the accepted a+."""
    b = params.newmark_b
    g = params.newmark_g

    u_pred = state.u + dt * state.v + dt * dt * (0.5 - b) * state.a
    v_pred = state.v + dt * (1.0 - g) * state.a
    du = b * dt * dt          # d(u+)/d(a+)
    dv = g * dt               # d(v+)/d(a+)
    cu, cv = g * du, g * dv   # d(u_w)/d(a+), d(v_w)/d(a+); d(a_w)/d(a+) = g

    t_w = state.t + g * dt
    load_w = ops.load(t_w)
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.linalg.norm(load_w))
    if not finite:
        what = "load norm" if np.isfinite(load_w).all() else "load"
        raise StepFailure(f"{what} is not finite at t={t_w:.6g}", t=state.t,
                          dt=dt, residual=np.nan, iterations=0)
    residual, newton_matrix = ops.interval(
        (1.0 - g) * state.u + g * u_pred, (1.0 - g) * state.v + g * v_pred,
        (1.0 - g) * state.a, g, cu, cv, t_w, load_w)

    def end(a_free):
        a_plus = np.zeros_like(state.a)
        a_plus[ops.free] = a_free
        return State(state.t + dt, u_pred + du * a_plus, v_pred + dv * a_plus,
                     a_plus)

    return residual, newton_matrix, load_w, end


def _line_search(residual, a, d, r):
    """Move a along the Newton direction d, in place.

    The residual is the gradient of the step's convex potential Pi and
    the Newton matrix its Hessian, so phi(s) = Pi(a + s*d) is convex and
    phi'(s) = r(a + s*d) @ d is nondecreasing, with phi'(0) < 0.
    The full step is kept when phi'(1) <= eta*|phi'(0)|.  Otherwise
    [0, 1] brackets the minimizer, and Illinois regula falsi on phi'
    shrinks it until a trial has |phi'| <= eta*|phi'(0)| or
    _LS_MAX_EVALS residuals have been evaluated; the last trial is kept.
    r is the residual at a.  Returns (residual(a), evaluations beyond
    the first), or None on a non-finite slope or a d that does not
    descend.
    """
    slope0 = float(r @ d)
    if not slope0 < 0.0:
        return None
    bound = -_LS_ETA * slope0
    a += d
    lo, s_lo, alpha = 0.0, slope0, 1.0
    moved = 0       # end of the bracket replaced last: +1 hi, -1 lo
    evals = 1
    while True:
        out = residual(a)
        slope = float(out[0] @ d)
        if not np.isfinite(slope):
            return None
        done = slope <= bound if evals == 1 else abs(slope) <= bound
        if done or evals == _LS_MAX_EVALS:
            return out, evals - 1
        # Illinois: an end kept twice in a row has its slope halved
        if slope > 0.0:
            hi, s_hi = alpha, slope
            if moved > 0:
                s_lo *= 0.5
            moved = 1
        else:
            lo, s_lo = alpha, slope
            if moved < 0:
                s_hi *= 0.5
            moved = -1
        margin = _LS_CLAMP * (hi - lo)
        trial = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        trial = min(max(trial, lo + margin), hi - margin)
        a += (trial - alpha) * d
        alpha = trial
        evals += 1
        del out     # free the rejected trial before evaluating the next


def _solve_substep(state: State, dt: float, ops, params: TimeParams,
                   rho: float | None, adaptive: bool):
    """One Newmark interval by Newton with a line search on the step's
    potential.  Its forcing terms are adaptive, the first set from rho,
    the previous accepted interval's contraction (None: there is none),
    or, if not adaptive, all _CG_FORCING.  Returns (new_state,
    StepInfo), with new_state None if Newton did not converge within
    newton_maxit iterations or met a non-finite value."""
    residual, newton_matrix, load_w, end = _interval(state, dt, ops, params)
    a = state.a[ops.free]
    r, point = residual(a)
    norm_r = float(np.linalg.norm(r))
    tol_abs = params.newton_tol * max(float(np.linalg.norm(load_w)), norm_r)
    iterations = line_search = 0
    contraction = None
    eta = (_CG_FORCING if rho is None or not adaptive
           else min(_CG_FORCING_MAX, max(_CG_FORCING, 0.1 * rho)))
    while (norm_r > tol_abs and np.isfinite(norm_r)
           and iterations < params.newton_maxit):
        jac = newton_matrix(point)
        # inexact Newton: a CG iterate from zero still descends (r.d < 0)
        forcing = eta if getattr(jac, "nonlinear", True) else 0.0
        cg_tol = max(_CG_TOL, forcing, _CG_FLOOR * tol_abs / norm_r)
        d = fem.solve_spd(jac, -r, tol=cg_tol)
        del jac     # free the crack block before the line search
        found = _line_search(residual, a, d, r)
        iterations += 1
        if found is None:
            break
        (r, point), evals = found
        line_search += evals
        norm_prev, norm_r = norm_r, float(np.linalg.norm(r))
        ratio = norm_r / norm_prev
        if iterations == 1:
            contraction = ratio
        if adaptive:
            eta = min(_CG_FORCING_MAX, 0.9 * ratio * ratio)
    new = end(a) if norm_r <= tol_abs < np.inf else None
    return new, StepInfo(iterations=iterations, residual=norm_r,
                         tol_abs=tol_abs, line_search=line_search,
                         contraction=contraction)


def _advance(state: State, dt: float, ops, params, rho, depth: int):
    """Solve the interval, or else its halves, recursively.  Newton
    failing is evidence that the contraction history does not describe
    the interval, so the halves are solved with the fixed forcing term."""
    new, info = _solve_substep(state, dt, ops, params, rho,
                               adaptive=depth == 0)
    if new is not None:
        return new, info
    if depth >= _MAX_HALVINGS:
        where = (f"at t={state.t:.6g} with dt={dt:.3e} after "
                 f"{_MAX_HALVINGS} halvings")
        if np.isfinite(info.residual):
            message = (f"Newton stalled {where} (residual "
                       f"{info.residual:.3e}, tolerance {info.tol_abs:.3e}, "
                       f"{info.iterations} iterations)")
        else:
            message = (f"Newton residual is not finite {where} "
                       f"({info.iterations} iterations)")
        raise StepFailure(message, t=state.t, dt=dt, residual=info.residual,
                          iterations=info.iterations)
    first, info1 = _advance(state, 0.5 * dt, ops, params, None, depth + 1)
    second, info2 = _advance(first, 0.5 * dt, ops, params, None, depth + 1)
    return second, StepInfo(
        iterations=info1.iterations + info2.iterations,
        residual=max(info1.residual, info2.residual),
        tol_abs=max(info1.tol_abs, info2.tol_abs),
        substeps=info1.substeps + info2.substeps,
        line_search=info1.line_search + info2.line_search,
        contraction=info2.contraction)


def step(state: State, t_next: float, ops, params: TimeParams,
         prev: StepInfo | None = None):
    """Advance to t_next; if Newton fails the interval is bisected up
    to five times before StepFailure is raised with diagnostics.  A
    load of non-finite norm raises StepFailure at once.  prev is the
    StepInfo of the run's previous step, whose contraction sets the
    first forcing term; without it the step is solved as a run's first."""
    dt = t_next - state.t
    if dt <= 0:
        raise ValueError("t_next must exceed the state time")
    if abs(dt - params.dt) <= 1e-9 * params.dt:
        dt = params.dt      # k*dt - (k-1)*dt is dt only up to rounding
    new, info = _advance(state, dt, ops, params,
                         None if prev is None else prev.contraction, depth=0)
    new.t = t_next
    return new, info


def run(ops, params: TimeParams, u0, v0):
    """Integrate from 0 to t_end on the uniform grid, yielding (state,
    info): the initial state with info None, then each accepted state
    with its StepInfo.  Each pair is yielded before the next step is
    solved, so a consumer can write it out before a possible failure,
    and nothing is kept.  As a generator, run starts only when iterated.
    """
    state, info = ops.initial_state(u0, v0), None
    yield state, info
    n_steps = max(int(np.ceil(params.t_end / params.dt - 1e-12)), 0)
    for k in range(1, n_steps + 1):
        t_next = min(k * params.dt, params.t_end)
        state, info = step(state, t_next, ops, params, info)
        yield state, info


def weighted_points(states, infos, params: TimeParams):
    """(t, u, v, a, tol_abs) at each step's balance point, the g-weighted
    state (1-g)*x + g*x+ at time t + g*dt, reconstructed from a run's
    states and the StepInfo of each step, infos[k] that of the step into
    states[k + 1].

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
