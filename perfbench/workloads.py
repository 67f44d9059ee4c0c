"""The benchmark's workloads: crackdyn configurations made from a seed.

Every workload is a 2 x 1 plate (lambda = mu = rho = 1) with the crack
on y = 0.5 between x = 0.5 and x = 1.5, integrated with dt = 2.5e-3.
The seed picks one of ``VARIANTS`` input variants, so the same seed
always gives the same configuration text, and a reference energy
trajectory recorded for each variant (``reference.json``) can check
every run.  Variant 0 is the ``tests/conftest.py`` impact pulse.

Ranges set by the seed, narrow on purpose: the Newton work, and so the
run time, must move by no more than a few percent between seeds, or the
spread between seeds would hide the changes the timing bounds are meant
to catch.  Measured at the seed commit over the 8 variants:

* impact, fine: pulse centre x0 in [0.89, 0.91], y0 in [0.75, 0.755],
  amplitude in [0.099, 0.101].  Newton iterations on impact: 586 to 592.
  (Moving y0 down to 0.745 alone takes them from 591 to 654.)
* stiff: none.  At gamma = 10, epsilon = 1e-4 the bisection pattern is
  chaotic in the input: moving the pulse centre by 0.003 changes the
  attempted Newton iterations from 13,795 to 12,229.  The seed only
  names the run; the input is always the conftest pulse.
* driven: the phases of the friction bound, the two body-force
  components and the two traction components, each in [0, 0.2].
  Newton iterations: 385 to 399.  (Phases over [0, 2 pi) give 284 to 491.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = 8

_TEMPLATE = """\
[mesh]
kind = rect
width = 2.0
height = 1.0
nx = {nx}
ny = {ny}
crack_lo = 0.25
crack_hi = 0.75

[material]
lambda = 1.0
mu = 1.0
rho = 1.0

[contact]
gamma = {gamma}
epsilon = {epsilon}
g = {g}

[time]
t_end = {t_end}
dt = 2.5e-3

[data]
{data}

[output]
directory = @OUTDIR@
cadence = {cadence}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nx: int
    ny: int
    gamma: float
    epsilon: float
    t_end: float
    cadence: int
    driven: bool          # loads instead of an initial pulse
    seeded: bool          # whether the seed picks the variant
    tail_pct: float       # step_ms.tail percentile: >= 10 samples beyond it per run
    energy_rtol: float    # reference tolerance, a share of the largest energy

    @property
    def n_steps(self) -> int:
        return round(self.t_end / 2.5e-3)

    @property
    def dofs(self) -> int:
        """Unknowns of the uncracked mesh; the crack adds a few more."""
        return 2 * (self.nx + 1) * (self.ny + 1)

    @property
    def energy_decays(self) -> bool:
        """gamma = 0 and no load: the discrete energy cannot rise."""
        return self.gamma == 0.0 and not self.driven

    def variant(self, seed: int) -> int:
        return seed % VARIANTS if self.seeded else 0

    def config_text(self, seed: int) -> str:
        """Configuration text with an ``@OUTDIR@`` placeholder."""
        v = self.variant(seed)
        rng = np.random.default_rng([v, 2207])
        if self.driven:
            p = rng.uniform(0.0, 0.2, 5) if v else np.zeros(5)
            g = f"0.05*(1 + 0.5*sin(6*t + {p[0]:.6f}))*(1 + 0.2*cos(3*x))"
            data = (
                f"f = (0.2*sin(9*t + {p[1]:.6f})*exp(-((x-0.7)^2 + (y-0.3)^2)/0.05), "
                f"-0.5*sin(12*t + {p[2]:.6f})*exp(-((x-1.2)^2 + (y-0.7)^2)/0.05))\n"
                f"F = (0.05*cos(7*t + {p[3]:.6f})*x*(2-x), "
                f"-0.3*(1 - cos(10*t + {p[4]:.6f}))*sin(1.5707963*x))")
        else:
            g = "0.05"
            if v:
                x0 = rng.uniform(0.89, 0.91)
                y0 = rng.uniform(0.75, 0.755)
                amp = rng.uniform(0.099, 0.101)
            else:
                x0, y0, amp = 0.9, 0.75, 0.1
            data = f"u0 = (0, -{amp:.6g}*exp(-((x-{x0:.6g})^2 + (y-{y0:.6g})^2)/0.02))"
        return _TEMPLATE.format(
            nx=self.nx, ny=self.ny, gamma=self.gamma, epsilon=self.epsilon,
            g=g, t_end=self.t_end, data=data, cadence=self.cadence)


WORKLOADS = {w.name: w for w in [
    Workload(
        "impact",
        "conftest impact (320 dofs, eps 1e-2): fixed per-iteration costs, "
        "no bisection; the bulk of tier-1 test time",
        nx=16, ny=8, gamma=0.0, epsilon=1e-2, t_end=0.5, cadence=0,
        driven=False, seeded=True, tail_pct=99.0, energy_rtol=1.6e-4),
    Workload(
        "stiff",
        "same mesh at gamma 10, eps 1e-4: bound by Newton iteration count, "
        "about half the steps bisect",
        nx=16, ny=8, gamma=10.0, epsilon=1e-4, t_end=0.25, cadence=0,
        driven=False, seeded=False, tail_pct=90.0, energy_rtol=2e-4),
    Workload(
        "fine",
        "impact pulse on nx 128 (16,896 dofs): linear solve and mesh "
        "validation dominate; per-iteration fixed costs are small",
        nx=128, ny=64, gamma=0.0, epsilon=1e-2, t_end=0.25, cadence=0,
        driven=False, seeded=True, tail_pct=90.0, energy_rtol=2e-4),
    Workload(
        "driven",
        "nx 32 at rest under time- and space-dependent f, F and g, gamma 1, "
        "a VTK snapshot every step: exprlang, load assembly and output",
        nx=32, ny=16, gamma=1.0, epsilon=1e-2, t_end=0.5, cadence=1,
        driven=True, seeded=True, tail_pct=99.0, energy_rtol=8e-5),
]}

# A tiny problem of the same kind, run once before timing so that lazy
# imports and first-call set-up inside numpy and scipy are paid outside
# the measured runs.
WARMUP = Workload(
    "warmup", "", nx=4, ny=2, gamma=1.0, epsilon=1e-2, t_end=0.005,
    cadence=1, driven=True, seeded=False, tail_pct=50.0, energy_rtol=1.0)
