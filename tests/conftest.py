"""Shared fixtures.

The "impact" problem is the workhorse: a 2 x 1 plate with a horizontal
crack at mid-height, hit by a Gaussian displacement pulse above the
crack.  Several slow tests share trajectories through a session-scoped
cache keyed by (gamma, epsilon).
"""

import dataclasses

import pytest

from crackdyn import config as config_mod
from crackdyn import diagnostics

IMPACT_TEXT = """\
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
gamma = 0.0
epsilon = 1e-2
g = 0.05

[time]
t_end = 0.5
dt = 2.5e-3

[data]
u0 = (0, -0.1*exp(-((x-0.9)^2 + (y-0.75)^2)/0.02))
"""


def impact_config(gamma=0.0, epsilon=1e-2):
    cfg = config_mod.parse_config_text(IMPACT_TEXT)
    return dataclasses.replace(cfg, epsilon=epsilon, gamma=gamma)


class RunCache:
    """Memoized impact trajectories: (gamma, epsilon) -> (problem, states,
    records, infos)."""

    def __init__(self):
        self._runs = {}

    def get(self, gamma=0.0, epsilon=1e-2):
        key = (float(gamma), float(epsilon))
        if key not in self._runs:
            problem = config_mod.build_problem(impact_config(*key))
            states, records, infos = diagnostics.run_with_records(problem)
            self._runs[key] = (problem, states, records, infos)
        return self._runs[key]


@pytest.fixture(scope="session")
def impact_runs():
    return RunCache()
