"""Output checks applied to every run's ``diagnostics.csv``.

A run passes when every row is finite, the last row is at ``t_end``,
``friction_gap`` is zero throughout, the energy never rises where the
model forbids it (gamma = 0, no load), and the energy trajectory stays
within the workload's tolerance of the reference recorded for the same
input variant.

The reference tolerance is a share of the reference's largest energy.
It is several times the change that halving dt makes (see README.md),
so a change in which intervals bisect or how Newton converges passes,
while a step accepted with a wrong state does not.
"""

from __future__ import annotations

import csv
import math

REQUIRED = ("t", "kinetic", "strain", "friction_gap", "newton_iters")
DECAY_RTOL = 1e-8      # the per-step rise `crackdyn verify` allows


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def energies(rows) -> list[float]:
    return [float(r["kinetic"]) + float(r["strain"]) for r in rows]


def check_rows(rows, workload, reference) -> list[str]:
    """Problems found in the rows of one run; empty when it passes."""
    if not rows:
        return ["diagnostics.csv has no rows"]
    missing = [c for c in REQUIRED if c not in rows[0]]
    if missing:
        return [f"diagnostics.csv lacks columns {missing}"]
    problems = []
    for k, row in enumerate(rows):
        if not all(math.isfinite(float(v)) for v in row.values()):
            problems.append(f"row {k} is not finite")
            break
    if problems:
        return problems
    if len(rows) != workload.n_steps + 1:
        problems.append(f"{len(rows)} rows, expected {workload.n_steps + 1}")
    if abs(float(rows[-1]["t"]) - workload.t_end) > 1e-12:
        problems.append(f"last t {rows[-1]['t']} is not t_end {workload.t_end}")
    gap = max(float(r["friction_gap"]) for r in rows)
    if gap != 0.0:
        problems.append(f"friction_gap reaches {gap!r}")

    energy = energies(rows)
    if workload.energy_decays:
        rise = max(b - a for a, b in zip(energy, energy[1:]))
        if rise > DECAY_RTOL * energy[0]:
            problems.append(f"energy rises by {rise:.3e} in one step")
    if len(reference) != len(energy):
        problems.append(f"{len(energy)} energies against "
                        f"{len(reference)} in the reference")
    else:
        scale = max(reference)
        worst = max(abs(a - b) for a, b in zip(energy, reference))
        if worst > workload.energy_rtol * scale:
            problems.append(f"energy departs from the reference by "
                            f"{worst / scale:.3e} of its peak "
                            f"(tolerance {workload.energy_rtol:.1e})")
    return problems
