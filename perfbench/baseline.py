"""One-off traced pass over the impact problem at three epsilons.

Usage (from the repository root):

    python3 perfbench/baseline.py

Reproduces the baseline table of ROADMAP.md (gamma = 0, epsilon 1e-1,
1e-2 and 1e-4, conftest pulse, 200 steps): for each epsilon one
untraced run gives the wall time and one traced run the counts.  These
rows are notes in README.md, not benchmark workloads.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from run import layer_values, measure
from workloads import WORKLOADS

EPSILONS = (1e-1, 1e-2, 1e-4)


def main() -> int:
    print("| epsilon | wall time | Newton iterations accepted / attempted "
          "| substeps | bisected steps | CG iterations |")
    print("|---|---|---|---|---|---|")
    for eps in EPSILONS:
        workload = dataclasses.replace(WORKLOADS["impact"], epsilon=eps)
        results = measure(workload.config_text(0), workload.dofs, 0.0, True,
                          Path(".perfbench") / f"baseline-{eps:g}")
        plain, traced = results["runs"]
        if plain["exit"] != 0 or traced["exit"] != 0:
            print(f"epsilon {eps:g}: run failed", file=sys.stderr)
            return 1
        layer = layer_values(traced, set(results["installed"]))
        print(f"| {eps:g} | {plain['setup_s'] + plain['solve_s']:.2f} s "
              f"| {layer['timestepper.newton_iters_accepted']} / "
              f"{layer.get('timestepper.newton_iters_attempted', 'n/a')} "
              f"| {layer['timestepper.substeps']} "
              f"| {layer['timestepper.bisected_steps']} of {workload.n_steps} "
              f"| {layer.get('fem.cg_iters', 'n/a')} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
