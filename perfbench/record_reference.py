"""Record the reference energy trajectory of every workload input variant.

Usage (from the repository root):

    python3 perfbench/record_reference.py

Runs ``crackdyn run`` once per variant, with BLAS pinned to one thread
as in the benchmark, and writes ``perfbench/reference.json``: for each
workload and variant, kinetic + strain energy at every output step.
check.py compares every benchmark run against it, so record it only at
a commit whose output is trusted, and say so in the commit message.
"""

from __future__ import annotations

import os

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, "src")

import check  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402

from crackdyn import cli  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> int:
    work = Path(".perfbench") / "reference"
    work.mkdir(parents=True, exist_ok=True)
    energy = {}
    for name, workload in WORKLOADS.items():
        energy[name] = {}
        for variant in range(VARIANTS if workload.seeded else 1):
            outdir = work / f"{name}-{variant}"
            cfg = work / f"{name}-{variant}.cfg"
            cfg.write_text(workload.config_text(variant)
                           .replace("@OUTDIR@", str(outdir)))
            if cli.main(["run", str(cfg)]) != 0:
                print(f"{name} variant {variant}: run failed", file=sys.stderr)
                return 1
            values = check.energies(check.read_csv(outdir / "diagnostics.csv"))
            energy[name][str(variant)] = [float(f"{e:.12g}") for e in values]
            print(f"{name} variant {variant}: {len(values)} steps, "
                  f"peak energy {max(values):.6g}", flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    (HERE / "reference.json").write_text(json.dumps(
        {"recorded_at": commit or "unknown", "energy": energy}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
