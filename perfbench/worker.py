"""Child process of run.py: one client running ``crackdyn run`` in process.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the source tree, the work directory, the configuration text,
the measuring time and whether to trace.  Runs follow one another (a
closed loop with one client) until the time is up; at least one run is
made.  After each untraced run the set-up alone (``parse_config`` and
``build_problem``) is repeated for a tenth of that run's time, so set-up
samples are spread over the whole measurement like the runs are, and
then the calibration kernel is timed for another tenth.  In a traced
measurement each untraced run is followed by a traced run of the
same configuration, so their outputs and times can be compared.  Raw
samples go to ``results.json`` in the work directory; run.py checks the
outputs and turns the samples into metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from probes import RunClock, Tracer, e2e_probes, trace_probes

SHARE = 0.1       # set-up and calibration time after each run, per unit run time


def calibration_kernel(n: int) -> float:
    """Seconds for a fixed mix of the work crackdyn does per Newton
    iteration, at n unknowns: CG-like banded sparse products and vector
    updates, sparse construction, and Python-level loops.  The repeat
    count falls with n so the kernel takes tens of milliseconds at any
    size.  It uses numpy and scipy only, so a change to crackdyn cannot
    change it; run.py divides the gated timings by its median to take
    the machine's speed out."""
    import numpy as np
    import scipy.sparse as sp
    band = max(2, int(n ** 0.5))
    offsets = [0, 1, -1, band, -band, band + 1, -band - 1, band - 1, -band + 1]
    a = sp.diags([np.full(n - abs(k), -1.0 if k else 9.0) for k in offsets],
                 offsets).tocsr()
    x = np.linspace(0.0, 1.0, n)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(max(3, round(80_000 / (320 + n / 8)))):
        p = x.copy()
        for _ in range(4):
            q = a @ p
            p = 0.5 * q / float(q @ q) ** 0.5 + x
        acc += sum(float(v) for v in p[:16])
        acc += sp.diags(p).tocsr().nnz
    return time.perf_counter() - t0


def repeat(timed, budget_s: float) -> list[float]:
    """Samples of ``timed()`` until they add up to ``budget_s``; at least one."""
    samples = [timed()]
    while sum(samples) < budget_s:
        samples.append(timed())
    return samples


def _run_cli(cli, cfg_path: Path):
    """(exit code, error text) of ``crackdyn run CFG``."""
    try:
        return cli.main(["run", str(cfg_path)]), None
    except SystemExit as exc:
        return exc.code, f"SystemExit({exc.code!r})"
    except Exception:
        return None, traceback.format_exc()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import numpy
    import scipy

    import crackdyn.cli
    import crackdyn.config

    work = Path(spec["work"])
    notes: list[str] = []
    clock = RunClock()
    tracer = Tracer()
    installed: set[str] = set()

    def write_config(tag: str, text: str) -> Path:
        path = work / f"{tag}.cfg"
        path.write_text(text.replace("@OUTDIR@", str(work / tag)))
        return path

    def run(tag: str, traced: bool) -> dict:
        cfg_path = write_config(tag, spec["config_text"])
        clock.reset()
        tracer.clear()
        if traced:
            with trace_probes(tracer, notes) as names, \
                    e2e_probes(clock, notes, tracer):
                installed.update(names)
                code, error = _run_cli(crackdyn.cli, cfg_path)
            tracer.write_spans(work / f"{tag}_spans.csv")
        else:
            with e2e_probes(clock, notes):
                code, error = _run_cli(crackdyn.cli, cfg_path)
        setup_s = solve_s = None
        stamps = clock.record_times
        if clock.setup_end is not None and stamps:
            setup_s = clock.setup_end - clock.setup_start
            solve_s = stamps[-1] - clock.setup_end
        return {
            "tag": tag,
            "traced": traced,
            "exit": code,
            "error": error,
            "setup_s": setup_s,
            "solve_s": solve_s,
            "step_s": [b - a for a, b in zip(stamps, stamps[1:])],
            "newton_iters_accepted": sum(i.iterations for i in clock.infos),
            "substeps": sum(i.substeps for i in clock.infos),
            "bisected_steps": sum(i.substeps > 1 for i in clock.infos),
            "spans": tracer.summary() if traced else {},
            "counts": dict(tracer.counts) if traced else {},
        }

    def setup_once() -> float:
        clock.reset()
        crackdyn.config.build_problem(crackdyn.config.parse_config(setup_cfg))
        return clock.setup_end - clock.setup_start

    def repeat_setup(budget_s: float) -> list[float]:
        with e2e_probes(clock, notes):
            return repeat(setup_once, budget_s)

    setup_cfg = write_config("setup", spec["config_text"])

    # Pay lazy imports and first-call costs before anything is timed.
    with e2e_probes(clock, []):
        _run_cli(crackdyn.cli, write_config("warmup", spec["warmup_text"]))

    runs = []
    setups = []
    calibration = []
    deadline = time.perf_counter() + spec["seconds"]
    while not runs or time.perf_counter() < deadline:
        runs.append(run(f"run_{len(runs):03d}", traced=False))
        if spec["trace"]:
            runs.append(run(f"run_{len(runs):03d}", traced=True))
        elif runs[-1]["solve_s"] is not None:
            budget = SHARE * runs[-1]["solve_s"]
            setups += repeat_setup(budget)
            calibration += repeat(
                lambda: calibration_kernel(spec["calibration_dofs"]), budget)

    result = {
        "setups": setups,
        "calibration": calibration,
        "runs": runs,
        "notes": sorted(set(notes)),
        "installed": sorted(installed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    (work / "results.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
