"""crackdyn benchmark: time to solution per workload, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload impact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A fresh child process (worker.py, BLAS and OpenMP pinned to one thread)
imports crackdyn from ``src/`` and runs ``crackdyn run CONFIG`` in
process, one run after another, for ``--seconds``.  This process checks
every run's ``diagnostics.csv`` (check.py) and prints each metric by
name and unit, then one JSON line:

    {"correct": ..., "attempted": runs, "failed": runs, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans around each module's public functions,
with each traced run paired with an untraced run of the same input.
README.md in this directory describes workloads, metrics and results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
from workloads import WARMUP, WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0    # one workload's process must end within 180 s
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Gated times are scaled to a machine on which worker.calibration_kernel,
# at the workload's number of unknowns, takes this long (roughly its
# median on the 2-CPU machine the benchmark was written on):
# time * CALIB_REF_S / median kernel time.  The raw wall times are
# printed next to them.
CALIB_REF_S = 0.03
# Printed and written to the BENCH file but left out of the JSON line:
# per-step percentiles pick up sub-second hiccups that calibration cannot
# remove, and their spread between invocations came too close to, or
# went past, the largest allowed bound (see README.md, Results).
UNGATED = ("step_ms.p50", "step_ms.tail")

# Per-layer metrics read from span summaries: (metric, span, field).
SPAN_METRICS = [
    ("meshing.generate_s", "meshing.generate", "total"),
    ("fem.assemble_s", "fem.assemble", "total"),
    ("config.build_problem_s", "config.build_problem", "total"),
    ("config.build_problem_self_s", "config.build_problem", "self"),
    ("fem.solve_spd_s", "fem.solve_spd", "total"),
    ("fem.solve_spd_calls", "fem.solve_spd", "calls"),
    ("timestepper.pin_s", "timestepper.pin", "total"),
    ("timestepper.pin_calls", "timestepper.pin", "calls"),
    ("interface.tangent_s", "interface.tangent", "total"),
    ("interface.tangent_calls", "interface.tangent", "calls"),
    ("interface.residual_s", "interface.residual", "total"),
    ("interface.residual_calls", "interface.residual", "calls"),
    ("timestepper.step_self_s", "timestepper.step", "self"),
    ("fem.assemble_load_s", "fem.assemble_load", "total"),
    ("fem.assemble_load_calls", "fem.assemble_load", "calls"),
    ("exprlang.evaluate_s", "exprlang.evaluate", "total"),
    ("exprlang.evaluate_calls", "exprlang.evaluate", "calls"),
    ("vtkio.write_s", "vtkio.write", "total"),
    ("diagnostics.record_s", "diagnostics.record", "total"),
    ("diagnostics.record_calls", "diagnostics.record", "calls"),
]
# Per-layer counters kept by the probes, reported under their own names.
COUNT_METRICS = ("fem.cg_iters", "vtkio.bytes",
                 "timestepper.newton_iters_attempted")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "vtkio.bytes":
        return "bytes"
    if metric == "timestepper.useful_iter_ratio":
        return "ratio"
    return "count"


def tail_percentile(n: int) -> float | None:
    """The highest of PERCENTILES with at least 10 of n samples beyond it."""
    ok = [p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10.0]
    return ok[-1] if ok else None


def describe(name: str, unit: str, samples) -> str:
    """Median, the highest percentile with >= 10 samples beyond, count."""
    n = len(samples)
    line = f"  {name:<14} median {statistics.median(samples):.6g} {unit}"
    p = tail_percentile(n)
    if p is not None and p > 50.0:
        line += f", p{p:g} {np.percentile(samples, p):.6g} {unit}"
    return line + f"  (n={n})"


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def load_reference(workload, variant: int):
    data = json.loads((HERE / "reference.json").read_text())
    return data["energy"][workload.name][str(variant)]


def measure(config_text: str, calibration_dofs: int, seconds: float,
            trace: bool, work: Path) -> dict:
    """Run the worker in a fresh process and return its results."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    spec = {
        "src": str(Path("src").resolve()),
        "work": str(work.resolve()),
        "config_text": config_text,
        "calibration_dofs": calibration_dofs,
        "warmup_text": WARMUP.config_text(0),
        "seconds": seconds,
        "trace": trace,
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **THREAD_PIN)
    with open(work / "worker.log", "w") as log:
        child = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise RuntimeError(f"worker exceeded the time limit; "
                               f"see {work / 'worker.log'}")
    if code != 0:
        raise RuntimeError(f"worker exited with {code}; "
                           f"see {work / 'worker.log'}")
    results = json.loads((work / "results.json").read_text())
    results["work"] = str(work)
    return results


def check_runs(workload, seed: int, results: dict) -> list[str]:
    """Checks every run; marks failed runs and returns the problems."""
    reference = load_reference(workload, workload.variant(seed))
    problems = []
    runs = results["runs"]
    for run in runs:
        found = []
        if run["exit"] != 0:
            found.append(f"exit {run['exit']}: {run['error'] or ''}".strip())
        if run["solve_s"] is None:
            found.append("no set-up or solve timestamps")
        csv_path = Path(results["work"]) / run["tag"] / "diagnostics.csv"
        if csv_path.exists():
            run["csv"] = csv_path.read_bytes()
            found += check.check_rows(check.read_csv(csv_path), workload, reference)
        else:
            found.append("no diagnostics.csv")
        run["failed"] = bool(found)
        problems += [f"{run['tag']}: {p}" for p in found]
    # A traced run must leave the program's output unchanged.
    for plain, traced in zip(runs[::2], runs[1::2]):
        if traced["traced"] and plain.get("csv") != traced.get("csv"):
            traced["failed"] = True
            problems.append(f"{traced['tag']}: diagnostics.csv differs from "
                            f"untraced {plain['tag']}")
    return problems


def e2e_metrics(workload, results: dict, lines: list) -> dict:
    ok = [r for r in results["runs"] if not r["failed"]]
    if not ok:
        return {}
    setups = results["setups"] + [r["setup_s"] for r in ok]
    solves = [r["solve_s"] for r in ok]
    steps_ms = [1000.0 * s for r in ok for s in r["step_s"]]
    p = workload.tail_pct
    tail = float(np.percentile(steps_ms, p))
    beyond = sum(s > tail for s in steps_ms)
    calibration = statistics.median(results["calibration"])
    scale = CALIB_REF_S / calibration
    rss_mb = results["peak_rss_mb"]
    lines += [
        "  raw wall times:",
        describe("setup_s", "s", setups),
        describe("solve_s", "s", solves),
        describe("step_ms.p50", "ms", steps_ms),
        f"  {'step_ms.tail':<14} p{p:g} {tail:.6g} ms  ({beyond} of "
        f"n={len(steps_ms)} beyond{'' if beyond >= 10 else ', fewer than 10'})",
        f"  calibration kernel median {calibration:.6g} s "
        f"(n={len(results['calibration'])}); times scaled by {scale:.4g}:",
    ]
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "solve_s": (statistics.median(solves) * scale, "s"),
        "step_ms.p50": (statistics.median(steps_ms) * scale, "ms"),
        "step_ms.tail": (tail * scale, "ms"),
    }
    lines += [f"  {m:<14} {v:.6g} {u}" for m, (v, u) in metrics.items()]
    lines.append(f"  {'peak_rss_mb':<14} {rss_mb:.6g} MB")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def layer_values(run: dict, installed: set) -> dict:
    """Per-layer metrics of one traced run; metrics whose probe is
    missing are left out."""
    spans, counts = run["spans"], run["counts"]
    out = {}
    for metric, span, field in SPAN_METRICS:
        if span in installed:
            out[metric] = spans.get(span, {}).get(field, 0)
    for counter in COUNT_METRICS:
        if counter in installed:
            out[counter] = counts.get(counter, 0)
    if "cli.main" in installed:
        out["cli.self_s"] = sum(spans.get(s, {}).get("self", 0.0)
                                for s in ("cli.main", "cli.on_record"))
    for key in ("newton_iters_accepted", "substeps", "bisected_steps"):
        out[f"timestepper.{key}"] = run[key]
    attempted = out.get("timestepper.newton_iters_attempted")
    if attempted:
        out["timestepper.useful_iter_ratio"] = run["newton_iters_accepted"] / attempted
    return out


def layer_metrics(results: dict, lines: list) -> dict:
    runs = results["runs"]
    traced = [r for r in runs if r["traced"] and not r["failed"]]
    plain = [r for r in runs if not r["traced"] and not r["failed"]]
    if not traced or not plain:
        return {}
    installed = set(results["installed"])
    per_run = [layer_values(r, installed) for r in traced]
    metrics = {m: (statistics.median_low(v[m] for v in per_run), unit_of(m))
               for m in per_run[0]}
    overhead = (statistics.median(r["solve_s"] for r in traced)
                - statistics.median(r["solve_s"] for r in plain))
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<38} {value:.6g} {unit}")
    return metrics


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = Path(".perfbench") / f"{name}-trace{int(trace)}"
    results = measure(workload.config_text(seed), workload.dofs, seconds,
                      trace, work)
    problems = check_runs(workload, seed, results)
    failed = sum(r["failed"] for r in results["runs"])
    attempted = len(results["runs"])
    lines = [f"{name}: seed {seed}, input variant {workload.variant(seed)}, "
             f"{'traced' if trace else 'untraced'}, {attempted} runs"]
    if trace:
        metrics = layer_metrics(results, lines)
    else:
        metrics = e2e_metrics(workload, results, lines)
    lines.append(f"  {'fail_rate':<14} {failed}/{attempted} = "
                 f"{failed / attempted:.3g}")
    lines += [f"  note: {n}" for n in results["notes"]]
    lines += [f"  FAILED {p}" for p in problems]
    print("\n".join(lines))
    meta = {
        "workload": name, "seed": seed, "variant": workload.variant(seed),
        "trace": int(trace), "seconds": seconds,
        "src_lines": src_line_count(Path(".")),
        "python": results["python"], "numpy": results["numpy"],
        "scipy": results["scipy"], "nproc": os.cpu_count(),
        "blas_pin": THREAD_PIN, "notes": results["notes"],
    }
    print(json.dumps(meta))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    (work.parent / f"BENCH_{name}_trace{int(trace)}.json").write_text(
        json.dumps(dict(meta, **result), indent=1))
    for m in UNGATED:
        result["metrics"].pop(m, None)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/crackdyn/__init__.py").is_file():
        print("perfbench: run from a crackdyn checkout (no src/crackdyn here)",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = bench(name, args.seed, args.seconds,
                                  bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {name}: {exc}", file=sys.stderr)
        return 3
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
