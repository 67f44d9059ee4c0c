"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import check  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from crackdyn import fem, timestepper  # noqa: E402


def test_missing_target_is_skipped_with_a_note(monkeypatch):
    targets = probes.LAYER_TARGETS + [
        ("timestepper.gone", "crackdyn.timestepper", "Operators.gone", None),
        ("fem.gone", "crackdyn.fem", "no_such_function", None),
        ("nomodule.gone", "crackdyn.no_such_module", "f", None),
    ]
    monkeypatch.setattr(probes, "LAYER_TARGETS", targets)
    notes = []
    original_solve = fem.solve_spd
    with probes.trace_probes(probes.Tracer(), notes) as installed:
        assert fem.solve_spd is not original_solve
        assert "fem.solve_spd" in installed and "fem.cg_iters" in installed
    assert fem.solve_spd is original_solve
    assert not {"timestepper.gone", "fem.gone", "nomodule.gone"} & installed
    assert len(notes) == 3 and all(n.startswith("missing ") for n in notes)


def test_missing_pin_drops_only_its_metrics(monkeypatch):
    monkeypatch.delattr(timestepper.Operators, "pin")
    notes = []
    with probes.trace_probes(probes.Tracer(), notes) as installed:
        pass
    assert "timestepper.pin" not in installed
    assert any("Operators.pin" in n for n in notes)
    run_record = {"spans": {}, "counts": {}, "newton_iters_accepted": 6,
                  "substeps": 2, "bisected_steps": 0}
    values = run.layer_values(run_record, installed)
    assert "timestepper.pin_s" not in values
    assert "timestepper.pin_calls" not in values
    assert values["fem.solve_spd_calls"] == 0
    assert values["timestepper.newton_iters_accepted"] == 6


def test_self_time_excludes_children():
    tracer = probes.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
    tracer.wrap("outer", outer_fn)()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert outer["self"] == pytest.approx(outer["total"] - summary["inner"]["total"])
    assert 0.0 <= outer["self"] < outer["total"]


def test_counting_matrix_counts_cg_iterations():
    tracer = probes.Tracer()
    n = 30
    a = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
                 [-1, 0, 1]).tocsr()
    rhs = np.arange(n, dtype=float)
    plain = fem.solve_spd(a, rhs)
    counted = fem.solve_spd(probes.CountingMatrix(a, tracer), rhs)
    assert np.array_equal(plain, counted)
    assert tracer.counts["fem.cg_iters"] > 0


def _reference_rows(workload, energies):
    dt = workload.t_end / workload.n_steps
    return [{"t": repr(k * dt), "kinetic": repr(e), "strain": "0.0",
             "friction_gap": "0.0", "newton_iters": "3"}
            for k, e in enumerate(energies)]


def test_check_accepts_reference_and_rejects_a_wrong_state():
    workload = WORKLOADS["impact"]
    energies = [1.0 - 1e-3 * k / workload.n_steps for k in range(workload.n_steps + 1)]
    rows = _reference_rows(workload, energies)
    assert check.check_rows(rows, workload, energies) == []

    # One step accepted with a wrong state: energy off by 1 % of its peak.
    bad = [e - (1e-2 if k >= 150 else 0.0) for k, e in enumerate(energies)]
    problems = check.check_rows(_reference_rows(workload, bad), workload, energies)
    assert any("reference" in p for p in problems)

    rising = list(energies)
    rising[100] += 1e-5
    problems = check.check_rows(_reference_rows(workload, rising), workload, rising)
    assert any("rises" in p for p in problems)

    rows[-1]["friction_gap"] = "1e-300"
    rows[3]["kinetic"] = "nan"
    problems = check.check_rows(rows, workload, energies)
    assert problems == ["row 3 is not finite"]
