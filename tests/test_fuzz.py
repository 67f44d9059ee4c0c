"""A deterministic property test over generated configurations.

Each case is a small configuration drawn with a seeded numpy generator:
random exprlang expressions (now and then with a syntax error), mesh
specs, edge-case numbers and snapshot cadences.  Whatever the input,
``crackdyn run`` must end with exit code 0, 2 or 3 and, unless it
succeeds, a last line that says why; it must never raise past ``main``,
print a traceback, succeed with a non-finite CSV row or a missing
snapshot, or start a process.
"""

import math
import multiprocessing

import numpy as np
import pytest

from crackdyn import cli

N_CASES = 50
MESSAGES = ("config error: ", "file error: ", "solver failure: ")
# The case whose v0, near 1e300, gives an initial energy that is not
# finite, and the cases whose huge but finite body force has a norm that
# overflows: at t = 0, which is bad data, and first at a step's t_w,
# which fails that step at once, without halving it.
NONFINITE_CASE = 28
NORM_CASE = 14
OVERFLOW_CASE = 39

ATOMS = ["x", "y", "t", "0", "1", "0.5", "2", "1e-300", "1e300", "800"]
FUNCTIONS = ["sin", "cos", "exp", "sqrt", "abs"]
OPERATORS = ["+", "-", "*", "/", "^"]


def pick(rng, options):
    return options[rng.integers(len(options))]


def expression(rng, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return pick(rng, ATOMS)
    if roll < 0.5:
        return f"{pick(rng, FUNCTIONS)}({expression(rng, depth - 1)})"
    if roll < 0.6:
        return (f"{pick(rng, ['min', 'max'])}({expression(rng, depth - 1)}, "
                f"{expression(rng, depth - 1)})")
    if roll < 0.95:
        return (f"({expression(rng, depth - 1)} {pick(rng, OPERATORS)} "
                f"{expression(rng, depth - 1)})")
    return "-" + expression(rng, depth - 1)


def field(rng, scale):
    """A vector expression, small enough to run most of the time."""
    parts = [f"{scale}*{expression(rng)}" if rng.random() < 0.7 else "0"
             for _ in range(2)]
    text = f"({parts[0]}, {parts[1]})"
    if rng.random() < 0.05:     # a syntax error somewhere
        cut = rng.integers(len(text))
        text = text[:cut] + pick(rng, ["$", ")", ",", "^^"]) + text[cut:]
    return text


# Edge cases, one of which may replace a line of the sound base config.
EDGES = {
    "width": ["1e-3", "0.0", "-1.0", "1e300", "inf"],
    "height": ["1e-3", "0.0", "nan"],
    "nx": ["1", "0", "-2", "2.5"],
    "ny": ["3", "0", "64000000"],
    "crack_lo": ["0.8", "0.0", "-1.0", "0.5"],
    "crack_hi": ["0.2", "1.0", "2.0", "0.5"],
    "lambda": ["0.0", "-1.0", "1e300", "nan"],
    "mu": ["0.0", "1e-300", "-1.0"],
    "rho": ["1e-3", "0.0", "inf"],
    "gamma": ["10.0", "1e300", "-1.0"],
    "epsilon": ["1e-4", "1e-12", "0.0", "1e300"],
    "g": ["0", "-1", "nan", "exp(800*t)"],
    "dt": ["1e-3", "0.0", "-0.05", "1e300"],
    "t_end": ["0.0", "-1.0", "0.06", "1e9"],
    "newton_maxit": ["0", "1", "2"],
    "newmark_b": ["0.0", "0.3025", "0.5"],
    "newmark_g": ["0.6", "0.4", "1.0"],
    "cadence": ["-1", "x", "1e2"],
}


def generated_config(rng, outdir):
    dt = pick(rng, [0.05, 0.02, 0.01])
    cadence = pick(rng, [0, 0, 1, 2, 3])
    values = {
        "width": "2.0", "height": "1.0",
        "nx": str(pick(rng, [2, 4, 4, 8])), "ny": str(pick(rng, [2, 4])),
        "crack_lo": "0.25", "crack_hi": "0.75",
        "lambda": "1.0", "mu": "1.0", "rho": "1.0",
        "gamma": pick(rng, ["0.0", "1.0"]), "epsilon": "1e-2",
        "g": pick(rng, ["0.05", expression(rng, 2)]),
        "dt": str(dt), "t_end": str(int(rng.integers(1, 6)) * dt),
        "cadence": str(cadence),
    }
    if rng.random() < 0.2:
        del values["crack_lo"], values["crack_hi"]
    if rng.random() < 0.2:
        del values["g"]
    if rng.random() < 0.5:
        key = pick(rng, sorted(EDGES))
        values[key] = pick(rng, EDGES[key])

    def keys(*names):
        return [f"{name} = {values[name]}" for name in names if name in values]

    sections = {
        "mesh": ["kind = rect"] + keys("width", "height", "nx", "ny",
                                       "crack_lo", "crack_hi"),
        "material": keys("lambda", "mu", "rho"),
        "contact": keys("gamma", "epsilon", "g"),
        "time": keys("t_end", "dt", "newton_maxit", "newmark_b", "newmark_g"),
        "data": [f"{name} = {field(rng, scale)}"
                 for name, scale in (("u0", 0.05), ("v0", 0.1), ("f", 0.5),
                                     ("F", 0.2)) if rng.random() < 0.5],
        "output": [f"directory = {outdir}", f"cadence = {values['cadence']}"],
    }
    return "".join(f"[{name}]\n" + "".join(line + "\n" for line in body)
                   for name, body in sections.items())


def cases():
    rng = np.random.default_rng(20221)
    return [generated_config(rng, "@OUT@") for _ in range(N_CASES)]


def test_generated_configs_end_cleanly(tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)
    seen = set()
    for k, template in enumerate(cases()):
        outdir = tmp_path / f"case{k:02d}"
        text = template.replace("@OUT@", str(outdir))
        cfg = tmp_path / f"case{k:02d}.cfg"
        cfg.write_text(text)
        code = cli.main(["run", str(cfg)])
        err = capfd.readouterr().err
        context = f"case {k}:\n{text}\nexit {code}, stderr {err!r}"
        assert code in (0, 2, 3), context
        assert "Traceback" not in err, context
        assert multiprocessing.active_children() == [], context
        seen.add(code)
        last = err.splitlines()[-1] if err else ""
        if code != 0:
            assert last.startswith(MESSAGES), context
            # a stall is reported with a finite residual, or not at all
            assert "residual inf" not in last, context
            assert "residual nan" not in last, context
        if k == NONFINITE_CASE:
            assert last == ("config error: initial energy is not finite "
                            "(kinetic inf, strain 0)"), context
        if k == NORM_CASE:
            assert last == ("config error: f gives a load whose norm is not "
                            "finite at t = 0"), context
        if k == OVERFLOW_CASE:
            assert last == ("solver failure: load norm is not finite at "
                            "t=0.225"), context
        csv_path = outdir / "diagnostics.csv"
        if not csv_path.exists():
            assert code != 0, context
            continue
        rows = csv_path.read_text().splitlines()[1:]
        if code == 0:
            assert rows and all(math.isfinite(float(x)) for row in rows
                                for x in row.split(",")), context
        # a failed run has a snapshot of every record it wrote, too
        cadence = int(text.split("cadence = ")[1].split()[0])
        want = [f"fields_{i:06d}.vtk"
                for i in range(0, len(rows), cadence)] if cadence else []
        assert sorted(p.name for p in outdir.glob("*.vtk")) == want, context
    assert seen == {0, 2, 3}      # the generator reaches every outcome
