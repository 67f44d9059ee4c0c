"""Run configuration: INI-style text format and problem assembly.

Format: ``[section]`` headers and ``key = value`` lines, ``#`` comments.
Vector-valued data are parenthesized comma tuples of expressions, e.g.
``f = (0, -9.8)`` or ``g = 0.3*(1+0.1*sin(t))`` for scalars.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

import numpy as np

from . import exprlang, fem, interface, meshing, timestepper
from .exprlang import Expr

__all__ = [
    "ConfigError",
    "MeshSpec",
    "Config",
    "Problem",
    "parse_config",
    "parse_config_text",
    "build_mesh",
    "build_problem",
]


class ConfigError(ValueError):
    """The configuration is malformed or violates a model invariant."""


@dataclass(frozen=True)
class MeshSpec:
    kind: str                      # "rect" or "file"
    width: float = 0.0
    height: float = 0.0
    nx: int = 0
    ny: int = 0
    crack: tuple[float, float] | None = None
    path: str | None = None


@dataclass(frozen=True)
class Config:
    mesh: MeshSpec
    material: fem.Material
    gamma: float
    epsilon: float
    g: Expr | None
    time: timestepper.TimeParams
    f: tuple[Expr, Expr] | None
    trac: tuple[Expr, Expr] | None
    u0: tuple[Expr, Expr] | None
    v0: tuple[Expr, Expr] | None
    output_dir: str = "out"
    cadence: int = 0


@dataclass
class Problem:
    """A configuration bound to a concrete mesh with assembled operators."""

    config: Config
    ops: timestepper.Operators
    params: timestepper.TimeParams
    u0: np.ndarray
    v0: np.ndarray


_SCHEMA = {
    "mesh": {"kind", "width", "height", "nx", "ny", "crack_lo", "crack_hi", "path"},
    "material": {"lambda", "mu", "rho"},
    "contact": {"gamma", "epsilon", "g"},
    "time": {"t_end", "dt", "newmark_b", "newmark_g", "newton_tol", "newton_maxit"},
    "data": {"f", "F", "u0", "v0"},
    "output": {"directory", "cadence"},
}


def _split_vector(text: str, key: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ConfigError(f"{key}: vector values are written (expr, expr)")
    inner = text[1:-1]
    parts = []
    depth = 0
    cur = []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError(f"{key}: unbalanced parentheses")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ConfigError(f"{key}: unbalanced parentheses")
    parts.append("".join(cur))
    return parts


def _parse_expr(text: str, key: str) -> Expr:
    try:
        return exprlang.parse(text)
    except exprlang.ExprError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_vector(text: str, key: str, dim: int = 2):
    parts = _split_vector(text, key)
    if len(parts) != dim:
        raise ConfigError(f"{key}: expected {dim} components, got {len(parts)}")
    return tuple(_parse_expr(p.strip(), key) for p in parts)


def _get_float(sec, key, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(sec[key])
    except ValueError:
        raise ConfigError(f"{key}: not a number: {sec[key]!r}") from None


def _get_int(sec, key, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(sec[key])
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {sec[key]!r}") from None


def parse_config_text(text: str, origin: str = "<config>") -> Config:
    cp = configparser.ConfigParser(
        interpolation=None, delimiters=("=",),
        comment_prefixes=("#",), inline_comment_prefixes=("#",), strict=True)
    cp.optionxform = str
    try:
        cp.read_file(io.StringIO(text), source=origin)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    if "mesh" not in cp:
        raise ConfigError("missing [mesh] section")
    msec = cp["mesh"]
    kind = msec.get("kind", "rect").strip()
    if kind == "rect":
        crack = None
        if ("crack_lo" in msec) != ("crack_hi" in msec):
            raise ConfigError("crack_lo and crack_hi must be given together")
        if "crack_lo" in msec:
            crack = (_get_float(msec, "crack_lo"), _get_float(msec, "crack_hi"))
        mesh_spec = MeshSpec(
            kind="rect",
            width=_get_float(msec, "width"),
            height=_get_float(msec, "height"),
            nx=_get_int(msec, "nx"),
            ny=_get_int(msec, "ny"),
            crack=crack,
        )
    elif kind == "file":
        if "path" not in msec:
            raise ConfigError("mesh kind 'file' needs a path")
        mesh_spec = MeshSpec(kind="file", path=msec["path"].strip())
    else:
        raise ConfigError(f"unknown mesh kind {kind!r}")

    if "material" not in cp:
        raise ConfigError("missing [material] section")
    sec = cp["material"]
    try:
        material = fem.Material(
            lam=_get_float(sec, "lambda"),
            mu=_get_float(sec, "mu"),
            rho=_get_float(sec, "rho"))
    except ValueError as exc:
        raise ConfigError(f"material: {exc}") from exc

    gamma, epsilon, g = 0.0, 1e-2, None
    if "contact" in cp:
        sec = cp["contact"]
        gamma = _get_float(sec, "gamma", 0.0)
        epsilon = _get_float(sec, "epsilon", 1e-2)
        if "g" in sec:
            g = _parse_expr(sec["g"].strip(), "g")
    try:
        interface.ContactParams(gamma=gamma, epsilon=epsilon, g=g)
    except ValueError as exc:
        raise ConfigError(f"contact: {exc}") from exc

    if "time" not in cp:
        raise ConfigError("missing [time] section")
    sec = cp["time"]
    try:
        time_params = timestepper.TimeParams(
            t_end=_get_float(sec, "t_end"),
            dt=_get_float(sec, "dt"),
            newmark_b=_get_float(sec, "newmark_b", 0.25),
            newmark_g=_get_float(sec, "newmark_g", 0.5),
            newton_tol=_get_float(sec, "newton_tol", 1e-10),
            newton_maxit=_get_int(sec, "newton_maxit", 30))
    except ValueError as exc:
        raise ConfigError(f"time: {exc}") from exc

    f = trac = u0 = v0 = None
    if "data" in cp:
        sec = cp["data"]
        if "f" in sec:
            f = _parse_vector(sec["f"], "f")
        if "F" in sec:
            trac = _parse_vector(sec["F"], "F")
        if "u0" in sec:
            u0 = _parse_vector(sec["u0"], "u0")
        if "v0" in sec:
            v0 = _parse_vector(sec["v0"], "v0")

    output_dir, cadence = "out", 0
    if "output" in cp:
        sec = cp["output"]
        output_dir = sec.get("directory", "out").strip()
        cadence = _get_int(sec, "cadence", 0)
        if cadence < 0:
            raise ConfigError("cadence must be nonnegative")

    return Config(
        mesh=mesh_spec, material=material,
        gamma=gamma, epsilon=epsilon, g=g,
        time=time_params, f=f, trac=trac, u0=u0, v0=v0,
        output_dir=output_dir, cadence=cadence)


def parse_config(path) -> Config:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def build_mesh(spec: MeshSpec) -> meshing.CrackedMesh:
    if spec.kind == "rect":
        try:
            return meshing.generate_rect_crack(
                spec.width, spec.height, spec.nx, spec.ny, spec.crack)
        except meshing.MeshError as exc:
            raise ConfigError(f"mesh: {exc}") from exc
    try:
        return meshing.load_mesh(spec.path)
    except meshing.MeshError as exc:
        raise ConfigError(f"mesh: {exc}") from exc


def build_problem(config: Config) -> Problem:
    """Assemble everything a run needs; validates g >= 0 on samples,
    finite loads at t = 0 and finite initial data."""
    mesh = build_mesh(config.mesh)
    contact = interface.ContactParams(
        gamma=config.gamma, epsilon=config.epsilon, g=config.g)
    ops = timestepper.build_operators(
        mesh, config.material, contact, f=config.f, trac=config.trac)
    if config.g is not None and ops.quad.n_pairs:
        for t in np.linspace(0.0, config.time.t_end, 11):
            try:
                interface.friction_bound_values(contact, ops.quad, float(t))
            except interface.FrictionBoundError as exc:
                raise ConfigError(str(exc)) from exc
    for name, f, trac in (("f", config.f, None), ("F", None, config.trac)):
        if f is not None or trac is not None:
            load = fem.assemble_load(mesh, config.material, f, trac, 0.0)
            if not np.isfinite(load[ops.free]).all():
                raise ConfigError(
                    f"{name} gives a load that is not finite at t = 0")
    fields = {}
    for name in ("u0", "v0"):
        w = fem.interpolate(mesh, getattr(config, name))
        fields[name] = ops.dofmap.zero_constrained(w)
        if not np.isfinite(fields[name]).all():
            raise ConfigError(f"{name} is not finite at a free mesh vertex")
    return Problem(config=config, ops=ops, params=config.time, **fields)
