"""Run configuration: INI-style text format and problem assembly.

Format: ``[section]`` headers and ``key = value`` lines, ``#`` comments.
Vector-valued data are parenthesized comma tuples of expressions, e.g.
``f = (0, -9.8)`` or ``g = 0.3*(1+0.1*sin(t))`` for scalars.
"""

from __future__ import annotations

import configparser
import dataclasses
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
    f: tuple[Expr, Expr] | None = None
    trac: tuple[Expr, Expr] | None = None
    u0: tuple[Expr, Expr] | None = None
    v0: tuple[Expr, Expr] | None = None
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
        return exprlang.parse(text.strip())
    except exprlang.ExprError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_vector(text: str, key: str):
    parts = _split_vector(text, key)
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 2 components, got {len(parts)}")
    return tuple(_parse_expr(p, key) for p in parts)


# Each key of each section: the field it sets and its reader.
_SCHEMA = {
    "mesh": {"kind": ("kind", str), "width": ("width", float),
             "height": ("height", float), "nx": ("nx", int),
             "ny": ("ny", int), "crack_lo": ("crack", float),
             "crack_hi": ("crack", float), "path": ("path", str)},
    "material": {"lambda": ("lam", float), "mu": ("mu", float),
                 "rho": ("rho", float)},
    "contact": {"gamma": ("gamma", float), "epsilon": ("epsilon", float),
                "g": ("g", _parse_expr)},
    "time": {"t_end": ("t_end", float), "dt": ("dt", float),
             "newmark_b": ("newmark_b", float),
             "newmark_g": ("newmark_g", float),
             "newton_tol": ("newton_tol", float),
             "newton_maxit": ("newton_maxit", int)},
    "data": {"f": ("f", _parse_vector), "F": ("trac", _parse_vector),
             "u0": ("u0", _parse_vector), "v0": ("v0", _parse_vector)},
    "output": {"directory": ("output_dir", str), "cadence": ("cadence", int)},
}


def _value(sec, section, key):
    """The value of a required key, read by its _SCHEMA reader."""
    if key not in sec:
        raise ConfigError(f"missing required key {key!r}")
    text, read = sec[key], _SCHEMA[section][key][1]
    if read in (float, int, str):
        try:
            return read(text)
        except ValueError:
            what = "a number" if read is float else "an integer"
            raise ConfigError(f"{key}: not {what}: {text!r}") from None
    return read(text, key)


def _fields(cp, section, cls):
    """Keyword arguments of cls from the keys present in [section]: an
    absent key keeps its field's default, or is required if it has none."""
    sec = cp[section] if section in cp else {}
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    return {name: _value(sec, section, key)
            for key, (name, _) in _SCHEMA[section].items()
            if key in sec or name in required}


def _build(cp, section, cls):
    """cls from the keys of [section]; its ValueError names the section."""
    fields = _fields(cp, section, cls)   # a reader's ConfigError is one too
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


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
        if ("crack_lo" in msec) != ("crack_hi" in msec):
            raise ConfigError("crack_lo and crack_hi must be given together")
        crack = tuple(_value(msec, "mesh", key) for key in
                      ("crack_lo", "crack_hi") if key in msec) or None
        mesh_spec = MeshSpec(kind="rect", crack=crack, **{
            key: _value(msec, "mesh", key)
            for key in ("width", "height", "nx", "ny")})
    elif kind == "file":
        if "path" not in msec:
            raise ConfigError("mesh kind 'file' needs a path")
        mesh_spec = MeshSpec(kind="file", path=_value(msec, "mesh", "path"))
    else:
        raise ConfigError(f"unknown mesh kind {kind!r}")

    if "material" not in cp:
        raise ConfigError("missing [material] section")
    material = _build(cp, "material", fem.Material)
    contact = _build(cp, "contact", interface.ContactParams)
    if "time" not in cp:
        raise ConfigError("missing [time] section")
    time_params = _build(cp, "time", timestepper.TimeParams)

    config = Config(
        mesh=mesh_spec, material=material, gamma=contact.gamma,
        epsilon=contact.epsilon, g=contact.g, time=time_params,
        **_fields(cp, "data", Config), **_fields(cp, "output", Config))
    if config.cadence < 0:
        raise ConfigError("cadence must be nonnegative")
    return config


def parse_config(path) -> Config:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def build_mesh(spec: MeshSpec) -> meshing.CrackedMesh:
    try:
        if spec.kind == "rect":
            return meshing.generate_rect_crack(
                spec.width, spec.height, spec.nx, spec.ny, spec.crack)
        return meshing.load_mesh(spec.path)
    except meshing.MeshError as exc:
        raise ConfigError(f"mesh: {exc}") from exc


def build_problem(config: Config) -> Problem:
    """Assemble everything a run needs; validates a finite g >= 0 on samples,
    loads of finite norm at t = 0 and finite initial data and energy."""
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
    for name, part in (("f", ops.load_form.body),
                       ("F", ops.load_form.traction)):
        load = np.zeros(0) if part is None else part(0.0)[ops.free]
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(load)     # not finite if an entry is not
        if not np.isfinite(norm):
            what = "whose norm" if np.isfinite(load).all() else "that"
            raise ConfigError(f"{name} gives a load {what} is not finite at "
                              f"t = 0")
    fields = {}
    for name in ("u0", "v0"):
        w = fem.interpolate(mesh, getattr(config, name))
        fields[name] = ops.dofmap.zero_constrained(w)
        if not np.isfinite(fields[name]).all():
            raise ConfigError(f"{name} is not finite at a free mesh vertex")
    u0, v0 = fields["u0"], fields["v0"]
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = 0.5 * float(v0 @ (ops.mass @ v0))
        strain = 0.5 * float(u0 @ (ops.stiffness @ u0))
    if not np.isfinite(kinetic + strain):
        raise ConfigError(f"initial energy is not finite (kinetic "
                          f"{kinetic:.6g}, strain {strain:.6g})")
    return Problem(config=config, ops=ops, params=config.time, **fields)
