"""Dynamic linear elasticity on a cracked 2D domain with regularized
crack-face contact (gamma-weighted displacement/velocity non-penetration)
and Tresca friction.

The package is organized as: exprlang (boundary/load expressions),
meshing (cracked rectangles, mesh I/O), fem (P1 assembly and a CG
solver), interface (contact/friction laws on crack pairs), basis (the
crack basis of the Newton unknowns), timestepper (implicit Newmark with
Newton), config (text configurations),
diagnostics (energy and interface-condition monitors, sweeps), vtkio and
cli (output and command line).
"""

from .config import Config, ConfigError, Problem, build_problem, parse_config
from .diagnostics import DiagnosticsRecord, record, run_with_records
from .fem import Material, State
from .interface import ContactParams
from .meshing import CrackedMesh, MeshError, generate_rect_crack, load_mesh, save_mesh
from .timestepper import StepFailure, TimeParams, build_operators, run

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "ContactParams",
    "CrackedMesh",
    "DiagnosticsRecord",
    "Material",
    "MeshError",
    "Problem",
    "State",
    "StepFailure",
    "TimeParams",
    "build_operators",
    "build_problem",
    "generate_rect_crack",
    "load_mesh",
    "parse_config",
    "record",
    "run",
    "run_with_records",
    "save_mesh",
    "__version__",
]
