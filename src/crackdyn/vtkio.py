"""Legacy ASCII VTK output (unstructured grid, triangle cells).

A snapshot's bytes depend on the state alone: floats are printed with
Python's repr (the shortest string that reads back to the same double),
so identical states produce identical files, and the mesh block from
``POINTS`` through ``POINT_DATA`` is the same in every snapshot of a
mesh.  That block is formatted once per mesh object and reused, which
relies on meshes not being modified after construction.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["write_fields"]

_MESH_BLOCKS = weakref.WeakKeyDictionary()


def _vectors(values: np.ndarray) -> str:
    """One ``x y 0.0`` line per row of an (n, 2) array, floats by repr."""
    flat = values.astype(float, copy=False).ravel().tolist()
    return ("%r %r 0.0\n" * len(values)) % tuple(flat)


def _mesh_block(mesh) -> str:
    """Points, cells, cell types and the POINT_DATA header of a mesh."""
    block = _MESH_BLOCKS.get(mesh)
    if block is None:
        n, nc = len(mesh.vertices), len(mesh.cells)
        block = "".join((
            f"POINTS {n} double\n",
            _vectors(mesh.vertices),
            f"CELLS {nc} {4 * nc}\n",
            ("3 %d %d %d\n" * nc) % tuple(mesh.cells.ravel().tolist()),
            f"CELL_TYPES {nc}\n",
            "5\n" * nc,
            f"POINT_DATA {n}\n",
        ))
        _MESH_BLOCKS[mesh] = block
    return block


def write_fields(path, mesh, u, v, title: str = "crackdyn fields") -> None:
    """Write a snapshot with point vector fields u and v.

    2D points and vectors are zero-padded to three components as the
    format requires.  Cell type 5 is the linear triangle.
    """
    n = len(mesh.vertices)
    un = u.reshape(n, mesh.dim)
    vn = v.reshape(n, mesh.dim)
    text = "".join((
        "# vtk DataFile Version 3.0\n",
        (title[:255] or "fields") + "\n",
        "ASCII\nDATASET UNSTRUCTURED_GRID\n",
        _mesh_block(mesh),
        "VECTORS u double\n",
        _vectors(un),
        "VECTORS v double\n",
        _vectors(vn),
    ))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
