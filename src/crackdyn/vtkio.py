"""Legacy binary VTK output (unstructured grid, triangle cells).

Header lines are ASCII; each data block is big-endian, as the format
requires (float64 points and vectors, int32 cells and cell types), and
ends with a newline.  A snapshot's bytes depend on the state alone: the
doubles are written bit for bit, so identical states produce identical
files, and the mesh block from ``POINTS`` through ``POINT_DATA`` is the
same in every snapshot of a mesh.  That block is built once per mesh
object and reused, which relies on meshes not being modified after
construction.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["write_fields"]

_MESH_BLOCKS = weakref.WeakKeyDictionary()


def _vectors(values: np.ndarray) -> bytes:
    """An (n, 2) array as big-endian ``x y 0.0`` triples and a newline."""
    out = np.zeros((len(values), 3), ">f8")
    out[:, :2] = values
    return out.tobytes() + b"\n"


def _mesh_block(mesh) -> bytes:
    """Points, cells, cell types and the POINT_DATA header of a mesh."""
    block = _MESH_BLOCKS.get(mesh)
    if block is None:
        n, nc = len(mesh.vertices), len(mesh.cells)
        cells = np.empty((nc, 4), ">i4")
        cells[:, 0] = 3
        cells[:, 1:] = mesh.cells
        block = b"".join((
            f"POINTS {n} double\n".encode("ascii"),
            _vectors(mesh.vertices),
            f"CELLS {nc} {4 * nc}\n".encode("ascii"),
            cells.tobytes(), b"\n",
            f"CELL_TYPES {nc}\n".encode("ascii"),
            np.full(nc, 5, ">i4").tobytes(), b"\n",
            f"POINT_DATA {n}\n".encode("ascii"),
        ))
        _MESH_BLOCKS[mesh] = block
    return block


def write_fields(path, mesh, u, v, title: str = "crackdyn fields") -> None:
    """Write a snapshot with point vector fields u and v.

    2D points and vectors are zero-padded to three components as the
    format requires.  Cell type 5 is the linear triangle.
    """
    n = len(mesh.vertices)
    un = u.reshape(n, 2)
    vn = v.reshape(n, 2)
    data = b"".join((
        b"# vtk DataFile Version 3.0\n",
        (title[:255] or "fields").encode("ascii") + b"\n",
        b"BINARY\nDATASET UNSTRUCTURED_GRID\n",
        _mesh_block(mesh),
        b"VECTORS u double\n",
        _vectors(un),
        b"VECTORS v double\n",
        _vectors(vn),
    ))
    with open(path, "wb") as fh:
        fh.write(data)
