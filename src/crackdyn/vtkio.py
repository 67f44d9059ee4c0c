"""Legacy ASCII VTK output (unstructured grid, triangle cells).

A snapshot's bytes depend on the state alone: floats are printed with
Python's repr (the shortest string that reads back to the same double),
so identical states produce identical files, and the mesh block from
``POINTS`` through ``POINT_DATA`` is the same in every snapshot of a
mesh.  That block is formatted once per mesh object and reused, which
relies on meshes not being modified after construction.

A run hands its snapshots to a ``SnapshotWriter``, which formats and
writes them in one forked child process while the solver goes on.
"""

from __future__ import annotations

import multiprocessing
import signal
import weakref

import numpy as np

__all__ = ["SnapshotWriter", "write_fields"]

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


def _serve(inbox, outbox, mesh, parent_ends) -> None:
    """The writer process: write each snapshot received, in order, until
    the parent closes its end of the pipe.  The first failure is sent
    back and the snapshots after it are dropped."""
    for end in parent_ends:     # else the pipe never reads EOF
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent decides
    failed = False
    while True:
        try:
            path, title, u, v = inbox.recv()
        except (EOFError, OSError):     # closed, possibly mid-message
            return
        if not failed:
            try:
                write_fields(path, mesh, np.frombuffer(u), np.frombuffer(v),
                             title)
            except Exception as exc:
                failed = True
                outbox.send(exc)


class SnapshotWriter:
    """Writes the snapshots of one mesh in a forked child process.

    Forking hands the child the mesh without pickling or a fresh import;
    the child makes no BLAS call, so BLAS threads in the parent are safe.

    ``write`` returns once the snapshot is in the pipe; a full pipe
    blocks it, so only a few snapshots are ever in flight.  Leaving the
    ``with`` block, on any path, waits until every snapshot sent is on
    disk.  An error in the child is raised by the next ``write`` or on
    leaving the block, unless the block is already raising.
    """

    def __init__(self, mesh):
        ctx = multiprocessing.get_context("fork")
        inbox, self._out = ctx.Pipe(duplex=False)
        self._errors, outbox = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(
            target=_serve, name="crackdyn-snapshots",
            args=(inbox, outbox, mesh, (self._out, self._errors)))
        try:
            self._proc.start()
        finally:
            inbox.close()
            outbox.close()

    def write(self, path, u, v, title: str) -> None:
        """Queue the snapshot ``write_fields(path, mesh, u, v, title)``."""
        self._check()
        try:
            self._out.send((str(path), title,
                            np.asarray(u, dtype=float).tobytes(),
                            np.asarray(v, dtype=float).tobytes()))
        except OSError:         # a broken pipe: the child is gone
            self._proc.join()
            self._check()
            raise

    def _check(self) -> None:
        """Raise the error the child reported, or its death."""
        error = None
        if self._errors.poll():
            try:
                error = self._errors.recv()
            except EOFError:    # exited without a report
                pass
        if error is None and self._proc.exitcode:
            error = OSError(f"snapshot writer exited with code "
                            f"{self._proc.exitcode}")
        if error is not None:
            raise error

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._out.close()
        self._proc.join()
        try:
            if exc_type is None:
                self._check()
        finally:
            self._errors.close()
