"""Deterministic file emission: snapshot binaries and CSV reports.

Snapshot format: magic bytes "CHO1", then little-endian u32 nx, ny, count,
then count frames of nx*ny float64 values, row-major, little-endian.
``SnapshotWriter`` is the one writer of this format.  It takes frames as
they are computed and puts the file in place only once all count frames
are in, so a run that fails part way leaves the target as it was and no
temporary file.  ``write_snapshots`` gives it a whole stack.

CSV files use a header row, "." decimal, LF line endings and repr-exact
float formatting, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeMismatch
from .spectral import Grid

__all__ = ["SnapshotWriter", "write_snapshots", "read_snapshots", "write_csv", "format_value"]

_MAGIC = b"CHO1"


class SnapshotWriter:
    """A snapshot file written frame by frame and committed only when complete.

    The header, with its frame ``count``, is written at once; each ``write``
    appends frames.  They go to a temporary file beside ``path``.  ``close``
    checks that ``count`` frames arrived and renames the file over ``path``;
    ``abort`` removes it.  As a context manager it closes on success and
    aborts on an exception.
    """

    def __init__(self, path, grid: Grid, count: int):
        self.path = Path(path)
        self.grid = grid
        self.count = count
        self._written = 0
        self._tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        self._fh = open(self._tmp, "wb")
        try:
            self._fh.write(_MAGIC + struct.pack("<III", grid.nx, grid.ny, count))
        except BaseException:
            self.abort()
            raise

    def write(self, frames: np.ndarray) -> None:
        """Append one field, shape (nx*ny,), or a stack (m, nx*ny); a C-contiguous "<f8" input is not copied."""
        frames = np.ascontiguousarray(frames, dtype="<f8")
        if frames.ndim == 1:
            frames = frames[None, :]
        if frames.shape[1] != self.grid.size:
            raise ShapeMismatch(f"frames have {frames.shape[1]} values, grid has {self.grid.size}")
        if self._written + frames.shape[0] > self.count:
            raise ShapeMismatch(f"{self.path}: more than the {self.count} frames of the header")
        self._fh.write(frames.data)
        self._written += frames.shape[0]

    def close(self) -> None:
        try:
            if self._written != self.count:
                raise ShapeMismatch(
                    f"{self.path}: {self._written} frames written, the header has {self.count}")
            self._fh.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        self._fh.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_snapshots(path, grid: Grid, frames: np.ndarray) -> None:
    """Dump a stack of fields, shape (count, nx*ny), or one field; a C-contiguous "<f8" stack is not copied."""
    with SnapshotWriter(path, grid, 1 if np.ndim(frames) == 1 else len(frames)) as writer:
        writer.write(frames)


def read_snapshots(path):
    """Read a snapshot file; returns (nx, ny, frames) with frames (count, nx*ny).

    The header and the file size are checked first; the frames are then read
    straight into the returned array, so the file is held once.
    """
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:4] != _MAGIC:
            raise ParseError(f"{path}: bad magic {head[:4]!r}, expected {_MAGIC!r}")
        if len(head) < 16:
            raise ParseError(f"{path}: truncated header")
        nx, ny, count = struct.unpack("<III", head[4:])
        expected = 16 + count * nx * ny * 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ParseError(f"{path}: expected {expected} bytes, got {size}")
        frames = np.empty((count, nx * ny), dtype="<f8")
        if fh.readinto(frames) != frames.nbytes:
            raise ParseError(f"{path}: file shrank while it was read")
    return nx, ny, frames


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write comma-separated rows with LF endings and exact float formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))
