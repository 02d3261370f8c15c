"""Deterministic file emission: snapshot binaries and CSV reports.

Snapshot format: magic bytes "CHO1", then little-endian u32 nx, ny, count,
then count frames of nx*ny float64 values, row-major, little-endian.

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

__all__ = ["write_snapshots", "read_snapshots", "write_csv", "format_value"]

_MAGIC = b"CHO1"


def write_snapshots(path, grid: Grid, frames: np.ndarray) -> None:
    """Dump a stack of fields, shape (count, nx*ny); a C-contiguous "<f8" stack is not copied."""
    frames = np.ascontiguousarray(frames, dtype="<f8")
    if frames.ndim == 1:
        frames = frames[None, :]
    if frames.shape[1] != grid.size:
        raise ShapeMismatch(f"frames have {frames.shape[1]} values, grid has {grid.size}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", grid.nx, grid.ny, frames.shape[0]))
        fh.write(frames.data)


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
