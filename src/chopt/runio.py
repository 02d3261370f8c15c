"""Deterministic file emission: snapshot binaries and CSV reports.

Snapshot format: magic bytes "CHO1", then little-endian u32 nx, ny, count,
then count frames of nx*ny float64 values, row-major, little-endian.

CSV files use a header row, "." decimal, LF line endings and repr-exact
float formatting, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

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
    """Read a snapshot file; returns (nx, ny, frames) with frames (count, nx*ny)."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ParseError(f"{path}: bad magic {raw[:4]!r}, expected {_MAGIC!r}")
    if len(raw) < 16:
        raise ParseError(f"{path}: truncated header")
    nx, ny, count = struct.unpack("<III", raw[4:16])
    expected = 16 + count * nx * ny * 8
    if len(raw) != expected:
        raise ParseError(f"{path}: expected {expected} bytes, got {len(raw)}")
    frames = np.frombuffer(raw, dtype="<f8", offset=16).reshape(count, nx * ny).copy()
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
