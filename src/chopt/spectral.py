"""Rectangle grid, Neumann cosine eigenbasis, transforms and norms.

The domain is an axis-aligned rectangle (0,lx) x (0,ly) sampled at cell
midpoints.  The Neumann Laplacian eigenfunctions on such a rectangle are the
tensor cosine modes

    e_{jk}(x, y) = c_j cos(j pi x / lx) * c_k cos(k pi y / ly),

with eigenvalues lambda_{jk} = (j pi / lx)^2 + (k pi / ly)^2 and L^2
normalization constants c_0 = 1/sqrt(L), c_j = sqrt(2/L).  On the midpoint
grid the sampled modes are exactly orthonormal in the discrete inner product,
so the DCT-II realizes the eigen-expansion without quadrature error.

Transforms use the unitary normalization: the coefficient array of a field f
satisfies sum(coeffs**2) == norm_H(f)**2 (Parseval), and diagonal spectral
multipliers are self-adjoint in the discrete L^2 inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dctn, idctn

from .errors import NonzeroMean, ShapeMismatch

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "to_spectral",
    "from_spectral",
    "laplacian",
    "mean",
    "solve_N",
    "norm_H",
    "norm_V",
    "norm_Vstar",
    "inner",
    "grad_norm",
    "grad_sq",
    "basis_mode",
    "basis_modes",
    "lowest_modes",
]


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on the rectangle (0,lx) x (0,ly).

    One-dimensional domains are encoded as ny == 1.
    """

    nx: int
    ny: int
    lx: float
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 2:
            raise ValueError("nx must be >= 2")
        if self.ny < 1:
            raise ValueError("ny must be >= 1 (ny == 1 encodes d = 1)")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("side lengths must be positive")

    @property
    def dimension(self) -> int:
        return 1 if self.ny == 1 else 2

    @property
    def size(self) -> int:
        return self.nx * self.ny

    @property
    def cell(self) -> float:
        """Measure of one grid cell (midpoint quadrature weight)."""
        return (self.lx / self.nx) * (self.ly / self.ny)

    @property
    def volume(self) -> float:
        return self.lx * self.ly

    def coordinates(self):
        """Midpoint coordinate arrays (x, y), each of shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * (self.lx / self.nx)
        y = (np.arange(self.ny) + 0.5) * (self.ly / self.ny)
        return np.meshgrid(x, y, indexing="ij")

    def eigenvalues(self) -> np.ndarray:
        """Array of shape (nx, ny): lambda_{jk} = (j pi/lx)^2 + (k pi/ly)^2."""
        lj = (np.arange(self.nx) * np.pi / self.lx) ** 2
        lk = (np.arange(self.ny) * np.pi / self.ly) ** 2
        return lj[:, None] + lk[None, :]


def _as_values(grid: Grid, values) -> np.ndarray:
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size != grid.size:
        raise ShapeMismatch(f"expected {grid.size} values, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field values must be finite")
    return v


@dataclass(frozen=True)
class Field:
    """Nodal values of a scalar function on the grid (row-major, x fastest in blocks)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.grid, self.values))


@dataclass(frozen=True)
class SpectralField:
    """Unitary cosine coefficients; index (j,k) pairs with lambda_{jk}."""

    grid: Grid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.grid.nx, self.grid.ny):
            c = c.reshape(self.grid.nx, self.grid.ny)
        if not np.all(np.isfinite(c)):
            raise ValueError("spectral coefficients must be finite")
        object.__setattr__(self, "coeffs", c)


def _dct(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unitary DCT-II of nodal values, shape (nx, ny).

    Multiplied by sqrt(cell) it gives the orthonormal-basis coefficients;
    linear updates that transform back skip the scaling, which cancels.
    """
    return dctn(values.reshape(grid.nx, grid.ny), type=2, norm="ortho")


def _idct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_dct`, flattened to nodal order."""
    return idctn(coeffs, type=2, norm="ortho").reshape(-1)


def to_spectral(f: Field) -> SpectralField:
    """Expand a field in the orthonormal Neumann cosine basis."""
    g = f.grid
    return SpectralField(g, _dct(g, f.values) * np.sqrt(g.cell))


def from_spectral(s: SpectralField) -> Field:
    """Inverse of :func:`to_spectral`."""
    g = s.grid
    return Field(g, _idct(s.coeffs / np.sqrt(g.cell)))


def laplacian(s: SpectralField) -> SpectralField:
    """Apply the Neumann Laplacian: coefficient (j,k) is multiplied by -lambda_{jk}."""
    return SpectralField(s.grid, -s.grid.eigenvalues() * s.coeffs)


def mean(f: Field) -> float:
    """Cell-measure-weighted average of the field."""
    return float(f.values.mean())


def inner(f: Field, g: Field) -> float:
    """Discrete L^2 inner product (midpoint quadrature)."""
    if f.grid != g.grid:
        raise ShapeMismatch("fields live on different grids")
    return float(f.grid.cell * np.dot(f.values, g.values))


def norm_H(f: Field) -> float:
    """Discrete L^2 norm."""
    return float(np.sqrt(f.grid.cell) * np.linalg.norm(f.values))


def grad_sq(grid: Grid, snapshots) -> np.ndarray:
    """||grad f||^2 = sum lambda * coeff^2 (Parseval) for each row of nodal values.

    ``snapshots`` is one field's values or a stack of them, shape (m, size).
    """
    lam = grid.eigenvalues()
    scale = np.sqrt(grid.cell)
    rows = np.reshape(snapshots, (-1, grid.size))
    return np.array([np.sum(lam * (_dct(grid, v) * scale) ** 2) for v in rows])


def grad_norm(f: Field) -> float:
    """L^2 norm of the gradient."""
    return float(np.sqrt(grad_sq(f.grid, f.values)[0]))


def norm_V(f: Field) -> float:
    """H^1 norm: sqrt(||f||^2 + ||grad f||^2)."""
    s = to_spectral(f)
    lam = f.grid.eigenvalues()
    return float(np.sqrt(np.sum((1.0 + lam) * s.coeffs**2)))


def solve_N(f: Field) -> Field:
    """Inverse Neumann Laplacian on zero-mean fields.

    Returns the unique zero-mean w with -Delta w = f.  Requires mean(f) = 0
    (the operator's domain); raises NonzeroMean otherwise.
    """
    m = mean(f)
    scale = norm_H(f)
    if abs(m) * np.sqrt(f.grid.volume) > 1e-10 * max(scale, 1e-300):
        raise NonzeroMean(f"mean {m:g} is not negligible against ||f|| = {scale:g}")
    s = to_spectral(f)
    lam = f.grid.eigenvalues()
    c = np.zeros_like(s.coeffs)
    nz = lam > 0
    c[nz] = s.coeffs[nz] / lam[nz]
    return from_spectral(SpectralField(f.grid, c))


def norm_Vstar(f: Field) -> float:
    """Dual norm ||f||_*^2 = ||grad N(f - fbar)||^2 + |fbar|^2.

    The gradient term is sum over nonzero modes of coeff^2 / lambda.
    """
    s = to_spectral(f)
    lam = f.grid.eigenvalues()
    m = mean(f)
    nz = lam > 0
    return float(np.sqrt(np.sum(s.coeffs[nz] ** 2 / lam[nz]) + m * m))


def basis_mode(grid: Grid, j: int, k: int = 0) -> Field:
    """The orthonormal eigenfunction e_{jk} sampled on the grid."""
    if not (0 <= j < grid.nx and 0 <= k < grid.ny):
        raise ValueError(f"mode ({j},{k}) outside grid {grid.nx}x{grid.ny}")
    return Field(grid, basis_modes(grid, [j], [k])[0])


def basis_modes(grid: Grid, j, k) -> np.ndarray:
    """The eigenfunctions e_{j[i] k[i]} sampled on the grid, one row each.

    One batched inverse transform of the unit coefficient arrays.
    """
    n = len(j)
    unit = np.zeros((n, grid.nx, grid.ny))
    unit[np.arange(n), j, k] = 1.0
    return idctn(unit / np.sqrt(grid.cell), type=2, norm="ortho", axes=(1, 2)).reshape(n, -1)


def lowest_modes(grid: Grid, n: int):
    """Index arrays (j, k) of the n lowest-eigenvalue modes.

    Modes come in nondecreasing eigenvalue order, ties broken by (j, k).
    """
    order = np.argsort(grid.eigenvalues().reshape(-1), kind="stable")[:n]
    return np.unravel_index(order, (grid.nx, grid.ny))
