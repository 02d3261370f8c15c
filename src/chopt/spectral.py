"""Rectangle grid, Neumann cosine eigenbasis and transforms.

The domain is an axis-aligned rectangle (0,lx) x (0,ly) sampled at cell
midpoints.  The Neumann Laplacian eigenfunctions on such a rectangle are the
tensor cosine modes

    e_{jk}(x, y) = c_j cos(j pi x / lx) * c_k cos(k pi y / ly),

with eigenvalues lambda_{jk} = (j pi / lx)^2 + (k pi / ly)^2 and L^2
normalization constants c_0 = 1/sqrt(L), c_j = sqrt(2/L).  On the midpoint
grid the sampled modes are exactly orthonormal in the discrete inner product,
so the DCT-II realizes the eigen-expansion without quadrature error.

Transforms use the unitary normalization: the coefficient array of a field f
satisfies sum(coeffs**2) == cell * sum(f**2), the squared discrete L^2 norm
(Parseval), and diagonal spectral multipliers are self-adjoint in the
discrete L^2 inner product.

The transforms are products with the orthonormal DCT-II matrices of the two
axes, coeffs = Cx @ X @ Cy.T, applied to one field or to a stack of fields in
one call; the solver imports no FFT library.  An axis whose length is even
and at least 128 goes through the even/odd fold, the first stage of a fast
DCT (Makhoul 1980): two half-size products in place of one, half the
multiply-adds.  Any other axis takes the dense product, so the path depends
on the axis length alone.  One to_spectral + from_spectral round trip on a
2-vCPU Xeon VM at one thread, dense against folded on every axis, in us:

    n x n      16    32    64    96    128    256
    dense      17    23    54   129    325   2800
    folded     33    43    79   140    250   2430

One field's forward / inverse dense product takes 1.9 / 1.7 us at 16x16, 3.4 /
3.0 at 32x32 and 16 / 14 at 64x64 as two ndarray.dot calls, against 2.8 / 2.6,
4.5 / 3.8 and 16 / 14 through matmul, with the same bits; a stack takes matmul.
A 16x16 transform through scipy.fft takes 11-12 us.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadModeCount, ShapeMismatch

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "to_spectral",
    "from_spectral",
    "grad_sq",
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
        if not (0 < self.lx < math.inf and 0 < self.ly < math.inf):
            raise ValueError("side lengths must be positive and finite")
        # the scheme multiplies by lambda^2: its largest value must be finite
        a, b = (self.nx - 1) * math.pi / self.lx, (self.ny - 1) * math.pi / self.ly
        lam_max = a * a + b * b
        if not math.isfinite(lam_max * lam_max):
            raise ValueError(
                f"lx = {self.lx:g}, ly = {self.ly:g} are too short for a {self.nx}x{self.ny} "
                "grid: the square of its largest eigenvalue overflows"
            )

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


@functools.lru_cache(maxsize=None)
def _cos_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, C[k, j] = c_k cos(pi k (2j+1) / (2n)); read-only.

    The integer k(2j+1) is reduced mod 4n before scaling, so every cosine
    argument lies in [0, 2 pi): at n = 128 this keeps C X C.T as accurate as
    an FFT, where the unreduced argument loses about 1e-13.
    """
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    c = np.cos(np.pi * ((k * (2 * j + 1)) % (4 * n)) / (2 * n)) * np.sqrt(2.0 / n)
    c[0] = np.sqrt(1.0 / n)
    c.flags.writeable = False
    return c


# An axis whose length is even and at least this is transformed through the
# even/odd fold, a shorter or odd one through the dense matrix.
_FOLD_MIN = 128


@functools.lru_cache(maxsize=None)
def _fold_halves(n: int) -> tuple:
    """(Ce, Co, Ce.T, Co.T), all n/2 x n/2, C-contiguous and read-only.

    Ce and Co are the even and odd rows of ``_cos_matrix(n)`` over its first
    n/2 columns.  Row k of the DCT-II matrix is even about the middle of the
    grid for even k and odd for odd k, C[k, n-1-j] = (-1)^k C[k, j], so with
    s = x_top + reversed x_bottom and d = x_top - reversed x_bottom,

        C x = interleave(Ce s, Co d),   C.T y = [a + b; reversed (a - b)]

    with a = Ce.T y_even, b = Co.T y_odd: half the multiply-adds of C x.
    """
    c = _cos_matrix(n)
    ce, co = c[0::2, : n // 2], c[1::2, : n // 2]
    halves = tuple(np.ascontiguousarray(h) for h in (ce, co, ce.T, co.T))
    for h in halves:
        h.flags.writeable = False
    return halves


def _along_x(x: np.ndarray, inverse: bool) -> np.ndarray:
    """C @ x, or C.T @ x if ``inverse``, along axis -2 of a stack x."""
    n = x.shape[-2]
    if n < _FOLD_MIN or n % 2:
        c = _cos_matrix(n)
        return (c.T if inverse else c) @ x
    m = n // 2
    ce, co, ce_t, co_t = _fold_halves(n)
    out = np.empty(x.shape)
    if inverse:
        a, b = ce_t @ x[..., 0::2, :], co_t @ x[..., 1::2, :]
        out[..., :m, :] = a + b
        out[..., : m - 1 : -1, :] = a - b
    else:
        top, bottom = x[..., :m, :], x[..., : m - 1 : -1, :]
        out[..., 0::2, :] = ce @ (top + bottom)
        out[..., 1::2, :] = co @ (top - bottom)
    return out


def _along_y(x: np.ndarray, inverse: bool) -> np.ndarray:
    """x @ C.T, or x @ C if ``inverse``, along axis -1 of a stack x."""
    n = x.shape[-1]
    if n < _FOLD_MIN or n % 2:
        c = _cos_matrix(n)
        return x @ (c if inverse else c.T)
    m = n // 2
    ce, co, ce_t, co_t = _fold_halves(n)
    out = np.empty(x.shape)
    if inverse:
        a, b = x[..., 0::2] @ ce, x[..., 1::2] @ co
        out[..., :m] = a + b
        out[..., : m - 1 : -1] = a - b
    else:
        left, right = x[..., :m], x[..., : m - 1 : -1]
        out[..., 0::2] = (left + right) @ ce_t
        out[..., 1::2] = (left - right) @ co_t
    return out


def _dct(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unitary DCT-II of nodal values, shape (..., size) to (..., nx, ny).

    Multiplied by sqrt(cell) it gives the orthonormal-basis coefficients;
    linear updates that transform back skip the scaling, which cancels.
    """
    x = values.reshape(values.shape[:-1] + (grid.nx, grid.ny))
    # small grids are dispatch-bound: one dense product, by ndarray.dot for one field
    if grid.nx < _FOLD_MIN and grid.ny < _FOLD_MIN:
        cx, cy = _cos_matrix(grid.nx), _cos_matrix(grid.ny)
        return cx.dot(x).dot(cy.T) if x.ndim == 2 else cx @ x @ cy.T
    return _along_y(_along_x(x, False), False)


def _idct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_dct`, shape (..., nx, ny) to (..., size) in nodal order."""
    nx, ny = coeffs.shape[-2:]
    if nx < _FOLD_MIN and ny < _FOLD_MIN:
        cx, cy = _cos_matrix(nx), _cos_matrix(ny)
        x = cx.T.dot(coeffs).dot(cy) if coeffs.ndim == 2 else cx.T @ coeffs @ cy
    else:
        x = _along_y(_along_x(coeffs, True), True)
    return x.reshape(coeffs.shape[:-2] + (nx * ny,))


def to_spectral(f: Field) -> SpectralField:
    """Expand a field in the orthonormal Neumann cosine basis."""
    g = f.grid
    return SpectralField(g, _dct(g, f.values) * np.sqrt(g.cell))


def from_spectral(s: SpectralField) -> Field:
    """Inverse of :func:`to_spectral`."""
    g = s.grid
    return Field(g, _idct(s.coeffs / np.sqrt(g.cell)))


def grad_sq(grid: Grid, snapshots) -> np.ndarray:
    """||grad f||^2 = sum lambda * coeff^2 (Parseval) for each row of nodal values.

    ``snapshots`` is one field's values or a stack of them, shape (m, size).
    Rows are transformed one at a time, so a long trajectory on a large grid
    never holds a second full-size copy of itself.
    """
    lam = grid.eigenvalues()
    scale = np.sqrt(grid.cell)
    rows = np.reshape(snapshots, (-1, grid.size))
    return np.array([np.sum(lam * (_dct(grid, v) * scale) ** 2) for v in rows])


def lowest_modes(grid: Grid, n: int) -> np.ndarray:
    """Flat places j*ny + k of the n lowest modes, by eigenvalue and then by (j, k).

    Raises BadModeCount unless 1 <= n <= nx*ny.
    """
    if not 1 <= n <= grid.size:
        raise BadModeCount(f"mode count {n} outside 1..{grid.size}")
    return np.argsort(grid.eigenvalues().reshape(-1), kind="stable")[:n].copy()  # a view would keep all nx*ny places
