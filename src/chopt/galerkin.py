"""Eigenmode-truncated ODE oracle for the forward solver.

The weak problem restricted to the span of the first n Neumann eigenfunctions
reduces to the ODE system

    y'(t) + y(t) + A z(t) = g(t),      z(t) = A y(t) + G(y(t)),

where A = diag(lambda_1..lambda_n), g_j(t) = (u(t), e_j), and G projects the
nodal nonlinearity beta_reg(phi) + pi(phi) back onto the modes through the
spectral transforms, with no dense basis.  The system is integrated with a
fixed-step implicit midpoint rule (A-stable, second order) whose inner solve
is a chord Newton iteration (one diagonal chord matrix reused across steps),
and serves as an independent cross-check of the spectral PDE stepper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import potentials
from .errors import NewtonFailure, ShapeMismatch
from .potentials import PotentialSpec
from .spectral import Grid, _cos_matrix, _dct, _idct, lowest_modes
from .state import ControlFunction, StateTrajectory, TimeGrid

__all__ = [
    "GalerkinSystem",
    "GalerkinTrajectory",
    "ComparisonReport",
    "build_system",
    "integrate",
    "compare_to_pde",
]

_NEWTON_TOL = 1e-12
_NEWTON_MAXIT = 50
_CHORD_RATE = 0.25  # a correction that shrinks the residual by less rebuilds the chord matrix


@dataclass(frozen=True)
class GalerkinSystem:
    """First n eigenmodes of the grid, ordered by nondecreasing eigenvalue.

    Ties are broken lexicographically by (j, k).  ``modes[i]`` = j*ny + k is
    mode i's place in the flattened transform coefficients, which the maps
    below gather and scatter: a system holds O(n) numbers, not the n x nx*ny
    sampled basis.
    """

    grid: Grid
    lam: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.modes)

    def project(self, values: np.ndarray) -> np.ndarray:
        """H-projection of nodal values, shape (..., size), onto the modes."""
        coeffs = _dct(self.grid, values).reshape(values.shape).take(self.modes, axis=-1)
        coeffs *= np.sqrt(self.grid.cell)
        return coeffs

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values, shape (..., size), of mode coefficients (..., n)."""
        g = self.grid
        full = np.zeros(coeffs.shape[:-1] + (g.size,))
        full[..., self.modes] = coeffs / np.sqrt(g.cell)
        return _idct(full.reshape(coeffs.shape[:-1] + (g.nx, g.ny)))


def build_system(grid: Grid, n: int) -> GalerkinSystem:
    """The n lowest modes; raises BadModeCount unless 1 <= n <= nx*ny."""
    modes = lowest_modes(grid, n)
    return GalerkinSystem(grid, grid.eigenvalues().reshape(-1)[modes], modes)


@dataclass(frozen=True)
class GalerkinTrajectory:
    system: GalerkinSystem
    timegrid: TimeGrid
    y: np.ndarray = field(repr=False)  # state coefficients, (nt+1, n)
    z: np.ndarray = field(repr=False)  # chemical potential coefficients
    newton_iterations: int  # chord corrections over the whole run
    jacobians: int  # chord matrices built over the whole run, one f'' evaluation each


def _nonlinearity(system: GalerkinSystem, spec: PotentialSpec, y: np.ndarray) -> np.ndarray:
    return system.project(potentials.f_d1_vec(spec, system.reconstruct(y)))


def _curvature_diagonal(system: GalerkinSystem, spec: PotentialSpec, y: np.ndarray) -> np.ndarray:
    """Diagonal of the projected curvature P diag(f''(phi)) P^T at coefficients y.

    Mode i = (j, k) samples Cx[j] (x) Cy[k] / sqrt(cell), so its entry is the
    sum over nodes (p, q) of Cx[j, p]^2 f''[p, q] Cy[k, q]^2: two small products.
    """
    g = system.grid
    curvature = potentials.f_d2_vec(spec, system.reconstruct(y)).reshape(g.nx, g.ny)
    cx, cy = _cos_matrix(g.nx), _cos_matrix(g.ny)
    return (cx**2 @ curvature @ (cy**2).T).take(system.modes)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing residual is a NewtonFailure
def integrate(
    system: GalerkinSystem,
    y0: np.ndarray,
    u: ControlFunction,
    spec: PotentialSpec,
    substeps: int = 1,
) -> GalerkinTrajectory:
    """Integrate the truncated system with the implicit midpoint rule on u's time grid.

    ``substeps`` inner steps are taken per output step; the control is held at
    its left slab value, matching the PDE stepper.  Each step is solved by a
    chord Newton iteration, predicted by the previous substep's increment (by
    an explicit Euler step on the run's first substep): one chord matrix, the
    diagonal of the Jacobian I + (h/2)(I + A^2 + A G'(mid)), serves every
    iteration of every step, and is rebuilt at the current midpoint only when
    an iteration shrinks the residual by less than the factor ``_CHORD_RATE``.
    The residual test alone sets the solution.  The trajectory counts the
    corrections and the chord matrices.
    Raises NewtonFailure if the inner solve stalls or overflows (reduce the step).
    """
    if substeps < 1:
        raise ValueError(f"substeps = {substeps} must be at least 1")
    n = system.n
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (n,):
        raise ShapeMismatch(f"initial coefficients must have shape ({n},)")
    if u.grid != system.grid:
        raise ShapeMismatch("control does not match the oracle grid")
    timegrid = u.timegrid
    nt = timegrid.nt
    h = timegrid.tau / substeps
    A = system.lam
    jac_diag = 1.0 + 0.5 * h * (1.0 + A * A)

    y = np.empty((nt + 1, n))
    z = np.empty((nt + 1, n))
    y[0] = y0
    z[0] = A * y0 + _nonlinearity(system, spec, y0)

    def rhs(yv: np.ndarray, g: np.ndarray) -> np.ndarray:
        return -yv - A * (A * yv + _nonlinearity(system, spec, yv)) + g

    chord = increment = None
    iterations = jacobians = 0
    for step_idx in range(nt):
        g = system.project(u.slices[step_idx])
        yk = y[step_idx].copy()
        for _ in range(substeps):
            # solve yn = yk + h * rhs((yk + yn)/2) from the last substep's increment
            yn = yk + (h * rhs(yk, g) if increment is None else increment)
            tol = _NEWTON_TOL * (1.0 + np.linalg.norm(yk))
            last = np.inf
            for _ in range(_NEWTON_MAXIT):
                mid = 0.5 * (yk + yn)
                res = yn - yk - h * rhs(mid, g)
                norm = np.linalg.norm(res)
                if norm <= tol:
                    break
                if not np.isfinite(norm):  # the prediction or a correction overflowed
                    raise NewtonFailure(f"implicit midpoint Newton overflowed at output step {step_idx}")
                if chord is None or norm > _CHORD_RATE * last:
                    chord = jac_diag + (0.5 * h) * A * _curvature_diagonal(system, spec, mid)
                    jacobians += 1
                last = norm
                yn -= res / chord
                iterations += 1
            else:
                raise NewtonFailure(
                    f"implicit midpoint Newton stalled at output step {step_idx}"
                )
            increment = yn - yk
            yk = yn
        y[step_idx + 1] = yk
        z[step_idx + 1] = A * yk + _nonlinearity(system, spec, yk)
    return GalerkinTrajectory(system, timegrid, y, z, iterations, jacobians)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-step L^2 distances between the oracle and the PDE solver.

    ``phi_errors[n]`` is ||phi_o^n - phi^n|| / ||phi^n||, relative to the
    same step.  ``mu_errors[n]`` is ||mu_o^n - mu^n|| / max(max_k ||mu^k||,
    ||1||): relative to the trajectory's largest chemical potential when that
    is O(1) or more, and an RMS absolute error below that, so it stays
    finite and meaningful when mu vanishes.
    """

    phi_errors: np.ndarray
    mu_errors: np.ndarray

    @property
    def max_phi_error(self) -> float:
        return float(np.max(self.phi_errors))

    @property
    def max_mu_error(self) -> float:
        return float(np.max(self.mu_errors))


def compare_to_pde(oracle_traj: GalerkinTrajectory, pde_traj: StateTrajectory) -> ComparisonReport:
    """Per-step L^2 distances between the two solvers (see ComparisonReport)."""
    if oracle_traj.system.grid != pde_traj.grid:
        raise ShapeMismatch("oracle and PDE trajectories live on different grids")
    if oracle_traj.timegrid != pde_traj.timegrid:
        raise ShapeMismatch("oracle and PDE trajectories use different time grids")
    system = oracle_traj.system
    phi_norm = np.linalg.norm(pde_traj.phi, axis=1)
    mu_scale = max(float(np.max(np.linalg.norm(pde_traj.mu, axis=1))),
                   float(np.sqrt(pde_traj.grid.size)))
    phi_err = np.linalg.norm(system.reconstruct(oracle_traj.y) - pde_traj.phi, axis=1)
    mu_err = np.linalg.norm(system.reconstruct(oracle_traj.z) - pde_traj.mu, axis=1)
    return ComparisonReport(phi_err / np.maximum(phi_norm, 1e-300), mu_err / mu_scale)
