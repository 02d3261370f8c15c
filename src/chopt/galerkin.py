"""Eigenmode-truncated ODE oracle for the forward solver.

The weak problem restricted to the span of the first n Neumann eigenfunctions
reduces to the ODE system

    y'(t) + y(t) + A z(t) = g(t),      z(t) = A y(t) + G(y(t)),

where A = diag(lambda_1..lambda_n), g_j(t) = (u(t), e_j), and G projects the
nodal nonlinearity beta_reg(phi) + pi(phi) back onto the modes.  The system is
integrated with a fixed-step implicit midpoint rule (A-stable, second order)
with a damped-free Newton inner solve, and serves as an independent
cross-check of the spectral PDE stepper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import potentials
from .errors import BadModeCount, NewtonFailure, ShapeMismatch
from .potentials import PotentialSpec
from .spectral import Field, Grid, basis_modes, lowest_modes, to_spectral
from .state import ControlFunction, StateTrajectory, TimeGrid

__all__ = [
    "GalerkinSystem",
    "GalerkinTrajectory",
    "build_system",
    "project_initial",
    "integrate",
    "compare_to_pde",
]

_NEWTON_TOL = 1e-12
_NEWTON_MAXIT = 50


@dataclass(frozen=True)
class GalerkinSystem:
    """First n eigenmodes of the grid, ordered by nondecreasing eigenvalue.

    Ties are broken lexicographically by (j, k).  ``basis`` holds the sampled
    orthonormal eigenfunctions, shape (n, nx*ny).
    """

    grid: Grid
    n: int
    modes: tuple
    lam: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)

    def project(self, values: np.ndarray) -> np.ndarray:
        """H-projection of nodal values onto the modes (discrete quadrature)."""
        return self.grid.cell * self.basis @ values

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self.basis


def _modes(grid: Grid, n: int):
    if not (1 <= n <= grid.size):
        raise BadModeCount(f"mode count {n} outside 1..{grid.size}")
    return lowest_modes(grid, n)


def build_system(grid: Grid, n: int) -> GalerkinSystem:
    j, k = _modes(grid, n)
    modes = tuple(zip(j.tolist(), k.tolist()))
    return GalerkinSystem(grid, n, modes, grid.eigenvalues()[j, k], basis_modes(grid, j, k))


def project_initial(phi0: Field, n: int) -> np.ndarray:
    """First n spectral coefficients of phi0 in eigenvalue order."""
    return to_spectral(phi0).coeffs[_modes(phi0.grid, n)]


@dataclass(frozen=True)
class GalerkinTrajectory:
    system: GalerkinSystem
    timegrid: TimeGrid
    y: np.ndarray = field(repr=False)  # state coefficients, (nt+1, n)
    z: np.ndarray = field(repr=False)  # chemical potential coefficients

    def phi_values(self, step: int) -> np.ndarray:
        return self.system.reconstruct(self.y[step])

    def mu_values(self, step: int) -> np.ndarray:
        return self.system.reconstruct(self.z[step])


def _nonlinearity(system: GalerkinSystem, spec: PotentialSpec, y: np.ndarray) -> np.ndarray:
    phi = system.reconstruct(y)
    nl = potentials.beta_reg_vec(spec, phi) + potentials.pi_d1(spec) * phi
    return system.project(nl)


def _nonlinearity_jac(system: GalerkinSystem, spec: PotentialSpec, y: np.ndarray) -> np.ndarray:
    phi = system.reconstruct(y)
    w = potentials.f_d2_vec(spec, phi)
    return system.grid.cell * (system.basis * w) @ system.basis.T


def integrate(
    system: GalerkinSystem,
    y0: np.ndarray,
    u: ControlFunction,
    spec: PotentialSpec,
    timegrid: TimeGrid,
    substeps: int = 1,
) -> GalerkinTrajectory:
    """Integrate the truncated system with the implicit midpoint rule.

    ``substeps`` inner steps are taken per output step; the control is held at
    its left slab value, matching the PDE stepper.  Raises NewtonFailure if
    the inner solve stalls (reduce the step).
    """
    n = system.n
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (n,):
        raise ShapeMismatch(f"initial coefficients must have shape ({n},)")
    if u.grid != system.grid or u.timegrid != timegrid:
        raise ShapeMismatch("control does not match the oracle grids")
    nt = timegrid.nt
    h = timegrid.tau / substeps
    A = system.lam
    A2 = A * A
    eye = np.eye(n)

    y = np.empty((nt + 1, n))
    z = np.empty((nt + 1, n))
    y[0] = y0
    z[0] = A * y0 + _nonlinearity(system, spec, y0)

    def rhs(yv: np.ndarray, g: np.ndarray) -> np.ndarray:
        return -yv - A * (A * yv + _nonlinearity(system, spec, yv)) + g

    for step_idx in range(nt):
        g = system.project(u.slices[step_idx])
        yk = y[step_idx].copy()
        for _ in range(substeps):
            # solve yn = yk + h * rhs((yk + yn)/2)
            yn = yk + h * rhs(yk, g)  # explicit predictor
            converged = False
            for _ in range(_NEWTON_MAXIT):
                mid = 0.5 * (yk + yn)
                res = yn - yk - h * rhs(mid, g)
                scale = 1.0 + np.linalg.norm(yk)
                if np.linalg.norm(res) <= _NEWTON_TOL * scale:
                    converged = True
                    break
                jac_f = -eye - np.diag(A2) - (A[:, None] * _nonlinearity_jac(system, spec, mid))
                jac = eye - 0.5 * h * jac_f
                yn = yn - np.linalg.solve(jac, res)
            if not converged:
                raise NewtonFailure(
                    f"implicit midpoint Newton stalled at output step {step_idx}"
                )
            yk = yn
        y[step_idx + 1] = yk
        z[step_idx + 1] = A * yk + _nonlinearity(system, spec, yk)
    return GalerkinTrajectory(system, timegrid, y, z)


@dataclass(frozen=True)
class ComparisonReport:
    phi_errors: np.ndarray
    mu_errors: np.ndarray

    @property
    def max_phi_error(self) -> float:
        return float(np.max(self.phi_errors))

    @property
    def max_mu_error(self) -> float:
        return float(np.max(self.mu_errors))


def compare_to_pde(oracle_traj: GalerkinTrajectory, pde_traj: StateTrajectory) -> ComparisonReport:
    """Per-time relative L^2 distances between the two solvers."""
    if oracle_traj.system.grid != pde_traj.grid:
        raise ShapeMismatch("oracle and PDE trajectories live on different grids")
    if oracle_traj.timegrid != pde_traj.timegrid:
        raise ShapeMismatch("oracle and PDE trajectories use different time grids")
    nt = pde_traj.timegrid.nt
    phi_err = np.empty(nt + 1)
    mu_err = np.empty(nt + 1)
    for n in range(nt + 1):
        po = oracle_traj.phi_values(n)
        mo = oracle_traj.mu_values(n)
        denom_p = max(np.linalg.norm(pde_traj.phi[n]), 1e-300)
        denom_m = max(np.linalg.norm(pde_traj.mu[n]), 1e-300)
        phi_err[n] = np.linalg.norm(po - pde_traj.phi[n]) / denom_p
        mu_err[n] = np.linalg.norm(mo - pde_traj.mu[n]) / denom_m
    return ComparisonReport(phi_err, mu_err)
