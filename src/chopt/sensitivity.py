"""Tangent (linearized) solver, exact discrete adjoint, and reduced gradient.

The tangent system applies the exact linearization of the forward stepper to
a control direction h (with zero initial data), so that

    phi(u + s*h) = phi(u) + s*xi + O(s^2)

holds for the discrete trajectories.  The adjoint sweep is the exact
transpose of that linear map, assembled source-by-source from the discrete
cost quadrature (discretize-then-optimize).  It returns the discrete
costate: the spectral cotangent of the cost at each snapshot.  As a
consequence the reduced gradient matches directional derivatives of the
discrete cost to roundoff, and the adjoint/tangent duality identity holds to
near machine precision.  In the limit of vanishing step sizes the costate,
scaled by 1/(tau w_n), approximates the continuous adjoint p, and the
gradient density approaches p + alpha4 * u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import potentials
from .cost import CostSpec
from .errors import NonFinite, ShapeMismatch
from .potentials import PotentialSpec
from .spectral import _dct, _idct
from .state import (
    ControlFunction,
    StateTrajectory,
    _Stepper,
    _trapezoid_weights,
    control_inner,
)

__all__ = [
    "TangentTrajectory",
    "AdjointTrajectory",
    "solve_linearized",
    "solve_adjoint",
    "reduced_gradient",
    "adjoint_identity_residual",
    "control_inner",
]


@dataclass(frozen=True)
class TangentTrajectory:
    """Snapshots (xi, eta) of the linearized state; xi(0) = 0."""

    grid: object
    timegrid: object
    xi: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.allclose(self.xi[0], 0.0):
            raise ValueError("tangent initial condition must vanish")
        if not (np.all(np.isfinite(self.xi)) and np.all(np.isfinite(self.eta))):
            raise ValueError("tangent trajectory contains non-finite values")


@dataclass(frozen=True)
class AdjointTrajectory:
    """The discrete costate of one backward sweep.

    ``costate[n]`` is the spectral cotangent of the cost with respect to an
    injection at xi^n, shape (nt+1, nx, ny); it drives the machine-precision
    gradient assembly.
    """

    grid: object
    timegrid: object
    costate: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.costate)):
            raise NonFinite("adjoint sweep produced non-finite values")


def _curvature(base: StateTrajectory, stepper: _Stepper) -> np.ndarray:
    """W^n = f''(phi^n) - S for n < nt: the tangent's g = W xi."""
    W = np.empty((base.timegrid.nt, base.grid.size))
    for n in range(base.timegrid.nt):
        W[n] = potentials.f_d2_vec(stepper.spec, base.phi[n]) - stepper.S
    return W


def solve_linearized(
    base: StateTrajectory,
    h: ControlFunction,
    spec: PotentialSpec,
) -> TangentTrajectory:
    """Exact linearization of the forward scheme along direction h."""
    if h.grid != base.grid or h.timegrid != base.timegrid:
        raise ShapeMismatch("direction does not match the base trajectory")
    stepper = _Stepper(base.grid, spec, base.timegrid.tau)
    W = _curvature(base, stepper)
    nt = base.timegrid.nt
    xi = np.zeros((nt + 1, base.grid.size))
    eta = np.zeros_like(xi)
    for n in range(nt):
        xi[n + 1], eta[n + 1] = stepper.linear(xi[n], h.slices[n], W[n] * xi[n])
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(eta))):
        raise NonFinite("tangent solve produced non-finite values")
    return TangentTrajectory(base.grid, base.timegrid, xi, eta)


def _cost_sources(base: StateTrajectory, cost: CostSpec):
    """Per-snapshot cotangent densities of the cost w.r.t. phi^n and mu^n."""
    a1, a2, a3, _ = cost.alpha
    tau = base.timegrid.tau
    nt = base.timegrid.nt
    w = _trapezoid_weights(nt)
    s_phi = np.zeros_like(base.phi)
    s_mu = np.zeros_like(base.mu)
    if a1 > 0:
        for n in range(nt + 1):
            s_phi[n] = a1 * tau * w[n] * (base.phi[n] - cost.phi_q_at(n))
    if a2 > 0:
        s_phi[nt] = s_phi[nt] + a2 * (base.phi[nt] - cost.phi_omega_or_zero())
    if a3 > 0:
        for n in range(nt + 1):
            s_mu[n] = a3 * tau * w[n] * (base.mu[n] - cost.mu_q_at(n))
    return s_phi, s_mu


def solve_adjoint(
    base: StateTrajectory,
    cost: CostSpec,
    spec: PotentialSpec,
) -> AdjointTrajectory:
    """Backward sweep: exact transpose of the linearized one-step map.

    The costate P^n is the cotangent of the cost with respect to an
    injection at xi^n; the recursion applies the transposed step operator and
    adds the per-snapshot cost sources (including the mu-tracking terms
    routed through the discrete mu update).
    """
    if cost.grid != base.grid or cost.timegrid != base.timegrid:
        raise ShapeMismatch("cost does not match the base trajectory")
    grid = base.grid
    stepper = _Stepper(grid, spec, base.timegrid.tau)
    lam, S, denom = stepper.lam, stepper.S, stepper.denom
    W = _curvature(base, stepper)
    nt = base.timegrid.nt
    tau = stepper.tau
    s_phi, s_mu = _cost_sources(base, cost)

    def r_hat(n: int) -> np.ndarray:
        r = _dct(grid, s_phi[n])
        if n >= 1:
            r = r + (lam + S) * _dct(grid, s_mu[n])
        if n <= nt - 1:
            r = r + _dct(grid, W[n] * s_mu[n + 1])
        return r

    costate = np.empty((nt + 1, grid.nx, grid.ny))
    costate[nt] = r_hat(nt)
    for n in range(nt - 1, -1, -1):
        a = costate[n + 1] / denom
        propagated = a - tau * _dct(grid, W[n] * _idct(lam * a))
        costate[n] = r_hat(n) + propagated
    return AdjointTrajectory(base.grid, base.timegrid, costate)


def _source_cotangent(base: StateTrajectory, adj: AdjointTrajectory) -> np.ndarray:
    """idct(P^{n+1} / denom), n < nt: the cotangent of a unit source at u^n."""
    denom = _Stepper(base.grid, base.spec, base.timegrid.tau).denom
    return np.array([_idct(c / denom) for c in adj.costate[1:]])


def reduced_gradient(
    base: StateTrajectory,
    adj: AdjointTrajectory,
    u: ControlFunction,
    cost: CostSpec,
) -> np.ndarray:
    """Gradient density g of the reduced discrete cost, shape (nt+1, size).

    With the trapezoid quadrature pairing <g, h>_{L2(Q)} = sum_n tau w_n
    <g^n, h^n>, the inner product of g with any direction equals the exact
    directional derivative of the discrete cost.
    """
    if adj.grid != base.grid or u.grid != base.grid:
        raise ShapeMismatch("mismatched grids in gradient assembly")
    w = _trapezoid_weights(base.timegrid.nt)
    g = cost.alpha[3] * u.slices
    g[:-1] += _source_cotangent(base, adj) / w[:-1, None]
    return g


def adjoint_identity_residual(
    base: StateTrajectory,
    tangent: TangentTrajectory,
    adj: AdjointTrajectory,
    h: ControlFunction,
    cost: CostSpec,
) -> float:
    """|<cost sources, tangent> - <costate, h sources>| for one direction.

    Both sides equal the tracking part of the directional derivative of the
    cost, so the residual is pure roundoff when tangent and adjoint come from
    the same base trajectory and cost.
    """
    nt = base.timegrid.nt
    tau = base.timegrid.tau
    cell = base.grid.cell
    s_phi, s_mu = _cost_sources(base, cost)
    lhs = 0.0
    for n in range(nt + 1):
        lhs += cell * float(np.dot(s_phi[n], tangent.xi[n]))
        lhs += cell * float(np.dot(s_mu[n], tangent.eta[n]))
    rhs = 0.0
    for n, c in enumerate(_source_cotangent(base, adj)):
        rhs += tau * cell * float(np.dot(c, h.slices[n]))
    return abs(lhs - rhs)
