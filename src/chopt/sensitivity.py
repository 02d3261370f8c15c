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

Every solve here linearizes about one base trajectory, which carries its
control and potential: ``solve_linearized(base, h)``, ``solve_adjoint(base,
cost)`` and ``reduced_gradient(base, adj, cost)`` take u and the potential
from ``base``, so the tangent, the costate and the gradient cannot be built
about a different control or potential than the one that was solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import potentials
from .cost import CostSpec
from .errors import NonFinite, ShapeMismatch
from .spectral import _dct, _finite, _idct
from .state import (
    ControlFunction,
    StateTrajectory,
    _Stepper,
    _trapezoid_weights,
)

__all__ = [
    "TangentTrajectory",
    "AdjointTrajectory",
    "solve_linearized",
    "solve_adjoint",
    "reduced_gradient",
    "adjoint_identity_residual",
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
        if not _finite(self.xi, self.eta):
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
        if not _finite(self.costate):
            raise NonFinite("adjoint sweep produced non-finite values")


def _curvature(base: StateTrajectory, stepper: _Stepper) -> np.ndarray:
    """W^n = f''(phi^n) - S for n < nt: the tangent's g = W xi."""
    return potentials.f_d2_vec(stepper.spec, base.phi[:-1]) - stepper.S


def solve_linearized(base: StateTrajectory, h: ControlFunction) -> TangentTrajectory:
    """Exact linearization of the forward scheme along direction h."""
    if h.grid != base.grid or h.timegrid != base.timegrid:
        raise ShapeMismatch("direction does not match the base trajectory")
    stepper = _Stepper(base.grid, base.spec, base.timegrid.tau)
    W = _curvature(base, stepper)
    nt = base.timegrid.nt
    xi = np.zeros((nt + 1, base.grid.size))
    eta = np.zeros_like(xi)
    xi_hat = np.zeros(stepper.lam.shape)
    for n, h_hat in enumerate(stepper.source_coeffs(h.slices)):
        xi_hat, xi[n + 1], eta[n + 1] = stepper.linear(xi_hat, h_hat, W[n] * xi[n])
    if not _finite(xi, eta):
        raise NonFinite("tangent solve produced non-finite values")
    return TangentTrajectory(base.grid, base.timegrid, xi, eta)


def _cost_sources(base: StateTrajectory, cost: CostSpec):
    """Per-snapshot cotangent densities of the cost w.r.t. phi^n and mu^n.

    The tracking terms carry the trapezoid weights tau * w_n of
    ``control_inner``, so cell * <s, delta> is the exact derivative of
    ``cost_J`` along a perturbation delta of phi or mu.
    """
    a1, a2, a3, _ = cost.alpha
    tau = base.timegrid.tau
    w = _trapezoid_weights(base.timegrid.nt)[:, None]
    s_phi = a1 * tau * w * (base.phi - cost.phi_q)
    s_phi[-1] += a2 * (base.phi[-1] - cost.phi_omega)
    s_mu = a3 * tau * w * (base.mu - cost.mu_q)
    return s_phi, s_mu


def solve_adjoint(base: StateTrajectory, cost: CostSpec) -> AdjointTrajectory:
    """Backward sweep: exact transpose of the linearized one-step map.

    The costate P^n is the cotangent of the cost with respect to an
    injection at xi^n; the recursion applies the transposed step operator and
    adds the per-snapshot cost sources (including the mu-tracking terms
    routed through the discrete mu update).
    """
    if cost.grid != base.grid or cost.timegrid != base.timegrid:
        raise ShapeMismatch("cost does not match the base trajectory")
    grid = base.grid
    stepper = _Stepper(grid, base.spec, base.timegrid.tau)
    lam, denom = stepper.lam, stepper.denom
    W = _curvature(base, stepper)
    nt = base.timegrid.nt
    tau = stepper.tau
    s_phi, s_mu = _cost_sources(base, cost)

    # the cost sources of every snapshot, transformed in three stacked calls;
    # the mu sources vanish without mu tracking, as cost_J skips that term
    costate = _dct(grid, s_phi)
    if cost.alpha[2] > 0:
        costate[1:] += stepper.lam_S * _dct(grid, s_mu[1:])
        costate[:-1] += _dct(grid, W * s_mu[1:])
    for n in range(nt - 1, -1, -1):
        a = costate[n + 1] / denom
        costate[n] += a - tau * _dct(grid, W[n] * _idct(lam * a))
    return AdjointTrajectory(base.grid, base.timegrid, costate)


def _source_cotangent(base: StateTrajectory, adj: AdjointTrajectory) -> np.ndarray:
    """idct(P^{n+1} / denom), n < nt: the cotangent of a unit source at u^n."""
    denom = _Stepper(base.grid, base.spec, base.timegrid.tau).denom
    return _idct(adj.costate[1:] / denom)


def reduced_gradient(base: StateTrajectory, adj: AdjointTrajectory, cost: CostSpec) -> np.ndarray:
    """Gradient density g of the reduced discrete cost at base.u, shape (nt+1, size).

    With the ``control_inner`` pairing <g, h>_{L2(Q)} = sum_n tau w_n cell
    <g^n, h^n>, the inner product of g with any direction equals the exact
    directional derivative of the discrete cost.
    """
    if adj.grid != base.grid:
        raise ShapeMismatch("mismatched grids in gradient assembly")
    w = _trapezoid_weights(base.timegrid.nt)
    g = cost.alpha[3] * base.u.slices
    g[:-1] += _source_cotangent(base, adj) / w[:-1, None]
    return g


def adjoint_identity_residual(
    base: StateTrajectory,
    tangent: TangentTrajectory,
    adj: AdjointTrajectory,
    h: ControlFunction,
    cost: CostSpec,
) -> float:
    """|<cost sources, tangent> - <costate, h sources>| / scale for one direction.

    Both sides equal the tracking part of the directional derivative of the
    cost, so the residual is pure roundoff when tangent and adjoint come from
    the same base trajectory and cost.  The scale is the Cauchy-Schwarz bound
    cell (||s_phi|| ||xi|| + ||s_mu|| ||eta||) of the tracking side, and so of
    the costate side it equals.
    """
    s_phi, s_mu = _cost_sources(base, cost)
    lhs = np.sum(s_phi * tangent.xi) + np.sum(s_mu * tangent.eta)
    rhs = base.timegrid.tau * np.sum(_source_cotangent(base, adj) * h.slices[:-1])
    cell = base.grid.cell
    scale = cell * (np.linalg.norm(s_phi) * np.linalg.norm(tangent.xi)
                    + np.linalg.norm(s_mu) * np.linalg.norm(tangent.eta))
    return abs(float(cell * (lhs - rhs))) / scale
