"""Tracking-type cost functional and its discrete quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .spectral import Grid
from .state import StateTrajectory, TimeGrid, control_inner

__all__ = ["CostSpec", "cost_J"]


@dataclass(frozen=True)
class CostSpec:
    """Weights and targets of the tracking cost.

    J = a1/2 |phi - phi_q|^2_Q + a2/2 |phi(T) - phi_omega|^2
      + a3/2 |mu - mu_q|^2_Q + a4/2 |u|^2_Q,

    discretized with trapezoid-in-time, midpoint-in-space quadrature.
    Targets left as None are stored as zeros.
    """

    grid: Grid
    timegrid: TimeGrid
    alpha: tuple[float, float, float, float]
    phi_q: np.ndarray | None = field(default=None, repr=False)
    phi_omega: np.ndarray | None = field(default=None, repr=False)
    mu_q: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        a = tuple(float(x) for x in self.alpha)
        if len(a) != 4 or not all(0 <= x < math.inf for x in a):
            raise ValueError("alpha must be four nonnegative finite weights")
        if all(x == 0 for x in a):
            raise ValueError("alpha weights must not all vanish")
        object.__setattr__(self, "alpha", a)
        shape_qt = (self.timegrid.nt + 1, self.grid.size)
        for name, target, shape in (
            ("phi_q", self.phi_q, shape_qt),
            ("mu_q", self.mu_q, shape_qt),
            ("phi_omega", self.phi_omega, (self.grid.size,)),
        ):
            t = np.zeros(shape) if target is None else np.asarray(target, dtype=float)
            if t.shape != shape:
                raise ShapeMismatch(f"{name} must have shape {shape}, got {t.shape}")
            object.__setattr__(self, name, t)


def cost_J(traj: StateTrajectory, cost: CostSpec) -> float:
    """Evaluate the discrete cost of the trajectory and its control; always nonnegative."""
    if traj.grid != cost.grid or traj.timegrid != cost.timegrid:
        raise ShapeMismatch("trajectory does not match the cost grids")
    a1, a2, a3, a4 = cost.alpha
    tg, grid = cost.timegrid, cost.grid
    total = 0.0
    if a1 > 0:
        d = traj.phi - cost.phi_q
        total += 0.5 * a1 * control_inner(tg, grid, d, d)
    if a2 > 0:
        d = traj.phi[-1] - cost.phi_omega
        total += 0.5 * a2 * grid.cell * float(np.dot(d, d))
    if a3 > 0:
        d = traj.mu - cost.mu_q
        total += 0.5 * a3 * control_inner(tg, grid, d, d)
    if a4 > 0:
        u = traj.u.slices
        total += 0.5 * a4 * control_inner(tg, grid, u, u)
    return total
