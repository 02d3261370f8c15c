"""Admissible-set projection and projected-gradient optimizer.

The admissible set couples a pointwise box |u| <= M with a bound M' on the
L^2(Q) norm of the discrete time derivative; both bounds belong to the
``ControlProblem``.  ``project_Uad`` runs Dykstra's algorithm between the
box clip and the projection onto the derivative ball, both projections in
the ``control_inner`` metric, so its limit is the metric projection P onto
the admissible set; it is the one producer that promises a feasible
control, and it checks its own output.  The optimizer is projected-gradient
descent with Barzilai–Borwein trial steps and Armijo backtracking on the
reduced discrete cost; u = P(u - g) is the variational inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cost import CostSpec, cost_J
from .errors import ConfigurationError, ConvergenceFailure, ShapeMismatch
from .potentials import PotentialSpec
from .sensitivity import reduced_gradient, solve_adjoint
from .spectral import Field, Grid
from .state import (
    ControlFunction,
    TimeGrid,
    _dt_norm,
    _trapezoid_weights,
    control_inner,
    simulate,
    validate_compatibility,
)

__all__ = [
    "OptimizerConfig",
    "ControlProblem",
    "OptimizeResult",
    "project_Uad",
    "optimize",
]

# Dykstra's iteration budget and its stopping increment (max-norm).
DYKSTRA_ITERS = 50
DYKSTRA_TOL = 1e-10
# Relative slack of the derivative bound that project_Uad guarantees.
FEASIBILITY_TOL = 1e-9
# The line search: largest trial step, Armijo constant, backtracking factor
# and the number of trial steps before it reports a stall.
MAX_STEP = 1e6
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200
    initial_step: float = 1.0
    tol: float = 1e-6

    def __post_init__(self):
        for name in ("max_iters", "initial_step", "tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ControlProblem:
    """Forward-problem data and the bounds M, M' of the admissible set."""

    phi0: Field
    spec: PotentialSpec
    timegrid: TimeGrid
    M: float
    Mprime: float

    @property
    def grid(self) -> Grid:
        return self.phi0.grid


# ---------------------------------------------------------------------------
# projection onto the admissible set

@lru_cache(maxsize=8)
def _ball_basis(nt: int):
    """sqrt(w) and the eigenpairs of W^(-1/2) L W^(-1/2), read-only, W = diag(w) the trapezoid
    weights and L = D^T D the path Laplacian in time; the null eigenvalue is exactly 0."""
    sw = np.sqrt(_trapezoid_weights(nt))
    d = np.diff(np.eye(nt + 1), axis=0)
    lam, vecs = np.linalg.eigh(d.T @ d / np.outer(sw, sw))
    lam[0] = 0.0
    sw.flags.writeable = lam.flags.writeable = vecs.flags.writeable = False
    return sw, lam, vecs


def _project_ball(grid: Grid, timegrid: TimeGrid, slices: np.ndarray, Mprime: float):
    """The ``control_inner`` projection onto ||d_t u|| <= M'; a copy when ||d_t x|| <= M'.

    u solves (W + m L) u = W x.  The multiplier m is the root of 1/||d_t u(m)|| = 1/M',
    which Newton's method from m = 0 approaches from below (Moré & Sorensen 1983).
    At M' = 0, u is the trapezoid-weighted time mean.
    """
    norm = _dt_norm(grid, timegrid, np.diff(slices, axis=0))
    if norm <= Mprime:
        return slices.copy()
    if Mprime == 0:
        mean = np.average(slices, axis=0, weights=_trapezoid_weights(timegrid.nt))
        return np.repeat(mean[None, :], len(slices), axis=0)
    sw, lam, vecs = _ball_basis(timegrid.nt)
    z = vecs.T @ (sw[:, None] * slices)
    # ||d_t u(m)||^2 = sum_k lam_k zz_k / (1 + m lam_k)^2
    zz = grid.cell / timegrid.tau * np.sum(z * z, axis=1)
    m = 0.0
    for _ in range(100):  # it stops within ten steps
        r = 1.0 / (1.0 + m * lam)
        dn2 = np.dot(lam * r * r, zz)
        dm = dn2 * (math.sqrt(dn2) / Mprime - 1.0) / np.dot(lam * lam * r**3, zz)
        m += dm
        if dm <= 1e-14 * m:
            break
    return vecs @ (z / (1.0 + m * lam)[:, None]) / sw[:, None]


def project_Uad(
    grid: Grid,
    timegrid: TimeGrid,
    slices: np.ndarray,
    M: float,
    Mprime: float,
) -> ControlFunction:
    """Project a raw control onto the admissible set.

    Dykstra's algorithm alternates the box clip with the derivative-ball
    projection for at most ``DYKSTRA_ITERS`` rounds, then clips once more.  The
    box holds exactly, and since a clip cannot raise ||d_t u||, the derivative
    bound to within ``FEASIBILITY_TOL``; an output that misses it raises
    ConvergenceFailure.  Feasible inputs are returned unchanged (up to roundoff).
    """
    if not (M >= 0 and Mprime >= 0):
        raise ValueError("bounds must be nonnegative")
    x = np.asarray(slices, dtype=float)
    if x.shape != (timegrid.nt + 1, grid.size):
        raise ShapeMismatch("control slices have the wrong shape")
    p_inc = np.zeros_like(x)
    q_inc = np.zeros_like(x)
    for _ in range(DYKSTRA_ITERS):
        y = np.clip(x + p_inc, -M, M)
        p_inc = x + p_inc - y
        x_new = _project_ball(grid, timegrid, y + q_inc, Mprime)
        q_inc = y + q_inc - x_new
        x, dx = x_new, np.max(np.abs(x_new - x))
        if dx <= DYKSTRA_TOL:
            break
    x = np.clip(x, -M, M)
    dn = _dt_norm(grid, timegrid, np.diff(x, axis=0))
    if dn > Mprime + FEASIBILITY_TOL * (1.0 + Mprime):
        raise ConvergenceFailure(f"control violates the derivative bound: {dn:g} > {Mprime:g}")
    return ControlFunction(grid, timegrid, x)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class OptimizeResult:
    """The last accepted control and the iteration log."""

    u: ControlFunction
    history: list = field(repr=False)
    converged: bool = False
    stalled: bool = False
    J: float = np.nan
    iterations: int = 0


def _evaluate(problem: ControlProblem, u: ControlFunction, cost: CostSpec):
    traj = simulate(
        u=u,
        phi0=problem.phi0,
        spec=problem.spec,
        timegrid=problem.timegrid,
        check_compatibility=False,
        with_diagnostics=False,
    )
    return traj, cost_J(traj, cost)


def _bb_step(tg: TimeGrid, grid: Grid, s: np.ndarray, y: np.ndarray, step: float) -> float:
    """The Barzilai–Borwein step <s, s>/<s, y>, capped; ``step`` when <s, y> <= 0."""
    sy = control_inner(tg, grid, s, y)
    return min(control_inner(tg, grid, s, s) / sy, MAX_STEP) if sy > 0 else step


def optimize(
    u0: ControlFunction,
    problem: ControlProblem,
    cost: CostSpec,
    config: OptimizerConfig = OptimizerConfig(),
) -> OptimizeResult:
    """Projected-gradient descent with Barzilai–Borwein trial steps.

    The first line search starts at ``initial_step``.  Each later one starts
    at the BB step <s, s>/<s, y> in the ``control_inner`` metric, capped at
    ``MAX_STEP``, where s and y are the changes of the control and of the
    gradient over the last accepted step; when <s, y> <= 0 it starts at the
    last accepted step instead.  Armijo backtracking keeps every accepted
    step from increasing J.  The run stops when the projected
    gradient residual ||u - P(u - g)|| falls below tol * (1 + ||g||), or when
    the line search stalls (best iterate returned with the stalled flag).
    """
    report = validate_compatibility(problem.phi0, problem.M, problem.spec)
    if not report.passed:
        raise ConfigurationError(
            f"(phi0, M) incompatible with the potential domain (margin {report.margin:g})"
        )
    grid, tg = problem.grid, problem.timegrid
    proj = lambda s: project_Uad(grid, tg, s, problem.M, problem.Mprime)
    u = proj(u0.slices)
    traj, J = _evaluate(problem, u, cost)
    step = config.initial_step
    u_prev = g_prev = None
    history = []
    converged = False
    stalled = False
    it = 0
    for it in range(1, config.max_iters + 1):
        g = reduced_gradient(traj, solve_adjoint(traj, cost), cost)
        if u_prev is not None:
            step = _bb_step(tg, grid, u.slices - u_prev, g - g_prev, step)
            # released here, so the line search holds no extra control copies
            u_prev = g_prev = None
        gnorm = np.sqrt(control_inner(tg, grid, g, g))
        u_pg = proj(u.slices - g)
        stationarity = np.sqrt(
            control_inner(tg, grid, u.slices - u_pg.slices, u.slices - u_pg.slices)
        )
        history.append(
            {
                "iter": it,
                "J": J,
                "step": step,
                "stationarity": stationarity,
                "feasibility_linf": max(0.0, u.linf() - problem.M),
                "feasibility_h1": max(0.0, u.dt_l2() - problem.Mprime),
            }
        )
        if stationarity <= config.tol * (1.0 + gnorm):
            converged = True
            break
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = proj(u.slices - step * g)
            pred = control_inner(tg, grid, g, u.slices - cand.slices)
            traj_c, J_c = _evaluate(problem, cand, cost)
            if J_c <= J - ARMIJO_C * pred:
                u_prev, g_prev = u.slices, g
                u, traj, J = cand, traj_c, J_c
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            stalled = True
            break
    return OptimizeResult(u, history, converged, stalled, J, it)

