"""Admissible-set projection, projected-gradient optimizer, optimality check.

The admissible set couples a pointwise box |u| <= M with a bound M' on the
L^2(Q) norm of the discrete time derivative.  Feasibility is enforced by
Dykstra's alternating projection between the box and the derivative ball;
the ball step rescales the forward differences and reintegrates them around
the preserved time-mean slice.  The optimizer is projected gradient descent
with Armijo backtracking on the reduced discrete cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost import CostSpec, cost_J
from .errors import ConfigurationError, ShapeMismatch
from .potentials import DOUBLE_OBSTACLE, PotentialSpec
from .sensitivity import control_inner, reduced_gradient, solve_adjoint
from .spectral import Field, Grid
from .state import (
    ControlFunction,
    TimeGrid,
    _dt_norm,
    simulate,
    validate_compatibility,
)

__all__ = [
    "OptimizerConfig",
    "ControlProblem",
    "OptimizeResult",
    "project_Uad",
    "optimize",
    "optimality_residual",
    "CostSpec",
    "cost_J",
]

# Dykstra's iteration budget and its stopping increment (max-norm).
DYKSTRA_ITERS = 50
DYKSTRA_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    initial_step: float = 1.0
    step_growth: float = 2.0
    tol: float = 1e-6
    max_backtracks: int = 40

    def __post_init__(self):
        if not (0.0 < self.armijo_c < 1.0):
            raise ValueError("armijo_c must lie in (0, 1)")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack factor must lie in (0, 1)")
        for name in ("max_iters", "initial_step", "tol", "max_backtracks"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ControlProblem:
    """Forward-problem data the optimizer needs to evaluate a control."""

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

def _diff_decompose(slices: np.ndarray):
    m = slices.mean(axis=0)
    d = np.diff(slices, axis=0)
    return m, d


def _diff_reintegrate(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    nt1 = d.shape[0] + 1
    prefix = np.zeros((nt1, d.shape[1]))
    prefix[1:] = np.cumsum(d, axis=0)
    return prefix + (m - prefix.mean(axis=0))


def _project_ball(grid: Grid, timegrid: TimeGrid, slices: np.ndarray, Mprime: float):
    m, d = _diff_decompose(slices)
    norm = _dt_norm(grid, timegrid, d)
    if norm <= Mprime:
        return slices.copy()
    scale = Mprime / norm if norm > 0 else 0.0
    return _diff_reintegrate(m, scale * d)


def project_Uad(
    grid: Grid,
    timegrid: TimeGrid,
    slices: np.ndarray,
    M: float,
    Mprime: float,
) -> ControlFunction:
    """Project a raw control onto the admissible set.

    Dykstra's algorithm alternates the box clamp with the derivative-ball
    rescale; afterwards both constraints are re-enforced exactly so the
    output is feasible to within 1e-9.  Feasible inputs are returned
    unchanged (up to roundoff).
    """
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
        if np.max(np.abs(x_new - x)) <= DYKSTRA_TOL:
            x = x_new
            break
        x = x_new
    # exact feasibility polish
    for _ in range(8):
        x = _project_ball(grid, timegrid, x, Mprime)
        x = np.clip(x, -M, M)
        m, d = _diff_decompose(x)
        if _dt_norm(grid, timegrid, d) <= Mprime * (1.0 + 1e-12) + 1e-15:
            break
    return ControlFunction(grid, timegrid, x, M, Mprime)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class OptimizeResult:
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
    return traj, cost_J(traj, u, cost)


def optimize(
    u0: ControlFunction,
    problem: ControlProblem,
    cost: CostSpec,
    config: OptimizerConfig = OptimizerConfig(),
) -> OptimizeResult:
    """Projected-gradient descent with Armijo backtracking.

    Accepted steps never increase J; the run stops when the projected
    gradient residual ||u - P(u - g)|| falls below tol * (1 + ||g||), or when
    the line search stalls (best iterate returned with the stalled flag).
    """
    if cost.alpha[2] > 0 and problem.spec.variant == DOUBLE_OBSTACLE and problem.spec.reg_kind is None:
        raise ConfigurationError(
            "mu-tracking (alpha3 > 0) requires a single-valued potential; "
            "regularize the obstacle variant"
        )
    report = validate_compatibility(problem.phi0, u0, problem.spec)
    if not report.passed:
        raise ConfigurationError(
            f"(phi0, u) incompatible with the potential domain (margin {report.margin:g})"
        )
    grid, tg = problem.grid, problem.timegrid
    proj = lambda s: project_Uad(grid, tg, s, problem.M, problem.Mprime)
    u = proj(u0.slices)
    traj, J = _evaluate(problem, u, cost)
    step = config.initial_step
    history = []
    converged = False
    stalled = False
    it = 0
    for it in range(1, config.max_iters + 1):
        adj = solve_adjoint(traj, cost, problem.spec)
        g = reduced_gradient(traj, adj, u, cost)
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
        for _ in range(config.max_backtracks):
            cand = proj(u.slices - step * g)
            pred = control_inner(tg, grid, g, u.slices - cand.slices)
            traj_c, J_c = _evaluate(problem, cand, cost)
            if J_c <= J - config.armijo_c * pred:
                u, traj, J = cand, traj_c, J_c
                accepted = True
                step = min(step * config.step_growth, 1e6)
                break
            step *= config.backtrack
        if not accepted:
            stalled = True
            break
    return OptimizeResult(u, history, converged, stalled, J, it)


def optimality_residual(
    u_star: ControlFunction,
    gradient: np.ndarray,
    M: float,
    Mprime: float,
    samples: int = 100,
    rng: np.random.Generator | None = None,
) -> float:
    """Most negative value of <g, u - u*>_{L2(Q)} over random feasible probes.

    ``gradient`` is the reduced gradient density at u* (the costate part
    plus the control-weight term).  At optimality the form is nonnegative for
    every admissible u; the probe set is ``samples`` random feasible controls
    plus the projected-gradient point P(u* - g).
    """
    rng = rng or np.random.default_rng(0)
    grid, tg = u_star.grid, u_star.timegrid
    worst = 0.0
    for _ in range(samples):
        raw = rng.uniform(-M, M, size=u_star.slices.shape)
        probe = project_Uad(grid, tg, raw, M, Mprime)
        val = control_inner(tg, grid, gradient, probe.slices - u_star.slices)
        worst = min(worst, val)
    u_pg = project_Uad(grid, tg, u_star.slices - gradient, M, Mprime)
    worst = min(worst, control_inner(tg, grid, gradient, u_pg.slices - u_star.slices))
    return worst
