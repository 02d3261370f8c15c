"""Admissible-set projection, projected-gradient optimizer, optimality check.

The admissible set couples a pointwise box |u| <= M with a bound M' on the
L^2(Q) norm of the discrete time derivative; both bounds belong to the
``ControlProblem``.  Feasibility is enforced by Dykstra's alternating
projection between the box and the derivative ball; the ball step rescales
the forward differences and reintegrates them around the preserved
time-mean slice.  ``project_Uad`` is the one producer that promises a
feasible control, and it checks its own output.  The optimizer is
projected-gradient descent with Barzilai–Borwein trial steps and Armijo
backtracking on the reduced discrete cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cost import CostSpec, cost_J
from .errors import ConfigurationError, ShapeMismatch
from .potentials import DOUBLE_OBSTACLE, PotentialSpec
from .sensitivity import reduced_gradient, solve_adjoint
from .spectral import Field, Grid
from .state import (
    ControlFunction,
    TimeGrid,
    _dt_norm,
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
    "optimality_residual",
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
    rescale; afterwards both constraints are re-enforced exactly.  The box
    holds exactly and the derivative bound to within ``FEASIBILITY_TOL``;
    an output that misses it raises ValueError.  Feasible inputs are
    returned unchanged (up to roundoff).
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
        if np.max(np.abs(x_new - x)) <= DYKSTRA_TOL:
            x = x_new
            break
        x = x_new
    # exact feasibility polish; the clip comes last, so the box holds exactly
    for _ in range(8):
        x = _project_ball(grid, timegrid, x, Mprime)
        x = np.clip(x, -M, M)
        dn = _dt_norm(grid, timegrid, np.diff(x, axis=0))
        if dn <= Mprime * (1.0 + 1e-12) + 1e-15:
            break
    if dn > Mprime + FEASIBILITY_TOL * (1.0 + Mprime):
        raise ValueError(f"control violates the derivative bound: {dn:g} > {Mprime:g}")
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
    return traj, cost_J(traj, u, cost)


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
    if cost.alpha[2] > 0 and problem.spec.variant == DOUBLE_OBSTACLE and problem.spec.reg_kind is None:
        raise ConfigurationError(
            "mu-tracking (alpha3 > 0) requires a single-valued potential; "
            "regularize the obstacle variant"
        )
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
        g = reduced_gradient(traj, solve_adjoint(traj, cost, problem.spec), u, cost)
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
    plus the projected-gradient point P(u* - g).  The raw probes are drawn
    from [-M, M], or from [-R, R] with R = 1 + ||u*||_inf when M is infinite.
    """
    rng = rng or np.random.default_rng(0)
    grid, tg = u_star.grid, u_star.timegrid
    radius = M if math.isfinite(M) else 1.0 + u_star.linf()
    worst = 0.0
    for _ in range(samples):
        raw = rng.uniform(-radius, radius, size=u_star.slices.shape)
        probe = project_Uad(grid, tg, raw, M, Mprime)
        val = control_inner(tg, grid, gradient, probe.slices - u_star.slices)
        worst = min(worst, val)
    u_pg = project_Uad(grid, tg, u_star.slices - gradient, M, Mprime)
    worst = min(worst, control_inner(tg, grid, gradient, u_pg.slices - u_star.slices))
    return worst
