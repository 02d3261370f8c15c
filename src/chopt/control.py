"""Admissible-set projection and projected-gradient optimizer.

The admissible set couples a pointwise box |u| <= M with a bound M' on the
L^2(Q) norm of the discrete time derivative; both bounds belong to the
``ControlProblem``.  ``project_Uad`` is the metric projection P onto it in the
``control_inner`` pairing: the clip when the clip meets M', else the box QP
with the multiplier m of the derivative bound, solved by primal-dual active
sets for each m and a bracketed search for m.  It is the one producer that
promises a feasible control, and it checks its own output.  The optimizer is
projected-gradient descent with Barzilai–Borwein trial steps and Armijo
backtracking on the reduced discrete cost; u = P(u - g) is the variational
inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

__all__ = ["OptimizerConfig", "ControlProblem", "OptimizeResult", "project_Uad", "optimize"]

# Active-set rounds per box QP and box QPs per projection, each budget raising
# ConvergenceFailure when spent, and the gap M'/||d_t u|| - 1 that ends the multiplier search.
_MAX_ROUNDS, _MAX_QPS, _MULTIPLIER_RTOL = 100, 200, 1e-14
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

def _box_qp(wx: np.ndarray, w: np.ndarray, m: float, M: float, u: np.ndarray, lam: np.ndarray):
    """u(m) and its box multipliers lam: each column of u minimizes 1/2 ||u - x||_W^2 +
    (m/2) ||Du||^2 over |u| <= M, with ``wx`` = W x, W = diag(w) and D the time difference.

    Primal-dual active sets (Hintermüller, Ito & Kunisch 2002) on the Stieltjes matrix
    A = W + m D^T D, from the sets of a solution (u, lam) at another m and with c = diag A:
    rows where lam + c (u -+ M) lies beyond 0 are held at +-M, one batched Thomas sweep solves
    the others, and lam = W x - A u on the held rows.  Sets that repeat have solved the QP.
    """
    c = w + m * np.r_[1.0, np.full(len(wx) - 2, 2.0), 1.0][:, None]
    sets = None
    for _ in range(_MAX_ROUNDS):
        s = (lam + c * (u - M) > 0).astype(int) - (lam + c * (u + M) < 0)
        if np.array_equal(s, sets):
            return u, lam
        sets, held = s, s != 0
        # held rows move m times their value to their free neighbours' right-hand sides, and
        # m couples consecutive free rows.  e_k, pivot k less the m of its link to row k + 1,
        # is w_k + m e_(k-1) / (m + e_(k-1)) (m at a held row's e = inf): a sum of positive
        # terms, where the pivot w + 2m - m^2 / pivot_(k-1) cancels w against m
        h = np.where(held, np.copysign(M, s), 0.0)
        p = np.pad(h, ((1, 1), (0, 0)))
        u, off = np.where(held, 0.0, wx + m * (p[:-2] + p[2:])), m * ~(held[1:] | held[:-1])
        e = np.where(held, np.inf, w)
        for k in range(1, len(u)):
            e[k] += m / (1.0 + m / e[k - 1])
            u[k] += off[k - 1] * u[k - 1] / (e[k - 1] + m)
        u[-1] /= e[-1]
        for k in range(len(u) - 2, -1, -1):
            u[k] = (u[k] + off[k] * u[k + 1]) / (e[k] + m)
        u = np.where(held, h, u)
        d2u = np.diff(np.diff(u, axis=0), axis=0, prepend=0.0, append=0.0)
        lam = np.where(held, wx - w * u + m * d2u, 0.0)
    raise ConvergenceFailure(f"projection: the active sets did not settle in {_MAX_ROUNDS} rounds")


def project_Uad(grid: Grid, timegrid: TimeGrid, slices: np.ndarray, M: float,
                Mprime: float) -> ControlFunction:
    """The metric projection P onto the admissible set in the ``control_inner`` pairing.

    The clip of x is P(x) when it meets M' (a projection onto a superset that lands in the
    set), and at M' = 0 P(x) is the clipped trapezoid-weighted time mean.  Otherwise P(x) is
    the ``_box_qp`` solution u(m*) at the root m* > 0 of ||d_t u(m)|| = M', a norm that falls
    as m grows from u(0) = clip.  m* is bracketed by growing m, then narrowed by Illinois
    regula falsi (Dowell & Jarratt 1971) on M'/||d_t u(m)|| - 1, close to linear in m, each
    QP starting from the bracket's low end; P(x) is u at the feasible end once its norm is
    within ``_MULTIPLIER_RTOL`` of M' or the bracket has closed.  The box holds exactly; an
    output missing M' by more than ``FEASIBILITY_TOL`` raises ConvergenceFailure, as does an
    iteration that does not converge.
    """
    if not (M >= 0 and Mprime >= 0):
        raise ValueError("bounds must be nonnegative")
    x = np.asarray(slices, dtype=float)
    if x.shape != (timegrid.nt + 1, grid.size):
        raise ShapeMismatch("control slices have the wrong shape")
    u, w = np.clip(x, -M, M), _trapezoid_weights(timegrid.nt)[:, None]
    norm = _dt_norm(grid, timegrid, np.diff(u, axis=0))
    if norm > Mprime and Mprime == 0:
        u = np.repeat(np.clip(np.average(x, axis=0, weights=w[:, 0]), -M, M)[None], len(x), axis=0)
    elif norm > Mprime:
        wx = w * x
        # the bracket's ends [m, u(m), M'/||d_t u(m)|| - 1] and the box multipliers of the low end
        lo, lam_lo, hi, m, side = [0.0, u, Mprime / norm - 1.0], wx - w * u, None, 1.0, None
        for _ in range(_MAX_QPS):
            u, lam = _box_qp(wx, w, m, M, lo[1], lam_lo)
            norm = _dt_norm(grid, timegrid, np.diff(u, axis=0))
            f = Mprime / norm - 1.0 if norm > 0 else math.inf
            if 0 <= f <= _MULTIPLIER_RTOL:
                break
            if f < 0:
                lo, lam_lo = [m, u, f], lam
            else:
                hi = [m, u, f]
            if hi is None:
                m *= max(2.0, norm / Mprime)
                continue
            if side == (f < 0):  # Illinois: the end kept twice running has its residual halved
                (hi if f < 0 else lo)[2] *= 0.5
            side = f < 0
            m = (lo[0] * hi[2] - hi[0] * lo[2]) / (hi[2] - lo[2])
            if not lo[0] < m < hi[0]:  # also a nan from f = inf
                m = 0.5 * (lo[0] + hi[0])
                if not lo[0] < m < hi[0]:
                    u = hi[1]
                    break
        else:
            raise ConvergenceFailure(f"projection: the multiplier did not converge in {_MAX_QPS} box QPs")
    out = ControlFunction(grid, timegrid, u)
    dn = out.dt_l2()
    if dn > Mprime + FEASIBILITY_TOL * (1.0 + Mprime):
        raise ConvergenceFailure(f"control violates the derivative bound: {dn:g} > {Mprime:g}")
    return out


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

