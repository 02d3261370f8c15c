"""Forward solver for the controlled phase-field system.

The dynamics are

    d/dt phi + phi - Delta mu = u,      mu = -Delta phi + f'(phi),

with homogeneous Neumann boundary conditions on the rectangle.  Time stepping
uses a stabilized, linearly implicit spectral scheme: the linear fourth-order
part plus a splitting term S*phi is treated implicitly, the remaining
nonlinearity g = beta_reg(phi) + pi(phi) - S*phi explicitly.  Per cosine mode
(j,k) with eigenvalue lam,

    (1 + tau + tau*lam^2 + tau*lam*S) phi_hat^{n+1}
        = phi_hat^n + tau*u_hat^n - tau*lam*g_hat^n,

and mu^{n+1} = -Delta phi^{n+1} + S phi^{n+1} + g^n.  The constant mode
decouples and reproduces the implicit-Euler iterates of the scalar mean ODE
d/dt phibar + phibar = ubar exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import potentials
from .errors import NonFinite, ShapeMismatch
from .potentials import PotentialSpec
from .spectral import Field, Grid, _dct, _idct, grad_sq

__all__ = [
    "TimeGrid",
    "ControlFunction",
    "StateTrajectory",
    "CompatibilityReport",
    "validate_compatibility",
    "default_stabilization",
    "control_inner",
    "simulate",
    "mean_closed_form",
    "energy",
    "energy_balance_residual",
]

COMPATIBILITY_MARGIN = 1e-3


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with nt steps."""

    T: float
    nt: int

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError("final time must be positive and finite")
        if self.nt < 1:
            raise ValueError("need at least one time step")

    @property
    def tau(self) -> float:
        return self.T / self.nt

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)


@dataclass(frozen=True)
class ControlFunction:
    """Space-time control u on the state grids.

    ``slices`` has shape (nt+1, nx*ny); slice n is u(., t_n).  The time
    derivative is measured by forward differences:
    ||d_t u||^2 = sum_n cell * |u^{n+1} - u^n|^2 / tau.  The bounds M and M'
    of the admissible set belong to the control problem, not to a control.
    """

    grid: Grid
    timegrid: TimeGrid
    slices: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.asarray(self.slices, dtype=float)
        if s.shape != (self.timegrid.nt + 1, self.grid.size):
            raise ShapeMismatch(
                f"control slices must have shape {(self.timegrid.nt + 1, self.grid.size)}"
            )
        if not np.all(np.isfinite(s)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "slices", s)

    def linf(self) -> float:
        return float(np.max(np.abs(self.slices))) if self.slices.size else 0.0

    def dt_l2(self) -> float:
        return _dt_norm(self.grid, self.timegrid, np.diff(self.slices, axis=0))

    def means(self) -> np.ndarray:
        return self.slices.mean(axis=1)

    @staticmethod
    def constant(grid: Grid, timegrid: TimeGrid, value: float):
        s = np.full((timegrid.nt + 1, grid.size), float(value))
        return ControlFunction(grid, timegrid, s)


def _dt_norm(grid: Grid, timegrid: TimeGrid, d: np.ndarray) -> float:
    """||d_t u|| = sqrt(cell * sum |u^{n+1} - u^n|^2 / tau) from the differences d."""
    return float(np.sqrt(grid.cell * np.sum(d * d) / timegrid.tau))


def _trapezoid_weights(nt: int) -> np.ndarray:
    w = np.ones(nt + 1)
    w[0] = w[-1] = 0.5
    return w


def control_inner(timegrid: TimeGrid, grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Trapezoid-in-time L^2(Q) inner product of two control-shaped series.

    This is the one L^2(Q) pairing of the control problem: the cost, the
    adjoint's cost sources (which carry the same weights tau * w_n), the
    reduced gradient and the optimizer's metric (stationarity, Armijo
    prediction, Barzilai-Borwein step) all use it, and sqrt(control_inner(x,
    x)) is the L^2(Q) norm of a ControlFunction's slices.  ``project_Uad``
    acts on the same slices, but its Dykstra steps are Euclidean per slice,
    so it is not yet the metric projection in this pairing.
    """
    w = _trapezoid_weights(timegrid.nt)
    return float(timegrid.tau * np.dot(w, grid.cell * np.sum(a * b, axis=1)))


@dataclass(frozen=True)
class StateTrajectory:
    """Snapshots of phi and mu for one forward solve, plus per-step diagnostics."""

    grid: Grid
    timegrid: TimeGrid
    spec: PotentialSpec
    phi: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    diagnostics: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        shape = (self.timegrid.nt + 1, self.grid.size)
        if self.phi.shape != shape or self.mu.shape != shape:
            raise ShapeMismatch(f"trajectory arrays must have shape {shape}")
        if not (np.all(np.isfinite(self.phi)) and np.all(np.isfinite(self.mu))):
            raise ValueError("trajectory contains non-finite values")

    def means(self) -> np.ndarray:
        return self.phi.mean(axis=1)


# ---------------------------------------------------------------------------
# compatibility of (phi0, u) with the potential domain

@dataclass(frozen=True)
class CompatibilityReport:
    passed: bool
    margin: float

    def __bool__(self) -> bool:
        return self.passed


def validate_compatibility(phi0: Field, M: float, spec: PotentialSpec) -> CompatibilityReport:
    """Check that phi0 and the shifted means phibar0 +/- M stay inside D(beta).

    ``M`` bounds the control in the sup norm: the box of the admissible set,
    or ||u||_inf for one given control.  For singular variants the extrema
    of phi0 and phibar0 +/- M must sit in (-1, 1) with margin at least
    ``COMPATIBILITY_MARGIN``, so an infinite or NaN M fails.  The regular
    variant always passes (D(beta) is the whole line).
    """
    if not spec.singular:
        return CompatibilityReport(True, np.inf)
    pmin = float(np.min(phi0.values))
    pmax = float(np.max(phi0.values))
    pbar = float(np.mean(phi0.values))
    lo, hi = -1.0, 1.0
    margin = float(np.min([pmin - lo, hi - pmax, (pbar - M) - lo, hi - (pbar + M)]))
    return CompatibilityReport(margin >= COMPATIBILITY_MARGIN, margin)


def default_stabilization(spec: PotentialSpec, interval: tuple[float, float] | None = None) -> float:
    """Splitting constant S = sup |f''| over the working interval.

    Defaults to [-1.2, 1.2] for the regular variant and to the compatibility
    interval (clipped into D(beta)) for singular ones.
    """
    if interval is None:
        interval = (-1.2, 1.2)
    lo, hi = interval
    if spec.singular:
        lo = max(lo, -1.0 + 1e-6)
        hi = min(hi, 1.0 - 1e-6)
    rs = np.linspace(lo, hi, 513)
    vals = np.abs(potentials.f_d2_vec(spec, rs))
    return float(np.max(vals))


# ---------------------------------------------------------------------------
# time stepping

class _Stepper:
    """The semi-implicit update: eigenvalues, splitting constant S, denominator."""

    def __init__(self, grid: Grid, spec: PotentialSpec, tau: float):
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.grid = grid
        self.spec = spec
        self.tau = tau
        self.lam = grid.eigenvalues()
        S = spec.stabilization
        self.S = S
        self.denom = 1.0 + tau + tau * self.lam**2 + tau * self.lam * S

    def nonlinear(self, phi: np.ndarray) -> np.ndarray:
        return (
            potentials.beta_reg_vec(self.spec, phi)
            + potentials.pi_d1(self.spec) * phi
            - self.S * phi
        )

    def linear(self, x: np.ndarray, s: np.ndarray, g: np.ndarray, grads=None):
        """The implicit update with explicit term g and source s.

        x_hat' = (x_hat + tau s_hat - tau lam g_hat) / denom and
        y' = idct((lam + S) x_hat') + g; returns (x', y') nodal arrays.  The
        forward step takes g = f'(phi) - S phi, the tangent g = W xi.  The
        transform is linear, so x + tau s is transformed as one field.  A length-2
        ``grads`` receives ||grad x'||^2, ||grad y'||^2 = cell * sum lam * coeff^2.
        """
        grid = self.grid
        ghat = _dct(grid, g)
        xhat = (_dct(grid, x + self.tau * s) - self.tau * self.lam * ghat) / self.denom
        yhat = (self.lam + self.S) * xhat
        if grads is not None:
            grads[0] = grid.cell * np.sum(self.lam * xhat**2)
            grads[1] = grid.cell * np.sum(self.lam * (yhat + ghat) ** 2)
        return _idct(xhat), _idct(yhat) + g

    def advance(self, phi: np.ndarray, u: np.ndarray, grads=None):
        """One step; returns (phi_next, mu_next) nodal arrays (``grads`` as in linear).

        Overflow propagates as inf/nan without a warning: the callers check
        the result and report a blow-up as NonFinite.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self.linear(phi, u, self.nonlinear(phi), grads)

    def mu_of(self, phi: np.ndarray) -> np.ndarray:
        """Chemical potential -Delta phi + f'(phi) for a snapshot (used at t=0)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _idct(self.lam * _dct(self.grid, phi)) + potentials.f_d1_vec(self.spec, phi)


def _energies(grid: Grid, spec: PotentialSpec, phi: np.ndarray, g2s: np.ndarray) -> np.ndarray:
    """E = 0.5 ||grad phi||^2 + int f(phi) for each snapshot row of phi; g2s = ||grad phi||^2."""
    return np.array([
        0.5 * g2 + grid.cell * np.sum(potentials.f_value_vec(spec, p))
        for g2, p in zip(g2s, phi)
    ])


def _diagnostics(
    grid: Grid, spec: PotentialSpec, timegrid: TimeGrid, phi: np.ndarray, mu: np.ndarray,
    grads: np.ndarray,
) -> dict:
    """Per-step diagnostics of a finite trajectory; raises NonFinite on overflow.

    Rows 1.. of ``grads`` hold the steps' ||grad phi||^2, ||grad mu||^2; row 0 is set here.
    """
    # a finite trajectory can still overflow its energy or ||grad mu||
    with np.errstate(over="ignore", invalid="ignore"):
        grads[0] = grad_sq(grid, (phi[0], mu[0]))
        diagnostics = {
            "t": timegrid.times(),
            "mean": phi.mean(axis=1),
            "energy": _energies(grid, spec, phi, grads[:, 0]),
            "min_phi": phi.min(axis=1),
            "max_phi": phi.max(axis=1),
            "grad_mu_norm": np.sqrt(grads[:, 1]),
        }
    finite = np.all([np.isfinite(v) for v in diagnostics.values()], axis=0)
    if not np.all(finite):
        n = int(np.argmin(finite))
        raise NonFinite(f"diagnostics not finite at step {n}", step=n)
    return diagnostics


def simulate(
    phi0: Field,
    u: ControlFunction,
    spec: PotentialSpec,
    timegrid: TimeGrid,
    check_compatibility: bool = True,
    with_diagnostics: bool = True,
) -> StateTrajectory:
    """Run the forward solver; deterministic for fixed inputs.

    Compatibility of (phi0, ||u||_inf) is validated first unless explicitly
    overridden (experiments on purpose-built infeasible data).  Raises
    NonFinite, with the step index, if phi, mu or a diagnostic stops being
    finite.
    """
    grid = phi0.grid
    if u.grid != grid or u.timegrid != timegrid:
        raise ShapeMismatch("control does not match the state grids")
    if check_compatibility:
        report = validate_compatibility(phi0, u.linf(), spec)
        if not report.passed:
            raise ValueError(
                f"initial data incompatible with the potential domain "
                f"(margin {report.margin:g} < {COMPATIBILITY_MARGIN:g}); "
                "pass check_compatibility=False to override"
            )
    nt = timegrid.nt
    stepper = _Stepper(grid, spec, timegrid.tau)
    phi = np.empty((nt + 1, grid.size))
    mu = np.empty((nt + 1, grid.size))
    phi[0] = phi0.values
    mu[0] = stepper.mu_of(phi[0])
    if not np.all(np.isfinite(mu[0])):
        raise NonFinite("initial chemical potential is not finite", step=0)
    grads = np.empty((nt + 1, 2)) if with_diagnostics else [None] * (nt + 1)
    for n in range(nt):
        phi[n + 1], mu[n + 1] = stepper.advance(phi[n], u.slices[n], grads[n + 1])
        if not (np.all(np.isfinite(phi[n + 1])) and np.all(np.isfinite(mu[n + 1]))):
            raise NonFinite(f"blow-up at step {n + 1}", step=n + 1)
    diagnostics = _diagnostics(grid, spec, timegrid, phi, mu, grads) if with_diagnostics else {}
    return StateTrajectory(grid, timegrid, spec, phi, mu, diagnostics)


# ---------------------------------------------------------------------------
# mean dynamics and energy diagnostics

def mean_closed_form(phi0bar: float, ubar_series: np.ndarray, tau: float, t: float) -> float:
    """Exact mean value phibar(t) = e^{-t} phibar0 + int_0^t e^{-(t-s)} ubar(s) ds.

    ``ubar_series`` gives ubar as a step function: value k applies on
    [k*tau, (k+1)*tau).  Evaluated with the exact exponential integrator on
    each subinterval.
    """
    ubar_series = np.asarray(ubar_series, dtype=float)
    if t < 0:
        raise ValueError("t must be nonnegative")
    value = float(phi0bar)
    remaining = t
    k = 0
    while remaining > 1e-15:
        dt = min(tau, remaining)
        ub = float(ubar_series[min(k, ubar_series.size - 1)])
        e = np.exp(-dt)
        value = e * value + (1.0 - e) * ub
        remaining -= dt
        k += 1
    return value


def energy(phi: Field, spec: PotentialSpec) -> float:
    """Free energy E(phi) = int 0.5 |grad phi|^2 + f(phi)."""
    return float(_energies(phi.grid, spec, phi.values[None], grad_sq(phi.grid, phi.values))[0])


def energy_balance_residual(
    traj: StateTrajectory, u: ControlFunction, spec: PotentialSpec
) -> np.ndarray:
    """Discrete residual of dE/dt = -||grad mu||^2 + int mu (u - phi).

    r^n = (E^{n+1} - E^n)/tau + ||grad mu^{n+1}||^2
          - <mu^{n+1}, u^n - phi^{n+1}>,  expected O(tau) + O(h^2).
    """
    grid = traj.grid
    en = _energies(grid, spec, traj.phi, grad_sq(grid, traj.phi))
    source = grid.cell * np.sum(traj.mu[1:] * (u.slices[:-1] - traj.phi[1:]), axis=1)
    return np.diff(en) / traj.timegrid.tau + grad_sq(grid, traj.mu[1:]) - source
