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

The step carries phi_hat^n from the previous step instead of transforming
phi^n again, so it makes three transforms: g^n forward, phi_hat^{n+1} and
(lam + S) phi_hat^{n+1} back.  The control adds its own: a constant control
(one broadcast row) is transformed once per solve, any other control's rows
in a few stacked calls, or one per step on a large grid: four fields a step
in all.  The tangent solve runs on the same step.

One generator runs the step sequence and yields each snapshot pair
(phi^n, mu^n) with its diagnostics row as soon as the step after it has
been found finite.  ``simulate`` copies the rows into a trajectory; the
command-line forward run writes them to disk as they come, so it holds a
few snapshots instead of the whole (nt+1) x nx*ny history of phi and mu.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import potentials
from .errors import ConfigurationError, NonFinite, ShapeMismatch
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

    ``slices`` has shape (nt+1, nx*ny); slice n is u(., t_n).  It may be a
    read-only broadcast view (``constant`` holds one row that way), so no
    reader may write into it: readers take it row by row or reduce it.  The
    time derivative is measured by forward differences:
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
        s = self.slices
        return float(max(np.max(s), -np.min(s))) if s.size else 0.0

    def dt_l2(self) -> float:
        return _dt_norm(self.grid, self.timegrid, np.diff(self.slices, axis=0))

    def means(self) -> np.ndarray:
        return self.slices.mean(axis=1)

    @staticmethod
    def constant(grid: Grid, timegrid: TimeGrid, value: float):
        """u = value everywhere, held as a read-only broadcast of one row."""
        row = np.full(grid.size, float(value))
        return ControlFunction(grid, timegrid, np.broadcast_to(row, (timegrid.nt + 1, grid.size)))


def _dt_norm(grid: Grid, timegrid: TimeGrid, d: np.ndarray) -> float:
    """||d_t u|| = sqrt(cell * sum |u^{n+1} - u^n|^2 / tau) from the differences d."""
    return float(np.sqrt(grid.cell * np.sum(d * d) / timegrid.tau))


def _finite(*arrays: np.ndarray) -> bool:
    """Whether every entry of the arrays is finite, read from their extrema.

    np.min and np.max propagate NaN and an infinity is always an extremum, so
    this is np.all(np.isfinite(a)) without a boolean mask of a's size.
    """
    return all(np.isfinite(np.min(a)) and np.isfinite(np.max(a)) for a in arrays)


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
    converges to the metric projection onto the admissible set in this
    pairing: its box clip and its derivative-ball step are both projections in it.
    """
    w = _trapezoid_weights(timegrid.nt)
    return float(timegrid.tau * np.dot(w, grid.cell * np.sum(a * b, axis=1)))


@dataclass(frozen=True)
class StateTrajectory:
    """One forward solve: its control u and potential, phi and mu snapshots, diagnostics.

    ``grid`` and ``timegrid`` are u's, so the snapshots cannot disagree with
    the control that produced them.
    """

    u: ControlFunction
    spec: PotentialSpec
    phi: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    diagnostics: dict = field(repr=False, default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @property
    def timegrid(self) -> TimeGrid:
        return self.u.timegrid

    def __post_init__(self):
        shape = (self.timegrid.nt + 1, self.grid.size)
        if self.phi.shape != shape or self.mu.shape != shape:
            raise ShapeMismatch(f"trajectory arrays must have shape {shape}")
        if not _finite(self.phi, self.mu):
            raise ValueError("trajectory contains non-finite values")

    def means(self) -> np.ndarray:
        return self.phi.mean(axis=1)


# ---------------------------------------------------------------------------
# compatibility of (phi0, u) with the potential domain

@dataclass(frozen=True)
class CompatibilityReport:
    passed: bool
    margin: float


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

    The interval defaults to [-1.2, 1.2]; for singular variants it is
    clipped to [-(1 - 1e-6), 1 - 1e-6], inside D(beta).
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
    """The semi-implicit update: eigenvalues, splitting constant S, denominator.

    It carries the state's cosine coefficients from step to step.
    """

    def __init__(self, grid: Grid, spec: PotentialSpec, tau: float):
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.grid = grid
        self.spec = spec
        self.tau = tau
        self.lam = grid.eigenvalues()
        S = spec.stabilization
        # the largest denominator, in Python floats, which overflow to inf without a warning
        lam_max = float(self.lam[-1, -1])
        if not math.isfinite(1.0 + tau + tau * lam_max**2 + tau * lam_max * S):
            raise ConfigurationError(
                f"tau = {tau:g} is too long a step for a {grid.nx}x{grid.ny} grid: "
                "tau * lambda^2 overflows; lower [time] final or raise [time] steps"
            )
        self.S = S
        self.tau_lam = tau * self.lam
        self.lam_S = self.lam + S
        self.denom = 1.0 + tau + tau * self.lam**2 + self.tau_lam * S

    def source_coeffs(self, s: np.ndarray):
        """Cosine coefficients of the source rows s[0], ..., s[nt-1], one per step.

        A broadcast row (time stride 0, as ``ControlFunction.constant`` holds
        it) is transformed once for all steps; any other series in stacks of
        at most one 128 x 128 field's values, one row per step on a grid of
        more than half as many, where a stack's temporaries outweigh dispatch.
        Nothing is transformed before the first item is drawn, so ``advance``
        draws each inside its errstate.
        """
        grid, rows = self.grid, s[:-1]
        if s.strides[0] == 0:
            yield from itertools.repeat(_dct(grid, s[0]), len(rows))
        else:
            # rows per stack: one 128 x 128 field's values bound its temporaries
            k = max(1, 128 * 128 // grid.size)
            for i in range(0, len(rows), k):
                yield from _dct(grid, rows[i : i + k])

    def linear(self, xhat: np.ndarray, shat: np.ndarray, g: np.ndarray, grads=None):
        """The implicit update with explicit term g and source coefficients shat.

        x_hat' = (x_hat + tau s_hat - tau lam g_hat) / denom and
        y' = idct((lam + S) x_hat') + g; takes x's coefficients x_hat and
        returns (x_hat', x', y') with nodal x', y'.  The forward step takes
        g = f'(phi) - S phi, the tangent g = W xi.  A length-2 ``grads``
        receives ||grad x'||^2, ||grad y'||^2 = cell * sum lam * coeff^2.
        """
        grid = self.grid
        ghat = _dct(grid, g)
        xhat = (xhat + self.tau * shat - self.tau_lam * ghat) / self.denom
        yhat = self.lam_S * xhat
        if grads is not None:
            grads[0] = grid.cell * np.sum(self.lam * xhat**2)
            grads[1] = grid.cell * np.sum(self.lam * (yhat + ghat) ** 2)
        return xhat, _idct(xhat), _idct(yhat) + g

    def advance(self, phihat: np.ndarray, phi: np.ndarray, sources, grads=None):
        """One step from phi with coefficients phihat; the control's are next(sources).

        ``sources`` is the iterator of :meth:`source_coeffs`.  Returns
        (phihat_next, phi_next, mu_next, F) with nodal phi_next, mu_next.
        The explicit term is g = f'(phi) - S phi.  With ``grads`` (as in
        linear) F is the potential energy cell * sum f(phi) of the input
        snapshot, from the kernel call that gives beta(phi); else None.
        Overflow, also in the control's transform, propagates as inf/nan
        without a warning: the callers check the result and report a blow-up
        as NonFinite.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            uhat = next(sources)
            if grads is None:
                beta, energy = potentials.beta_reg_vec(self.spec, phi), None
            else:
                f, beta = potentials.f_and_beta_reg_vec(self.spec, phi)
                energy = self.grid.cell * np.sum(f)
            g = beta + potentials.pi_d1(self.spec) * phi - self.S * phi
            return (*self.linear(phihat, uhat, g, grads), energy)

    def mu_of(self, phihat: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Chemical potential -Delta phi + f'(phi) of a snapshot phi with coefficients phihat."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _idct(self.lam * phihat) + potentials.f_d1_vec(self.spec, phi)


def _potential_energy(grid: Grid, spec: PotentialSpec, p: np.ndarray) -> float:
    """int f(p) = cell * sum f(p) for one snapshot p."""
    return grid.cell * np.sum(potentials.f_value_vec(spec, p))


def _energies(grid: Grid, spec: PotentialSpec, phi: np.ndarray, g2s: np.ndarray) -> np.ndarray:
    """E = 0.5 ||grad phi||^2 + int f(phi) for each snapshot row of phi; g2s = ||grad phi||^2."""
    return np.array([0.5 * g2 + _potential_energy(grid, spec, p) for g2, p in zip(g2s, phi)])


# The diagnostics' columns; the forward run gives one row of them per snapshot.
_DIAG_COLUMNS = ("t", "mean", "energy", "min_phi", "max_phi", "grad_mu_norm")


def _forward_rows(
    phi0: Field,
    u: ControlFunction,
    spec: PotentialSpec,
    timegrid: TimeGrid,
    check_compatibility: bool = True,
    with_diagnostics: bool = True,
):
    """Yield (phi^n, mu^n, diagnostics row n) for n = 0..nt: the one step loop.

    Row n comes once step n+1 has been taken and found finite; its
    diagnostics row is None without diagnostics.  Checks and errors are
    those of ``simulate``.  A non-finite diagnostic is raised after the last
    row, at the first row that has one, so a later blow-up of phi or mu
    takes precedence, and a consumer commits nothing before the generator
    is exhausted.
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
    stepper = _Stepper(grid, spec, timegrid.tau)
    ts = timegrid.times()
    bad = []  # rows whose diagnostics are not finite

    def diagnostics(n, phi, grads, potential=None):
        """Row n, in _DIAG_COLUMNS order, from ||grad phi||^2, ||grad mu||^2 and int f(phi).

        Without ``potential`` (the last row, which no step takes) f is
        evaluated here.  A finite snapshot can still overflow its energy or
        ||grad mu||: that gives inf or nan without a warning, noted in ``bad``.
        """
        if not with_diagnostics:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            if potential is None:
                potential = _potential_energy(grid, spec, phi)
            row = (ts[n], phi.mean(), 0.5 * grads[0] + potential, phi.min(), phi.max(),
                   np.sqrt(grads[1]))
        if not all(math.isfinite(v) for v in row):
            bad.append(n)
        return row

    phi = phi0.values
    phihat = _dct(grid, phi)
    mu = stepper.mu_of(phihat, phi)
    if not np.all(np.isfinite(mu)):
        raise NonFinite("initial chemical potential is not finite", step=0)
    grads = None
    if with_diagnostics:
        with np.errstate(over="ignore", invalid="ignore"):
            grads = grad_sq(grid, (phi, mu))
    sources = stepper.source_coeffs(u.slices)
    for n in range(timegrid.nt):
        grads_next = np.empty(2) if with_diagnostics else None
        phihat, phi_next, mu_next, potential = stepper.advance(phihat, phi, sources, grads_next)
        if not (np.isfinite(phi_next).all() and np.isfinite(mu_next).all()):
            raise NonFinite(f"blow-up at step {n + 1}", step=n + 1)
        yield phi, mu, diagnostics(n, phi, grads, potential)
        phi, mu, grads = phi_next, mu_next, grads_next
    yield phi, mu, diagnostics(timegrid.nt, phi, grads)
    if bad:
        raise NonFinite(f"diagnostics not finite at step {bad[0]}", step=bad[0])


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
    shape = (timegrid.nt + 1, phi0.grid.size)
    phi, mu, rows = np.empty(shape), np.empty(shape), []
    for n, (phi_n, mu_n, row) in enumerate(
        _forward_rows(phi0, u, spec, timegrid, check_compatibility, with_diagnostics)
    ):
        phi[n], mu[n] = phi_n, mu_n
        rows.append(row)
    diagnostics = dict(zip(_DIAG_COLUMNS, map(np.array, zip(*rows)))) if with_diagnostics else {}
    return StateTrajectory(u, spec, phi, mu, diagnostics)


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


def energy_balance_residual(traj: StateTrajectory) -> np.ndarray:
    """Discrete residual of dE/dt = -||grad mu||^2 + int mu (u - phi).

    r^n = (E^{n+1} - E^n)/tau + ||grad mu^{n+1}||^2
          - <mu^{n+1}, u^n - phi^{n+1}>,  expected O(tau) + O(h^2).
    """
    grid = traj.grid
    en = _energies(grid, traj.spec, traj.phi, grad_sq(grid, traj.phi))
    source = grid.cell * np.sum(traj.mu[1:] * (traj.u.slices[:-1] - traj.phi[1:]), axis=1)
    return np.diff(en) / traj.timegrid.tau + grad_sq(grid, traj.mu[1:]) - source
