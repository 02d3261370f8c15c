"""Named invariant checks and the verification-suite driver.

Every invariant declared by the numerical modules is a row addressable
here by name (``module.check-name``).  A scenario builds its case from the
seed and returns one (measured, details) pair per row it registers; the
registration holds each row's sense (``<=`` or ``>=``) and bound, and
run_checks alone decides ``passed``.  A scenario shared by several rows runs
once per run_checks call.  One that raises fails each of its rows with
measured nan and ``"<ExceptionType>: <message>"`` as details, and the other
scenarios still run.  The suite runs in about a second and is
bit-reproducible for a fixed seed.  Where an acceptance criterion states
the same invariant, the row is the criterion: it runs the criterion's
scenario at the criterion's bound or a stricter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import control, potentials
from .config import band_limited_field
from .control import (
    ControlProblem,
    OptimizerConfig,
    optimize,
    project_Uad,
)
from .cost import CostSpec, cost_J
from .errors import ValidationError
from .galerkin import build_system, compare_to_pde, integrate
from .potentials import PotentialSpec
from .sensitivity import (
    adjoint_identity_residual,
    reduced_gradient,
    solve_adjoint,
    solve_linearized,
)
from .spectral import Field, Grid, _dct, _idct, grad_sq, to_spectral
from .state import (
    ControlFunction,
    TimeGrid,
    _Stepper,
    control_inner,
    default_stabilization,
    energy_balance_residual,
    mean_closed_form,
    simulate,
)

__all__ = ["CheckResult", "REGISTRY", "registered_checks", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    module: str
    passed: bool
    measured: float
    sense: str
    bound: float
    details: str


REGISTRY: dict = {}


def _check(*rows):
    """Register a scenario's rows, each (``module.check-name``, sense, bound); the module is
    the part before the dot.  The scenario returns a (measured, details) pair per row, bare for one."""
    def wrap(fn):
        for i, (name, sense, bound) in enumerate(rows):
            REGISTRY[name] = (name.split(".", 1)[0], fn, i if len(rows) > 1 else None, sense, bound)
        return fn

    return wrap


def registered_checks() -> tuple:
    return tuple(REGISTRY)


# ---------------------------------------------------------------------------
# shared scenario helpers

def _rng(seed, index):
    return np.random.default_rng([seed, index])


def _grid8():
    return Grid(8, 8, 1.0, 1.0)


def _random_field(grid, rng, amp=1.0):
    return Field(grid, amp * rng.standard_normal(grid.size))


def _stabilized(spec, interval=None):
    """spec with the splitting constant S = default_stabilization(spec, interval)."""
    return replace(spec, stabilization=default_stabilization(spec, interval))


def _regular_spec():
    return _stabilized(PotentialSpec("regular"))


def _c0_h(series, grid) -> float:
    return float(max(np.sqrt(grid.cell) * np.linalg.norm(s) for s in series))


# ---------------------------------------------------------------------------
# spectral

def _grids():
    # the 128-point axis is transformed through the even/odd fold, the others densely
    return (_grid8(), Grid(16, 1, 2.0), Grid(6, 10, 1.5, 0.7), Grid(128, 3, 1.3, 0.4))


@_check(("spectral.parseval", "<=", 1e-12))
def _parseval(seed):
    worst = 0.0
    for i, grid in enumerate(_grids()):
        f = _random_field(grid, _rng(seed, 10 + i))
        s = to_spectral(f)
        nh2 = grid.cell * f.values @ f.values
        rel = abs(float(np.sum(s.coeffs**2)) - nh2) / max(nh2, 1e-300)
        worst = max(worst, rel)
    return worst, "max relative Parseval defect over four grids"


@_check(("spectral.inverse-laplacian-symmetry", "<=", 1e-14))
def _n_symmetry(seed):
    worst = 0.0
    for i, grid in enumerate(_grids()):
        stepper = _Stepper(grid, _regular_spec(), 0.0125)
        f, g = _rng(seed, 20 + i).standard_normal((2, 3, grid.size))
        # the step's solve x -> idct(dct(x) / denom) and the multiplier lam
        for op, m in ((np.divide, stepper.denom), (np.multiply, stepper.lam)):
            ag = _idct(op(_dct(grid, g), m))
            asym = np.sum(f * ag, axis=1) - np.sum(g * _idct(op(_dct(grid, f), m)), axis=1)
            # scaled by ||f|| ||A g||, not by the pairing, which a random pair can cancel
            scale = np.linalg.norm(f, axis=1) * np.linalg.norm(ag, axis=1)
            worst = max(worst, float(np.max(np.abs(asym) / scale)))
    return worst, "max of |<f, A g> - <g, A f>| / (||f|| ||A g||) for the step's multipliers"


@_check(("spectral.poincare-bound", "<=", 1e-12))
def _poincare_bound(seed):
    worst = 0.0
    for i, grid in enumerate(_grids()):
        system = build_system(grid, 2)
        rows = np.vstack([_rng(seed, 30 + i).standard_normal((5, grid.size)),
                          system.reconstruct(np.array([[0.0, 1.0]]))])
        rows -= rows.mean(axis=1, keepdims=True)
        lam_min = system.lam[1]
        excess = lam_min * grid.cell * np.sum(rows * rows, axis=1) / grad_sq(grid, rows) - 1.0
        worst = max(worst, float(np.max(excess[:-1])), abs(float(excess[-1])))
    return worst, (
        "max of lam_min ||f - fbar||^2 / ||grad f||^2 - 1 over random fields, "
        "and its size at the lowest nonzero mode"
    )


@_check(("spectral.laplacian-closed-form", "<=", 1e-12))
def _laplacian_closed_form(seed):
    worst = 0.0
    for i, grid in enumerate(_grids()):
        rng = _rng(seed, 40 + i)
        x = (np.arange(grid.nx) + 0.5) * grid.lx / grid.nx
        y = (np.arange(grid.ny) + 0.5) * grid.ly / grid.ny
        f = np.full((grid.nx, grid.ny), rng.standard_normal())
        lap = np.zeros_like(f)
        for _ in range(4):
            wx = rng.integers(1, grid.nx) * np.pi / grid.lx
            wy = rng.integers(0, grid.ny) * np.pi / grid.ly
            term = rng.standard_normal() * np.outer(np.cos(wx * x), np.cos(wy * y))
            f += term
            lap -= (wx * wx + wy * wy) * term
        defect = _idct(-grid.eigenvalues() * _dct(grid, f.reshape(-1))) - lap.reshape(-1)
        worst = max(worst, float(np.max(np.abs(defect)) / np.max(np.abs(lap))))
    return worst, "relative defect of the spectral Laplacian of cosine sums"


# ---------------------------------------------------------------------------
# potentials

def _reg_specs():
    return (
        PotentialSpec("regular", eps=0.1, reg_kind="yosida"),
        PotentialSpec("logarithmic", c1=2.0, eps=0.1, reg_kind="yosida"),
        PotentialSpec("logarithmic", c1=2.0, eps=0.05, reg_kind="piecewise_log"),
        PotentialSpec("double_obstacle", c2=1.0, eps=0.25, reg_kind="yosida"),
    )


@_check(("potentials.beta-monotone", "<=", 1e-12))
def _beta_monotone(seed):
    worst = 0.0
    for i, spec in enumerate(_reg_specs()):
        rs = np.sort(_rng(seed, 50 + i).uniform(-2.0, 2.0, 10_000))
        vals = potentials.beta_reg_vec(spec, rs)
        worst = max(worst, float(np.max(-np.diff(vals))),
                    abs(float(potentials.beta_reg_vec(spec, 0.0))))
    return worst, "max decrease of beta_reg over sorted samples, and |beta_reg(0)|"


@_check(("potentials.yosida-lipschitz", "<=", 1e-12))
def _yosida_lipschitz(seed):
    worst = 0.0
    for i, spec in enumerate(s for s in _reg_specs() if s.reg_kind == "yosida"):
        rs = np.sort(_rng(seed, 60 + i).uniform(-2.0, 2.0, 10_000))
        vals = potentials.beta_reg_vec(spec, rs)
        lip = np.abs(np.diff(vals)) * spec.eps - np.diff(rs)
        worst = max(worst, float(np.max(lip)))
    return worst, "max violation of eps-scaled Lipschitz bound between neighbours"


@_check(("potentials.yosida-sandwich", "<=", 1e-12))
def _yosida_sandwich(seed):
    worst = 0.0
    for i, spec in enumerate(s for s in _reg_specs() if s.reg_kind == "yosida"):
        rs = _rng(seed, 70 + i).uniform(-0.99, 0.99, 10_000)
        bh, b_eps = potentials._reg(spec, rs, (0, 1))
        bh_exact, b_exact = potentials._exact(spec, rs, (0, 1))
        worst = max(
            worst,
            float(np.max(np.abs(b_eps) - np.abs(b_exact))),
            float(np.max(-bh)),
            float(np.max(bh - bh_exact)),
        )
    return worst, "max violation of |beta_eps|<=|beta|, 0<=bh_eps<=bh"


@_check(("potentials.pi-derivative-constant", "<=", 1e-12))
def _pi_constant(seed):
    # f - betahat is the energy's quadratic pihat: its second difference is pi' exactly
    worst = 0.0
    for i, spec in enumerate(_reg_specs()):
        rs = _rng(seed, 80 + i).uniform(-2.0, 2.0, 10_000)
        r3 = np.stack([rs - 0.5, rs, rs + 0.5])
        q = potentials.f_value_vec(spec, r3) - potentials._reg(spec, r3, (0,))[0]
        d2 = (q[0] - 2.0 * q[1] + q[2]) / 0.25
        worst = max(worst, float(np.max(np.abs(d2 - potentials.pi_d1(spec)))))
    return worst, "max deviation of the second difference of f - betahat from pi'"


def _exp_derivative_excess(spec, samples) -> float:
    """Largest beta_eps'(r) - 2 exp(|beta_eps(r)|) over the samples; the bound holds where <= 0."""
    d1, beta = potentials._reg(spec, samples, (2, 1))
    # exponent capped to stay finite; the bound holds trivially beyond
    return float(np.max(d1 - 2.0 * np.exp(np.minimum(np.abs(beta), 700.0))))


@_check(("potentials.log-derivative-exp-bound", "<=", 1e-12))
def _log_exp_bound(seed):
    worst = -math.inf
    for i, eps in enumerate((0.5, 0.1, 1e-3)):
        spec = PotentialSpec("logarithmic", c1=2.0, eps=eps, reg_kind="piecewise_log")
        samples = _rng(seed, 90 + i).uniform(-2.0, 2.0, 10_000)
        worst = max(worst, _exp_derivative_excess(spec, samples))
    return worst, "max of beta_eps' - 2 exp(|beta_eps|) over sweeps"


def _young_exp_constants(p: float) -> tuple[float, float]:
    """Constants (kappa, kappa') with r*s*e^{ps} <= s^2 e^{ps}/2 + e^{kappa r} + kappa' for p >= 1.

    Built from the delta > 0 solving delta*(1 + p + delta) = 1/2, with
    kappa = 1/delta and kappa' = (p + delta)^2 / (4 delta).
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    delta = 0.5 * (-(1.0 + p) + math.sqrt((1.0 + p) ** 2 + 2.0))
    return 1.0 / delta, (p + delta) ** 2 / (4.0 * delta)


@_check(("potentials.young-exp-inequality", "<=", 1e-12))
def _young(seed):
    worst = -math.inf
    for i, p in enumerate((1.0, 3.0, 2.0)):  # p = 2 last, so p = 1 and 3 keep their draws
        kappa, kappa_prime = _young_exp_constants(p)
        rng = _rng(seed, 100 + i)
        r = rng.uniform(0.0, 6.0, 10_000)
        s = rng.uniform(0.0, 6.0, 10_000)
        lhs = r * s * np.exp(p * s)
        rhs = 0.5 * s * s * np.exp(p * s) + np.exp(kappa * r) + kappa_prime
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst, "max violation of the exponential Young inequality"


# ---------------------------------------------------------------------------
# state

def _small_forward(seed, index):
    grid = _grid8()
    tg = TimeGrid(0.5, 40)
    spec = _regular_spec()
    rng = _rng(seed, index)
    phi0 = band_limited_field(grid, 0.5, 6, rng)
    base = band_limited_field(grid, 0.5, 6, rng).values
    slices = np.repeat(base[None, :], tg.nt + 1, axis=0)
    u = ControlFunction(grid, tg, slices)
    return grid, tg, spec, phi0, u


@_check(("state.mean-implicit-euler", "<=", 1e-12))
def _mean_euler(seed):
    grid, tg, spec, phi0, _ = _small_forward(seed, 110)
    # a control varying in space and time: the law reads only its slice means
    u = ControlFunction(grid, tg, _rng(seed, 111).uniform(-0.5, 0.5, (tg.nt + 1, grid.size)))
    traj = simulate(phi0, u, spec, tg, with_diagnostics=False)
    means = traj.means()
    ubar = u.means()
    worst = 0.0
    m = means[0]
    for n in range(tg.nt):
        m = (m + tg.tau * ubar[n]) / (1.0 + tg.tau)
        worst = max(worst, abs(means[n + 1] - m))
    return worst, "max gap to implicit-Euler iterates of the mean law under a space-time control"


@_check(("state.mean-closed-form-consistency", ">=", 1.5), ("state.mean-drift-bound", "<=", 1e-12))
def _mean_closed(seed):
    grid, tg, spec, phi0, u = _small_forward(seed, 120)

    def err(tgrid):
        uu = ControlFunction(grid, tgrid, np.repeat(u.slices[:1], tgrid.nt + 1, axis=0))
        means = simulate(phi0, uu, spec, tgrid, with_diagnostics=False).means()
        ubar = uu.means()
        return max(
            abs(means[n] - mean_closed_form(means[0], ubar, tgrid.tau, n * tgrid.tau))
            for n in range(tgrid.nt + 1)
        ), means

    # u holds one row in every slice, so err(tg) solves (phi0, u) itself
    e1, means = err(tg)
    e2, _ = err(TimeGrid(tg.T, 2 * tg.nt))
    drift = float(np.max(np.abs(means - np.mean(phi0.values))))
    return ((e1 / max(e2, 1e-300), "tau-halving error ratio (first order => ~2)"),
            (drift - u.linf(), "max |mean(phi^n) - mean(phi0)| - ||u||_inf"))


def _separation_run(seed):
    grid = Grid(32, 32, 1.0, 1.0)
    tg = TimeGrid(0.5, 500)
    spec = _stabilized(PotentialSpec("logarithmic", c1=2.0, eps=1e-4, reg_kind="piecewise_log"),
                       (-0.95, 0.95))
    rng = _rng(seed, 130)
    phi0 = band_limited_field(grid, 0.6, 6, rng)
    u = ControlFunction.constant(grid, tg, 0.1)
    return simulate(phi0, u, spec, tg, with_diagnostics=False)


def _xi_defect(traj) -> float:
    """max over snapshots of ||xi||_inf - ||phi + mu - pi(phi)||_inf, xi = beta_reg(phi).

    mu = -Delta phi + f'(phi) is evaluated at the snapshot's own time level:
    the stored mu^n pairs phi^n with the explicit nonlinearity of phi^{n-1}.
    """
    spec, grid = traj.spec, traj.grid
    stepper = _Stepper(grid, spec, traj.timegrid.tau)
    worst = -math.inf
    for phi in traj.phi:
        mu = stepper.mu_of(_dct(grid, phi), phi)
        xi = potentials.beta_reg_vec(spec, phi)
        bound = np.abs(phi + mu - potentials.pi_d1(spec) * phi)
        worst = max(worst, float(np.max(np.abs(xi)) - np.max(bound)))
    return worst


@_check(("state.separation-log-2d", "<=", 1.0 - 1e-3), ("state.xi-bound", "<=", 1e-8))
def _separation(seed):
    traj = _separation_run(seed)
    return ((float(np.max(np.abs(traj.phi))), "max |phi| over a logarithmic 2-d run"),
            (_xi_defect(traj), "max of ||xi||_inf - ||phi + mu - pi(phi)||_inf, mu at phi's level"))


def _step_halving(ratio_at, nt):
    """Relative change of ratio_at(nt) -> ratio_at(2 nt) and its detail line; small when both resolve the limit."""
    coarse, fine = ratio_at(nt), ratio_at(2 * nt)
    change = abs(fine - coarse) / coarse
    return change, f"ratio {coarse:.4f} -> {fine:.4f} from nt = {nt} to {2 * nt}"


@_check(("state.continuous-dependence", "<=", math.nextafter(0.2, 0.0)))
def _continuous_dependence(seed):
    grid, spec, rng = _grid8(), _regular_spec(), _rng(seed, 140)
    phi0 = band_limited_field(grid, 0.5, 6, rng)
    pairs = 0.4 * np.tanh(rng.standard_normal((10, 2, grid.size)))

    def max_ratio(nt):
        """max over the control pairs of (||dphi||_C0H + ||dmu||_L2H) / ||du||_L2H"""
        tg = TimeGrid(0.5, nt)
        worst = 0.0
        for rows in pairs:
            u1, u2 = (ControlFunction(grid, tg, np.repeat(r[None, :], nt + 1, axis=0)) for r in rows)
            t1 = simulate(phi0, u1, spec, tg, with_diagnostics=False)
            t2 = simulate(phi0, u2, spec, tg, with_diagnostics=False)
            dmu, du = t1.mu - t2.mu, u1.slices - u2.slices
            num = _c0_h(t1.phi - t2.phi, grid) + math.sqrt(control_inner(tg, grid, dmu, dmu))
            worst = max(worst, num / math.sqrt(control_inner(tg, grid, du, du)))
        return worst

    change, details = _step_halving(max_ratio, 40)
    return change, f"relative change of the max perturbation ratio over 10 control pairs, {details}"


@_check(("state.energy-balance", "<=", 1e-12), ("state.energy-dissipation-nonnegative", ">=", -1e-12))
def _energy_balance(seed):
    # r = energy_balance_residual pairs the step with mu^{n+1}, so tau r^n + D^n = 0
    # to roundoff, with d = phi^{n+1} - phi^n, F = int f and the numerical dissipation
    # D^n = 0.5 ||grad d||^2 + S ||d||^2 - (F^{n+1} - F^n - <f'(phi^n), d>), which is
    # >= 0 once S >= sup |f''| / 2.  Both are measured relative to max(|F|, ||grad phi||^2).
    # Piecewise-log's knee 1 - eps = 0.1 lies inside the range of phi at every step.  The
    # last run sits near +1, where f is stiff, so D < 0 there once S falls short of f''; its
    # phibar0 + ||u||_inf leaves (-1, 1), which the regularizations, defined on the whole line, allow
    grid, tg = _grid8(), TimeGrid(0.5, 20)
    specs = (PotentialSpec("regular"), *_reg_specs(),
             PotentialSpec("logarithmic", c1=2.0, eps=0.9, reg_kind="piecewise_log"))
    # (spec, stream, centre of phi0 and of u, amplitude of phi0 and of u)
    runs = [(spec, 260 + i, 0.0, 0.0, 0.5) for i, spec in enumerate(specs)]
    runs.append((PotentialSpec("logarithmic", c1=2.0, eps=1e-2, reg_kind="piecewise_log"), 300, 0.85, 0.9, 0.05))
    worst, least = 0.0, math.inf
    for spec, stream, phi_c, u_c, amp in runs:
        spec = _stabilized(spec, (-0.95, 0.95) if spec.singular else None)
        rng = _rng(seed, stream)
        phi0 = Field(grid, phi_c + band_limited_field(grid, amp, 6, rng).values)
        u = ControlFunction(grid, tg, u_c + rng.uniform(-amp, amp, (tg.nt + 1, grid.size)))
        traj = simulate(phi0, u, spec, tg, check_compatibility=False, with_diagnostics=False)
        phi, d = traj.phi, np.diff(traj.phi, axis=0)
        F = grid.cell * np.sum(potentials.f_value_vec(spec, phi), axis=1)
        slope = grid.cell * np.sum(potentials.f_d1_vec(spec, phi[:-1]) * d, axis=1)
        D = (0.5 * grad_sq(grid, d) + spec.stabilization * grid.cell * np.sum(d * d, axis=1)
             - (np.diff(F) - slope))
        scale = max(float(np.max(np.abs(F))), float(np.max(grad_sq(grid, phi))))
        worst = max(worst, float(np.max(np.abs(tg.tau * energy_balance_residual(traj) + D))) / scale)
        least = min(least, float(np.min(D)) / scale)
    return ((worst, "max |tau r + D| of the discrete energy identity over seven runs"),
            (least, "least numerical dissipation D over seven runs"))


# ---------------------------------------------------------------------------
# galerkin oracle

@_check(("galerkin.constant-mode-law", "<=", 1e-6), ("galerkin.constant-mode-bounds", "<=", 1e-8))
def _galerkin_mean(seed):
    grid = _grid8()
    tg = TimeGrid(0.5, 20)
    spec = _regular_spec()
    rng = _rng(seed, 150)
    ubars = rng.uniform(-0.5, 0.5, tg.nt + 1)
    slices = np.repeat(ubars[:, None], grid.size, axis=1)
    u = ControlFunction(grid, tg, slices)
    system = build_system(grid, 1)
    phi0 = Field(grid, np.full(grid.size, 0.3))
    y0 = system.project(phi0.values)
    traj = integrate(system, y0, u, spec, substeps=40)
    sqrt_vol = math.sqrt(grid.volume)
    worst = 0.0
    for n in range(tg.nt + 1):
        exact = mean_closed_form(0.3, ubars, tg.tau, n * tg.tau)
        worst = max(worst, abs(traj.y[n, 0] / sqrt_vol - exact))
    excursion = float(np.max(np.abs(traj.y[:, 0] / sqrt_vol - 0.3))) - float(np.max(np.abs(ubars)))
    return ((worst, "n=1 oracle vs exact mean law"),
            (excursion, "max |mean - 0.3| - max |ubar| of the n=1 oracle"))


@_check(("galerkin.refinement-convergence", "<=", 1.05),
        ("galerkin.mode-refinement-convergence", "<=", 1.05))
def _galerkin_refinement(seed):
    grid = Grid(16, 16, 1.0, 1.0)
    spec = _regular_spec()
    rng = _rng(seed, 160)
    phi0 = band_limited_field(grid, 0.4, 4, rng)

    def error(nt, n_modes):
        tg = TimeGrid(0.25, nt)
        u = ControlFunction.constant(grid, tg, 0.0)
        pde = simulate(phi0, u, spec, tg, with_diagnostics=False)
        system = build_system(grid, n_modes)
        y0 = system.project(phi0.values)
        oracle = integrate(system, y0, u, spec, substeps=5)
        return compare_to_pde(oracle, pde).max_phi_error

    e_coarse = error(50, 8)
    e_fine_t = error(100, 8)
    e_few_modes = error(50, 4)
    return ((e_fine_t / e_coarse, f"oracle/PDE error ratio under tau halving; {e_coarse:.3e} at nt = 50"),
            (e_coarse / e_few_modes, f"oracle/PDE error ratio from 4 to 8 modes; {e_few_modes:.3e} at 4"))


# ---------------------------------------------------------------------------
# sensitivity

def _tracking_setup(seed, index):
    """A 16^2 x 50 regular run under a white-noise control, tracked by all four cost terms."""
    grid = Grid(16, 16, 1.0, 1.0)
    tg = TimeGrid(0.25, 50)
    spec = _regular_spec()
    rng = _rng(seed, index)
    phi0 = Field(grid, 0.3 * np.tanh(rng.standard_normal(grid.size)))
    u = _white_noise(grid, tg, rng, 0.2)
    traj = simulate(phi0, u, spec, tg, with_diagnostics=False)
    cost = CostSpec(
        grid,
        tg,
        (1.0, 1.0, 1.0, 1.0),
        phi_q=0.1 * rng.standard_normal(traj.phi.shape),
        phi_omega=0.1 * rng.standard_normal(grid.size),
        mu_q=0.1 * rng.standard_normal(traj.mu.shape),
    )
    return grid, tg, spec, phi0, u, traj, cost, rng


def _white_noise(grid, tg, rng, amp=1.0):
    return ControlFunction(grid, tg, amp * rng.standard_normal((tg.nt + 1, grid.size)))


@_check(("sensitivity.adjoint-transpose-identity", "<=", 1e-14))
def _adjoint_identity(seed):
    worst = 0.0
    for draw in range(10):
        grid, tg, spec, phi0, u, traj, cost, rng = _tracking_setup(seed, 170 + draw)
        h = _white_noise(grid, tg, rng)
        tangent = solve_linearized(traj, h)
        worst = max(worst, adjoint_identity_residual(traj, tangent, solve_adjoint(traj, cost), h, cost))
    return worst, "max over 10 draws of the transpose-identity residual / cell (||s_phi|| ||xi|| + ||s_mu|| ||eta||)"


@_check(("sensitivity.tangent-linearity", "<=", 1e-12))
def _tangent_linearity(seed):
    grid, tg, spec, phi0, u, traj, cost, rng = _tracking_setup(seed, 180)
    h1 = _white_noise(grid, tg, rng)
    h2 = _white_noise(grid, tg, rng)
    t1 = solve_linearized(traj, h1)
    t2 = solve_linearized(traj, h2)
    t12 = solve_linearized(traj, ControlFunction(grid, tg, h1.slices + 2.0 * h2.slices))
    rel = max(
        float(np.max(np.abs(x12 - x1 - 2.0 * x2)) / max(np.max(np.abs(x12)), 1e-300))
        for x1, x2, x12 in ((t1.xi, t2.xi, t12.xi), (t1.eta, t2.eta, t12.eta))
    )
    return rel, "superposition defect of the tangent solve, max over xi and eta"


@_check(("sensitivity.frechet-order", "<=", 0.2))
def _frechet_order(seed):
    grid, tg, spec, phi0, u, traj, cost, rng = _tracking_setup(seed, 190)
    h = _white_noise(grid, tg, rng)
    tangent = solve_linearized(traj, h)
    rems = []
    for lam in (1e-1, 5e-2, 2.5e-2):
        up = ControlFunction(grid, tg, u.slices + lam * h.slices)
        tp = simulate(phi0, up, spec, tg, with_diagnostics=False)
        rems.append(_c0_h(tp.phi - traj.phi - lam * tangent.xi, grid))
    orders = [math.log2(rems[i] / rems[i + 1]) for i in range(2)]
    worst = max(abs(o - 2.0) for o in orders)
    return worst, f"Taylor remainder orders {[round(o, 3) for o in orders]}"


@_check(("sensitivity.tangent-continuity", "<=", math.nextafter(0.2, 0.0)))
def _tangent_continuity(seed):
    grid, spec, rng = _grid8(), _regular_spec(), _rng(seed, 200)
    phi0 = band_limited_field(grid, 0.5, 6, rng)
    u_row = band_limited_field(grid, 0.3, 6, rng).values
    # directions h(t) = base + (t / T) drift, sampled on either time grid
    directions = [[band_limited_field(grid, 0.5, 6, rng).values for _ in range(2)]
                  for _ in range(5)]

    def max_ratio(nt):
        """max over the directions of (||xi||_C0H + ||eta||_L2H) / ||h||_L2H"""
        tg = TimeGrid(0.4, nt)
        u = ControlFunction(grid, tg, np.repeat(u_row[None, :], nt + 1, axis=0))
        traj = simulate(phi0, u, spec, tg, with_diagnostics=False)
        worst = 0.0
        for base, drift in directions:
            h = ControlFunction(grid, tg, base + (tg.times() / tg.T)[:, None] * drift)
            tangent = solve_linearized(traj, h)
            num = _c0_h(tangent.xi, grid) + math.sqrt(control_inner(tg, grid, tangent.eta, tangent.eta))
            worst = max(worst, num / math.sqrt(control_inner(tg, grid, h.slices, h.slices)))
        return worst

    change, details = _step_halving(max_ratio, 30)
    return change, f"relative change of the max tangent-to-direction ratio, {details}"


@_check(("sensitivity.gradient-fd-match", "<=", 1e-8))
def _gradient_fd(seed):
    grid, tg, spec, phi0, u, traj, cost, rng = _tracking_setup(seed, 210)
    g = reduced_gradient(traj, solve_adjoint(traj, cost), cost)
    gnorm = math.sqrt(control_inner(tg, grid, g, g))
    worst = 0.0
    for _ in range(5):
        h = _white_noise(grid, tg, rng)
        predicted = control_inner(tg, grid, g, h.slices)
        best = math.inf
        for delta in (1e-3, 1e-4, 1e-5):
            up = ControlFunction(grid, tg, u.slices + delta * h.slices)
            um = ControlFunction(grid, tg, u.slices - delta * h.slices)
            jp = cost_J(simulate(phi0, up, spec, tg, with_diagnostics=False), cost)
            jm = cost_J(simulate(phi0, um, spec, tg, with_diagnostics=False), cost)
            best = min(best, abs((jp - jm) / (2.0 * delta) - predicted))
        # scaled by ||g|| ||h||, not by |fd|, which a direction nearly
        # orthogonal to g makes small
        worst = max(worst, best / (gnorm * math.sqrt(control_inner(tg, grid, h.slices, h.slices))))
    return worst, "max over 5 directions of the best-step |<g, h> - fd| / (||g|| ||h||)"


# ---------------------------------------------------------------------------
# control

def _opt_setup(seed, index):
    grid = _grid8()
    tg = TimeGrid(0.3, 20)
    spec = _regular_spec()
    rng = _rng(seed, index)
    phi0 = band_limited_field(grid, 0.4, 6, rng)
    problem = ControlProblem(phi0, spec, tg, M=1.0, Mprime=10.0)
    cost = CostSpec(grid, tg, (0.5, 0.0, 0.0, 1.0))
    u0 = ControlFunction(
        grid,
        tg,
        np.clip(np.repeat(band_limited_field(grid, 0.8, 6, rng).values[None, :], tg.nt + 1, axis=0),
                -1.0, 1.0),
    )
    return grid, tg, spec, phi0, problem, cost, u0, rng


@_check(("control.cost-nonnegative", ">=", 0.0), ("control.cost-perfect-tracking", "<=", 1e-20))
def _cost_nonneg(seed):
    grid, tg, spec, phi0, problem, cost, u0, rng = _opt_setup(seed, 220)
    traj = simulate(phi0, u0, spec, tg, with_diagnostics=False)
    vals = []
    for _ in range(5):
        c = CostSpec(
            grid, tg, tuple(rng.uniform(0.1, 1.0, 4)),
            phi_q=rng.standard_normal((tg.nt + 1, grid.size)),
            phi_omega=rng.standard_normal(grid.size),
            mu_q=rng.standard_normal((tg.nt + 1, grid.size)),
        )
        vals.append(cost_J(traj, c))
    perfect = CostSpec(grid, tg, (1.0, 1.0, 1.0, 0.0),
                       phi_q=traj.phi.copy(), phi_omega=traj.phi[-1].copy(),
                       mu_q=traj.mu.copy())
    return ((min(vals), "min J over 5 random costs"),
            (abs(cost_J(traj, perfect)), "|J| of a cost that tracks the run's own state"))


def _ball_kkt(grid, tg, x, Mprime) -> float:
    """KKT residual of the ball step u = P(x) at an x outside the ball: P is the metric projection
    iff r = W (x - u) = m L u, L = D^T D, for an m >= 0 and ||d_t u|| = M'.  m is fitted to r."""
    u = control._project_ball(grid, tg, x, Mprime)
    d = np.diff(u, axis=0)
    Lu = -np.diff(d, axis=0, prepend=0.0, append=0.0)
    r = np.r_[0.5, np.ones(tg.nt - 1), 0.5][:, None] * (x - u)
    m = np.sum(r * Lu) / np.sum(Lu * Lu)
    gap = math.sqrt(grid.cell * np.sum(d * d) / tg.tau) / Mprime - 1.0
    return max(-m, float(np.linalg.norm(r - m * Lu) / np.linalg.norm(r)), abs(gap))


@_check(("control.projection-idempotent", "<=", 1e-10), ("control.projection-kkt", "<=", 1e-12))
def _proj_idempotent(seed):
    grid, tg = _grid8(), TimeGrid(0.3, 20)
    rng = _rng(seed, 230)
    worst = kkt = 0.0
    for _ in range(3):
        raw = rng.standard_normal((tg.nt + 1, grid.size)) * 2.0
        for M, Mprime in ((1.0, 0.5), (0.5, 2.0)):
            p1 = project_Uad(grid, tg, raw, M, Mprime)
            p2 = project_Uad(grid, tg, p1.slices, M, Mprime)
            worst = max(worst, float(np.max(np.abs(p2.slices - p1.slices))))
            kkt = max(kkt, _ball_kkt(grid, tg, raw, Mprime))
    return ((worst, "max |P(P(x)) - P(x)| at (M, M') = (1, 0.5) and (0.5, 2)"),
            (kkt, "max KKT residual of the derivative-ball step on the same x at M' = 0.5 and 2"))


@_check(("control.projection-nonexpansive", "<=", 1.0 + 1e-8))
def _proj_nonexpansive(seed):
    grid, tg = _grid8(), TimeGrid(0.3, 20)
    rng = _rng(seed, 240)
    shape = (tg.nt + 1, grid.size)
    # close pairs at (M, M') = (1, 0.5), then independent pairs at (0.5, 2)
    pairs = []
    for _ in range(5):
        a = rng.standard_normal(shape) * 2.0
        pairs.append((a, a + rng.standard_normal(shape) * 0.5, 1.0, 0.5))
    pairs += [(*rng.standard_normal((2, *shape)) * 2.0, 0.5, 2.0) for _ in range(3)]
    worst = 0.0
    for a, b, M, Mprime in pairs:
        d = project_Uad(grid, tg, a, M, Mprime).slices - project_Uad(grid, tg, b, M, Mprime).slices
        ratio = control_inner(tg, grid, d, d) / control_inner(tg, grid, a - b, a - b)
        worst = max(worst, math.sqrt(ratio))
    return worst, "max contraction ratio of the projection in the control_inner norm"


def _inverse_crime_run(seed):
    """Descent from u = 0 on a 16^2 x 50 problem whose target is the state of a random admissible control."""
    grid = Grid(16, 16, 1.0, 1.0)
    tg = TimeGrid(0.25, 50)
    spec = _regular_spec()
    rng = _rng(seed, 250)
    phi0 = Field(grid, 0.3 * np.tanh(rng.standard_normal(grid.size)))
    problem = ControlProblem(phi0, spec, tg, M=0.5, Mprime=10.0)
    u_true = project_Uad(grid, tg, 0.3 * rng.standard_normal((tg.nt + 1, grid.size)),
                         problem.M, problem.Mprime)
    target = simulate(phi0, u_true, spec, tg, with_diagnostics=False)
    cost = CostSpec(grid, tg, (1.0, 1.0, 0.0, 1e-2),
                    phi_q=target.phi.copy(), phi_omega=target.phi[-1].copy())
    u0 = ControlFunction.constant(grid, tg, 0.0)
    result = optimize(u0, problem, cost, OptimizerConfig(max_iters=200, tol=1e-7))
    return problem, cost, u0, result


@_check(("control.monotone-descent", "<=", 0.0), ("control.feasible-descent", "<=", 1e-9),
        ("control.cost-decrease", "<=", 1e-12), ("control.optimizer-converged", ">=", 1.0),
        ("control.final-stationarity", "<=", 1e-5))
def _descent(seed):
    problem, cost, u0, result = _inverse_crime_run(seed)
    grid, tg = problem.grid, problem.timegrid
    js = [row["J"] for row in result.history]
    increase = float(np.max(np.diff(js), initial=-math.inf)) if len(js) > 1 else 0.0
    feas = max(max(0.0, result.u.linf() - problem.M), max(0.0, result.u.dt_l2() - problem.Mprime))
    traj = simulate(problem.phi0, result.u, problem.spec, tg, with_diagnostics=False)
    u0_proj = project_Uad(grid, tg, u0.slices, problem.M, problem.Mprime)
    traj0 = simulate(problem.phi0, u0_proj, problem.spec, tg, with_diagnostics=False)
    return (
        (increase, "max increase of J across accepted iterations"),
        (feas, "max excess of ||u*||_inf over M and of ||d_t u*|| over M'"),
        (cost_J(traj, cost) - cost_J(traj0, cost), "J(u*) - J(P(u0))"),
        (float(result.converged), f"{result.iterations} iterations"),
        (result.history[-1]["stationarity"], "stationarity of the last accepted iterate"),
    )


# ---------------------------------------------------------------------------
# driver

def run_checks(names, seed: int) -> list:
    """Execute the named rows (or all) and return their CheckResults; each scenario runs once."""
    selected = registered_checks() if (not names or "all" in names) else tuple(names)
    unknown = [n for n in selected if n not in REGISTRY]
    if unknown:
        raise ValidationError([f"verify: unknown check {name!r}" for name in unknown])
    outputs, results = {}, []
    for name in selected:
        module, fn, i, sense, bound = REGISTRY[name]
        if fn not in outputs:
            try:
                outputs[fn] = fn(seed)
            except Exception as exc:  # fails this scenario's rows; the others still run
                outputs[fn] = exc
        out = outputs[fn]
        if isinstance(out, Exception):
            measured, details = math.nan, f"{type(out).__name__}: {out}"
        else:
            measured, details = out if i is None else out[i]
        measured = float(measured)
        passed = measured <= bound if sense == "<=" else measured >= bound
        results.append(CheckResult(name, module, passed, measured, sense, bound, details))
    return results
