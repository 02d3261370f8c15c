"""Named invariant checks and the verification-suite driver.

Every invariant declared by the numerical modules is addressable here by
name (``module.check-name``); run_verify executes a selection and returns a
report with one measured value per check.  Checks are self-contained: each
builds its own scenario from the seed, so the suite runs in about a second
and is bit-reproducible for a fixed seed.  Where an acceptance criterion
states the same invariant, the check is the criterion: it runs the
criterion's scenario at the criterion's bound or a stricter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials
from .config import band_limited_field
from .control import (
    ControlProblem,
    OptimizerConfig,
    optimality_residual,
    optimize,
    project_Uad,
)
from .cost import CostSpec, cost_J
from .errors import ValidationError
from .galerkin import build_system, compare_to_pde, integrate, project_initial
from .potentials import PotentialSpec
from .sensitivity import (
    adjoint_identity_residual,
    reduced_gradient,
    solve_adjoint,
    solve_linearized,
)
from .spectral import Field, Grid, _dct, _idct, basis_modes, grad_sq, lowest_modes, to_spectral
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
    details: str


REGISTRY: dict = {}


def _check(name: str):
    """Register a check as ``module.check-name``; the module is the part before the dot."""
    def wrap(fn):
        REGISTRY[name] = (name.split(".", 1)[0], fn)
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


def _regular_spec():
    spec0 = PotentialSpec(variant="regular")
    return PotentialSpec(variant="regular", stabilization=default_stabilization(spec0))


def _c0_h(series, grid) -> float:
    return float(max(np.sqrt(grid.cell) * np.linalg.norm(s) for s in series))


# ---------------------------------------------------------------------------
# spectral

def _grids():
    # the 128-point axis is transformed through the even/odd fold, the others densely
    return (_grid8(), Grid(16, 1, 2.0), Grid(6, 10, 1.5, 0.7), Grid(128, 3, 1.3, 0.4))


@_check("spectral.parseval")
def _parseval(seed):
    worst = 0.0
    for i, grid in enumerate(_grids()):
        f = _random_field(grid, _rng(seed, 10 + i))
        s = to_spectral(f)
        nh2 = grid.cell * f.values @ f.values
        rel = abs(float(np.sum(s.coeffs**2)) - nh2) / max(nh2, 1e-300)
        worst = max(worst, rel)
    return worst <= 1e-12, worst, "max relative Parseval defect over four grids"


@_check("spectral.inverse-laplacian-symmetry")
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
    return worst <= 1e-14, worst, (
        "max of |<f, A g> - <g, A f>| / (||f|| ||A g||) for the step's multipliers"
    )


@_check("spectral.poincare-bound")
def _poincare_bound(seed):
    worst = 0.0
    for i, grid in enumerate(_grids()):
        j, k = lowest_modes(grid, 2)
        rows = np.vstack([_rng(seed, 30 + i).standard_normal((5, grid.size)),
                          basis_modes(grid, j[1:], k[1:])])
        rows -= rows.mean(axis=1, keepdims=True)
        lam_min = grid.eigenvalues()[j[1], k[1]]
        excess = lam_min * grid.cell * np.sum(rows * rows, axis=1) / grad_sq(grid, rows) - 1.0
        worst = max(worst, float(np.max(excess[:-1])), abs(float(excess[-1])))
    return worst <= 1e-12, worst, (
        "max of lam_min ||f - fbar||^2 / ||grad f||^2 - 1 over random fields, "
        "and its size at the lowest nonzero mode"
    )


@_check("spectral.laplacian-closed-form")
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
    return worst <= 1e-12, worst, "relative defect of the spectral Laplacian of cosine sums"


# ---------------------------------------------------------------------------
# potentials

def _reg_specs():
    return (
        PotentialSpec("regular", eps=0.1, reg_kind="yosida"),
        PotentialSpec("logarithmic", c1=2.0, eps=0.1, reg_kind="yosida"),
        PotentialSpec("logarithmic", c1=2.0, eps=0.05, reg_kind="piecewise_log"),
        PotentialSpec("double_obstacle", c2=1.0, eps=0.25, reg_kind="yosida"),
    )


@_check("potentials.beta-monotone")
def _beta_monotone(seed):
    worst = 0.0
    for i, spec in enumerate(_reg_specs()):
        rs = np.sort(_rng(seed, 50 + i).uniform(-2.0, 2.0, 10_000))
        vals = potentials.beta_reg_vec(spec, rs)
        worst = max(worst, float(np.max(-np.diff(vals))),
                    abs(float(potentials.beta_reg_vec(spec, 0.0))))
    return worst <= 1e-12, worst, "max decrease of beta_reg over sorted samples, and |beta_reg(0)|"


@_check("potentials.yosida-lipschitz")
def _yosida_lipschitz(seed):
    worst = 0.0
    for i, spec in enumerate(s for s in _reg_specs() if s.reg_kind == "yosida"):
        rs = np.sort(_rng(seed, 60 + i).uniform(-2.0, 2.0, 10_000))
        vals = potentials.beta_reg_vec(spec, rs)
        lip = np.abs(np.diff(vals)) * spec.eps - np.diff(rs)
        worst = max(worst, float(np.max(lip)))
    return worst <= 1e-12, worst, "max violation of eps-scaled Lipschitz bound between neighbours"


@_check("potentials.yosida-sandwich")
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
    return worst <= 1e-12, worst, "max violation of |beta_eps|<=|beta|, 0<=bh_eps<=bh"


@_check("potentials.pi-derivative-constant")
def _pi_constant(seed):
    worst = 0.0
    for i, spec in enumerate(_reg_specs()):
        rs = _rng(seed, 80 + i).uniform(-2.0, 2.0, 10_000)
        dev = potentials.f_d2_vec(spec, rs) - potentials.beta_reg_d1_vec(spec, rs)
        worst = max(worst, float(np.max(np.abs(dev - potentials.pi_d1(spec)))))
    return worst <= 1e-12, worst, "max deviation of f'' - beta' from the constant pi'"


def _exp_derivative_excess(spec, samples) -> float:
    """Largest beta_eps'(r) - 2 exp(|beta_eps(r)|) over the samples; the bound holds where <= 0."""
    d1, beta = potentials._reg(spec, samples, (2, 1))
    # exponent capped to stay finite; the bound holds trivially beyond
    return float(np.max(d1 - 2.0 * np.exp(np.minimum(np.abs(beta), 700.0))))


@_check("potentials.log-derivative-exp-bound")
def _log_exp_bound(seed):
    worst = -math.inf
    for i, eps in enumerate((0.5, 0.1, 1e-3)):
        spec = PotentialSpec("logarithmic", c1=2.0, eps=eps, reg_kind="piecewise_log")
        samples = _rng(seed, 90 + i).uniform(-2.0, 2.0, 10_000)
        worst = max(worst, _exp_derivative_excess(spec, samples))
    return worst <= 1e-12, worst, "max of beta_eps' - 2 exp(|beta_eps|) over sweeps"


def _young_exp_constants(p: float) -> tuple[float, float]:
    """Constants (kappa, kappa') with r*s*e^{ps} <= s^2 e^{ps}/2 + e^{kappa r} + kappa' for p >= 1.

    Built from the delta > 0 solving delta*(1 + p + delta) = 1/2, with
    kappa = 1/delta and kappa' = (p + delta)^2 / (4 delta).
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    delta = 0.5 * (-(1.0 + p) + math.sqrt((1.0 + p) ** 2 + 2.0))
    return 1.0 / delta, (p + delta) ** 2 / (4.0 * delta)


@_check("potentials.young-exp-inequality")
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
    return worst <= 1e-12, worst, "max violation of the exponential Young inequality"


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


@_check("state.mean-implicit-euler")
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
    return worst <= 1e-12, worst, "max gap to implicit-Euler iterates of the mean law under a space-time control"


@_check("state.mean-closed-form-consistency")
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
    ratio = e1 / max(e2, 1e-300)
    drift = float(np.max(np.abs(means - np.mean(phi0.values))))
    ok = ratio >= 1.5 and drift <= u.linf() + 1e-12
    return ok, ratio, "tau-halving error ratio (first order => ~2) and mean drift bound"


def _separation_run(seed):
    grid = Grid(32, 32, 1.0, 1.0)
    tg = TimeGrid(0.5, 500)
    spec0 = PotentialSpec("logarithmic", c1=2.0, eps=1e-4, reg_kind="piecewise_log")
    S = default_stabilization(spec0, (-0.95, 0.95))
    spec = PotentialSpec("logarithmic", c1=2.0, eps=1e-4, reg_kind="piecewise_log",
                         stabilization=S)
    rng = _rng(seed, 130)
    phi0 = band_limited_field(grid, 0.6, 6, rng)
    u = ControlFunction.constant(grid, tg, 0.1)
    return simulate(phi0, u, spec, tg, with_diagnostics=False)


@_check("state.separation-log-2d")
def _separation(seed):
    traj = _separation_run(seed)
    peak = float(np.max(np.abs(traj.phi)))
    return peak <= 1.0 - 1e-3, peak, "max |phi| over a logarithmic 2-d run"


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


@_check("state.xi-bound")
def _xi_bound(seed):
    worst = _xi_defect(_separation_run(seed))
    return worst <= 1e-8, worst, "max of ||xi||_inf - ||phi + mu - pi(phi)||_inf, mu at phi's level"


def _step_halving(ratio_at, nt):
    """Relative change of ratio_at(nt) -> ratio_at(2 nt) and its detail line; small when both resolve the limit."""
    coarse, fine = ratio_at(nt), ratio_at(2 * nt)
    change = abs(fine - coarse) / coarse
    return change, f"ratio {coarse:.4f} -> {fine:.4f} from nt = {nt} to {2 * nt}"


@_check("state.continuous-dependence")
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
    return change < 0.2, change, f"relative change of the max perturbation ratio over 10 control pairs, {details}"


@_check("state.energy-balance")
def _energy_balance(seed):
    grid = _grid8()
    tg = TimeGrid(0.5, 20)
    spec = _regular_spec()
    u = ControlFunction.constant(grid, tg, 1.0)
    traj = simulate(Field(grid, np.ones(grid.size)), u, spec, tg, with_diagnostics=False)
    stationary = float(np.max(np.abs(energy_balance_residual(traj))))
    # linear dynamics (obstacle variant inside [-1, 1]) on few, slow modes,
    # so tau * lambda^2 stays small and the residual is first order in tau
    spec = PotentialSpec("double_obstacle", c2=0.5, eps=0.5, reg_kind="yosida",
                         stabilization=0.0)
    wave = band_limited_field(grid, 0.05, 3, _rng(seed, 125)).values

    def ratio(phi0, value):
        """max |r| at nt = 100 over max |r| at nt = 200, with the constant control value."""
        res = []
        for nt in (100, 200):
            tgrid = TimeGrid(0.1, nt)
            u = ControlFunction.constant(grid, tgrid, value)
            traj = simulate(phi0, u, spec, tgrid, with_diagnostics=False)
            res.append(float(np.max(np.abs(energy_balance_residual(traj)))))
        return res[0] / max(res[1], 1e-300)

    unsourced = ratio(Field(grid, wave), 0.0)
    # u - phi and mu far from zero: without its source term the residual
    # stops shrinking with tau (ratio ~1.1).  Using mu^n for mu^{n+1} in
    # ||grad mu||^2 is also first order (ratio ~1.885), so no tau-halving
    # ratio can tell that slip from the correct residual.
    sourced = ratio(Field(grid, 0.2 + wave), 0.5)
    ok = stationary < 1e-10 and all(1.5 <= r <= 2.5 for r in (unsourced, sourced))
    return ok, sourced, (
        f"tau-halving ratio of the energy-balance residual with u = 0.5 "
        f"(first order => ~2); {unsourced:.3f} with u = 0"
    )


# ---------------------------------------------------------------------------
# galerkin oracle

@_check("galerkin.constant-mode-law")
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
    y0 = project_initial(phi0, 1)
    traj = integrate(system, y0, u, spec, substeps=40)
    sqrt_vol = math.sqrt(grid.volume)
    worst = 0.0
    for n in range(tg.nt + 1):
        exact = mean_closed_form(0.3, ubars, tg.tau, n * tg.tau)
        worst = max(worst, abs(traj.y[n, 0] / sqrt_vol - exact))
    M = float(np.max(np.abs(ubars)))
    means = traj.y[:, 0] / sqrt_vol
    bound_ok = np.all(means >= 0.3 - M - 1e-8) and np.all(means <= 0.3 + M + 1e-8)
    return worst <= 1e-6 and bool(bound_ok), worst, "n=1 oracle vs exact mean law"


@_check("galerkin.refinement-convergence")
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
        y0 = project_initial(phi0, n_modes)
        oracle = integrate(system, y0, u, spec, substeps=5)
        return compare_to_pde(oracle, pde).max_phi_error

    e_coarse = error(50, 8)
    e_fine_t = error(100, 8)
    e_few_modes = error(50, 4)
    ok = e_fine_t <= 1.05 * e_coarse and e_coarse <= 1.05 * e_few_modes
    return ok, e_coarse, "oracle/PDE error decreases under tau and mode refinement"


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


@_check("sensitivity.adjoint-transpose-identity")
def _adjoint_identity(seed):
    worst = 0.0
    for draw in range(10):
        grid, tg, spec, phi0, u, traj, cost, rng = _tracking_setup(seed, 170 + draw)
        h = _white_noise(grid, tg, rng)
        tangent = solve_linearized(traj, h)
        adj = solve_adjoint(traj, cost)
        res = adjoint_identity_residual(traj, tangent, adj, h, cost)
        worst = max(worst, res / (1.0 + abs(cost_J(traj, cost))))
    return worst <= 1e-10, worst, "max scaled transpose-identity residual over 10 draws"


@_check("sensitivity.tangent-linearity")
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
    return rel <= 1e-12, rel, "superposition defect of the tangent solve, max over xi and eta"


@_check("sensitivity.frechet-order")
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
    return worst <= 0.2, worst, f"Taylor remainder orders {[round(o, 3) for o in orders]}"


@_check("sensitivity.tangent-continuity")
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
    return change < 0.2, change, f"relative change of the max tangent-to-direction ratio, {details}"


@_check("sensitivity.gradient-fd-match")
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
    return worst <= 1e-8, worst, (
        "max over 5 directions of the best-step |<g, h> - fd| / (||g|| ||h||)"
    )


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


@_check("control.cost-nonnegative")
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
    zero = abs(cost_J(traj, perfect))
    return min(vals) >= 0.0 and zero <= 1e-20, min(vals), (
        f"min J over 5 random costs (>= 0); perfect tracking |J| = {zero:.3g} (<= 1e-20)"
    )


@_check("control.projection-idempotent")
def _proj_idempotent(seed):
    grid, tg = _grid8(), TimeGrid(0.3, 20)
    rng = _rng(seed, 230)
    worst = 0.0
    for _ in range(3):
        raw = rng.standard_normal((tg.nt + 1, grid.size)) * 2.0
        for M, Mprime in ((1.0, 0.5), (0.5, 2.0)):
            p1 = project_Uad(grid, tg, raw, M, Mprime)
            p2 = project_Uad(grid, tg, p1.slices, M, Mprime)
            worst = max(worst, float(np.max(np.abs(p2.slices - p1.slices))))
    return worst <= 1e-10, worst, "max |P(P(x)) - P(x)| at (M, M') = (1, 0.5) and (0.5, 2)"


@_check("control.projection-nonexpansive")
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
    return worst <= 1.0 + 1e-8, worst, "max contraction ratio of the projection in the control_inner norm"


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
    return problem, cost, u0, result, rng


@_check("control.monotone-descent")
def _monotone_descent(seed):
    problem, cost, u0, result, rng = _inverse_crime_run(seed)
    js = [row["J"] for row in result.history]
    worst = float(np.max(np.diff(js), initial=-math.inf)) if len(js) > 1 else 0.0
    return worst <= 0.0, worst, "max increase of J across accepted iterations"


@_check("control.feasible-descent")
def _feasible_descent(seed):
    problem, cost, u0, result, rng = _inverse_crime_run(seed)
    feas = max(
        max(0.0, result.u.linf() - problem.M),
        max(0.0, result.u.dt_l2() - problem.Mprime),
    )
    traj = simulate(problem.phi0, result.u, problem.spec, problem.timegrid,
                    with_diagnostics=False)
    u0_proj = project_Uad(problem.grid, problem.timegrid, u0.slices, problem.M, problem.Mprime)
    traj0 = simulate(problem.phi0, u0_proj, problem.spec, problem.timegrid,
                     with_diagnostics=False)
    ok = feas <= 1e-9 and cost_J(traj, cost) <= cost_J(traj0, cost) + 1e-12
    return ok, feas, "returned control feasible with J(u*) <= J(u0)"


@_check("control.variational-inequality")
def _variational_inequality(seed):
    problem, cost, u0, result, rng = _inverse_crime_run(seed)
    grid, tg = problem.grid, problem.timegrid
    traj = simulate(problem.phi0, result.u, problem.spec, tg, with_diagnostics=False)
    g = reduced_gradient(traj, solve_adjoint(traj, cost), cost)
    gnorm = math.sqrt(control_inner(tg, grid, g, g))
    res = optimality_residual(result.u, g, problem.M, problem.Mprime, samples=100, rng=rng)
    stationarity = result.history[-1]["stationarity"]
    ok = result.converged and stationarity <= 1e-5 and res >= -1e-6 * (1.0 + gnorm)
    return ok, res, (
        f"most negative probe value of <g, u - u*> over 100 probes; {result.iterations} "
        f"iterations, stationarity {stationarity:.3e}"
    )


# ---------------------------------------------------------------------------
# driver

def run_checks(names, seed: int) -> list:
    """Execute the named checks (or all) and return CheckResult rows."""
    selected = registered_checks() if (not names or "all" in names) else tuple(names)
    unknown = [n for n in selected if n not in REGISTRY]
    if unknown:
        raise ValidationError([f"verify: unknown check {name!r}" for name in unknown])
    results = []
    for name in selected:
        module, fn = REGISTRY[name]
        passed, measured, details = fn(seed)
        results.append(CheckResult(name, module, bool(passed), float(measured), details))
    return results
