"""Named invariant checks and the verification-suite driver.

Every invariant declared by the numerical modules is addressable here by
name (``module.check-name``); run_verify executes a selection and returns a
report with one measured value per check.  Checks are self-contained: each
builds its own small scenario from the seed, so the suite runs in seconds
and is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials, spectral
from .config import band_limited_field
from .control import (
    CostSpec,
    ControlProblem,
    OptimizerConfig,
    cost_J,
    optimality_residual,
    optimize,
    project_Uad,
)
from .galerkin import build_system, compare_to_pde, integrate, project_initial
from .potentials import PotentialSpec
from .sensitivity import (
    adjoint_identity_residual,
    control_inner,
    reduced_gradient,
    solve_adjoint,
    solve_linearized,
)
from .spectral import Field, Grid, from_spectral, to_spectral
from .state import (
    ControlFunction,
    TimeGrid,
    default_stabilization,
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


def _check(name: str, module: str):
    def wrap(fn):
        REGISTRY[name] = (module, fn)
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


def _zero_mean(f: Field) -> Field:
    return Field(f.grid, f.values - f.values.mean())


def _c0_h(series, grid) -> float:
    return float(max(np.sqrt(grid.cell) * np.linalg.norm(s) for s in series))


def _l2_h(series, grid, tg) -> float:
    return math.sqrt(control_inner(tg, grid, series, series))


# ---------------------------------------------------------------------------
# spectral

@_check("spectral.parseval", "spectral")
def _parseval(seed):
    worst = 0.0
    for i, grid in enumerate((_grid8(), Grid(16, 1, 2.0), Grid(6, 10, 1.5, 0.7))):
        f = _random_field(grid, _rng(seed, 10 + i))
        s = to_spectral(f)
        nh2 = spectral.norm_H(f) ** 2
        rel = abs(float(np.sum(s.coeffs**2)) - nh2) / max(nh2, 1e-300)
        worst = max(worst, rel)
    return worst <= 1e-12, worst, "max relative Parseval defect over three grids"


@_check("spectral.inverse-laplacian-symmetry", "spectral")
def _n_symmetry(seed):
    grid = _grid8()
    worst = 0.0
    for i in range(5):
        rng = _rng(seed, 20 + i)
        f = _zero_mean(_random_field(grid, rng))
        g = _zero_mean(_random_field(grid, rng))
        a = spectral.inner(f, spectral.solve_N(g))
        b = spectral.inner(g, spectral.solve_N(f))
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return worst <= 1e-12, worst, "max relative asymmetry of <f, N g> on zero-mean pairs"


@_check("spectral.dual-norm-bound", "spectral")
def _dual_norm_bound(seed):
    grid = _grid8()
    lam = grid.eigenvalues()
    lam_min = float(np.min(lam[lam > 0]))
    worst = 0.0
    for i in range(5):
        f = _zero_mean(_random_field(grid, _rng(seed, 30 + i)))
        ratio = spectral.norm_Vstar(f) * math.sqrt(lam_min) / max(spectral.norm_H(f), 1e-300)
        worst = max(worst, ratio)
    return worst <= 1.0 + 1e-12, worst, "max of ||f||_* sqrt(lam_min) / ||f||_H, must be <= 1"


@_check("spectral.laplacian-inverse-identity", "spectral")
def _lap_inverse(seed):
    grid = _grid8()
    worst = 0.0
    for i in range(5):
        f = _zero_mean(_random_field(grid, _rng(seed, 40 + i)))
        w = spectral.solve_N(f)
        back = from_spectral(spectral.laplacian(to_spectral(w)))
        worst = max(
            worst,
            spectral.norm_H(Field(grid, back.values + f.values))
            / max(spectral.norm_H(f), 1e-300),
        )
    return worst <= 1e-10, worst, "relative defect of laplacian(solve_N(f)) + f"


# ---------------------------------------------------------------------------
# potentials

def _reg_specs():
    return (
        PotentialSpec("regular", eps=0.1, reg_kind="yosida"),
        PotentialSpec("logarithmic", c1=2.0, eps=0.1, reg_kind="yosida"),
        PotentialSpec("logarithmic", c1=2.0, eps=0.05, reg_kind="piecewise_log"),
        PotentialSpec("double_obstacle", c2=1.0, eps=0.25, reg_kind="yosida"),
    )


@_check("potentials.beta-monotone", "potentials")
def _beta_monotone(seed):
    worst = 0.0
    for i, spec in enumerate(_reg_specs()):
        rs = np.sort(_rng(seed, 50 + i).uniform(-2.0, 2.0, 400))
        vals = potentials.beta_reg_vec(spec, rs)
        worst = max(worst, float(np.max(-np.diff(vals), initial=0.0)))
    return worst <= 1e-12, worst, "max decrease of beta_reg over sorted samples"


@_check("potentials.yosida-lipschitz", "potentials")
def _yosida_lipschitz(seed):
    worst = 0.0
    for i, spec in enumerate(s for s in _reg_specs() if s.reg_kind == "yosida"):
        rng = _rng(seed, 60 + i)
        r1 = rng.uniform(-2.0, 2.0, 300)
        r2 = rng.uniform(-2.0, 2.0, 300)
        b1 = potentials.beta_reg_vec(spec, r1)
        b2 = potentials.beta_reg_vec(spec, r2)
        lip = np.abs(b1 - b2) * spec.eps - np.abs(r1 - r2)
        worst = max(worst, float(np.max(lip, initial=0.0)))
    return worst <= 1e-9, worst, "max violation of eps-scaled Lipschitz bound"


@_check("potentials.yosida-sandwich", "potentials")
def _yosida_sandwich(seed):
    worst = 0.0
    for i, spec in enumerate(s for s in _reg_specs() if s.reg_kind == "yosida"):
        rng = _rng(seed, 70 + i)
        rs = rng.uniform(-0.97, 0.97, 200)
        b_eps = potentials.beta_reg_vec(spec, rs)
        bh = potentials._reg(spec, rs, 0)
        worst = max(
            worst,
            float(np.max(np.abs(b_eps) - np.abs(potentials._exact(spec, rs, 1)))),
            float(np.max(-bh)),
            float(np.max(bh - potentials._exact(spec, rs, 0))),
        )
    return worst <= 1e-10, worst, "max violation of |beta_eps|<=|beta|, 0<=bh_eps<=bh"


@_check("potentials.pi-derivative-constant", "potentials")
def _pi_constant(seed):
    worst = 0.0
    for i, spec in enumerate(_reg_specs()):
        rs = _rng(seed, 80 + i).uniform(-2.0, 2.0, 200)
        dev = potentials.f_d2_vec(spec, rs) - potentials.beta_reg_d1_vec(spec, rs)
        worst = max(worst, float(np.max(np.abs(dev - potentials.pi_d1(spec)))))
    return worst <= 1e-12, worst, "max deviation of f'' - beta' from the constant pi'"


@_check("potentials.log-derivative-exp-bound", "potentials")
def _log_exp_bound(seed):
    worst = -math.inf
    for i, eps in enumerate((0.5, 0.1, 1e-3)):
        spec = PotentialSpec("logarithmic", c1=2.0, eps=eps, reg_kind="piecewise_log")
        samples = _rng(seed, 90 + i).uniform(-2.0, 2.0, 10_000)
        report = potentials.check_exp_derivative_bound(spec, samples)
        worst = max(worst, report.max_violation)
    return worst <= 1e-12, worst, "max of beta_eps' - 2 exp(|beta_eps|) over sweeps"


@_check("potentials.young-exp-inequality", "potentials")
def _young(seed):
    worst = -math.inf
    for i, p in enumerate((1.0, 3.0)):
        kappa, kappa_prime = potentials.young_exp_constants(p)
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


@_check("state.mean-implicit-euler", "state")
def _mean_euler(seed):
    grid, tg, spec, phi0, u = _small_forward(seed, 110)
    traj = simulate(phi0, u, spec, tg, with_diagnostics=False)
    means = traj.means()
    ubar = u.means()
    worst = 0.0
    m = means[0]
    for n in range(tg.nt):
        m = (m + tg.tau * ubar[n]) / (1.0 + tg.tau)
        worst = max(worst, abs(means[n + 1] - m))
    return worst <= 1e-12, worst, "max gap to implicit-Euler iterates of the mean law"


@_check("state.mean-closed-form-consistency", "state")
def _mean_closed(seed):
    grid, tg, spec, phi0, u = _small_forward(seed, 120)

    def err(tgrid):
        uu = ControlFunction(grid, tgrid, np.repeat(u.slices[:1], tgrid.nt + 1, axis=0))
        traj = simulate(phi0, uu, spec, tgrid, with_diagnostics=False)
        means = traj.means()
        ubar = uu.means()
        return max(
            abs(means[n] - mean_closed_form(means[0], ubar, tgrid.tau, n * tgrid.tau))
            for n in range(tgrid.nt + 1)
        )

    e1 = err(tg)
    e2 = err(TimeGrid(tg.T, 2 * tg.nt))
    ratio = e1 / max(e2, 1e-300)
    drift = float(np.max(np.abs(
        simulate(phi0, u, spec, tg, with_diagnostics=False).means() - np.mean(phi0.values)
    )))
    ok = ratio >= 1.5 and drift <= u.linf() + 1e-12
    return ok, ratio, "tau-halving error ratio (first order => ~2) and mean drift bound"


def _separation_run(seed):
    grid = Grid(16, 16, 1.0, 1.0)
    tg = TimeGrid(0.25, 100)
    spec0 = PotentialSpec("logarithmic", c1=2.0, eps=1e-4, reg_kind="piecewise_log")
    S = default_stabilization(spec0, (-0.95, 0.95))
    spec = PotentialSpec("logarithmic", c1=2.0, eps=1e-4, reg_kind="piecewise_log",
                         stabilization=S)
    rng = _rng(seed, 130)
    phi0 = band_limited_field(grid, 0.6, 6, rng)
    u = ControlFunction.constant(grid, tg, 0.1, M=0.2)
    traj = simulate(phi0, u, spec, tg, with_diagnostics=False)
    return spec, traj


@_check("state.separation-log-2d", "state")
def _separation(seed):
    spec, traj = _separation_run(seed)
    peak = float(np.max(np.abs(traj.phi)))
    return peak <= 1.0 - 1e-3, peak, "max |phi| over a logarithmic 2-d run"


@_check("state.xi-bound", "state")
def _xi_bound(seed):
    spec, traj = _separation_run(seed)
    worst = -math.inf
    for n in range(traj.timegrid.nt + 1):
        xi = potentials.beta_reg_vec(spec, traj.phi[n])
        bound = np.abs(traj.phi[n] + traj.mu[n] - potentials.pi_d1(spec) * traj.phi[n])
        worst = max(worst, float(np.max(np.abs(xi)) - np.max(bound)))
    return worst <= 1e-8, worst, "max of ||xi||_inf - ||phi + mu - pi(phi)||_inf"


@_check("state.continuous-dependence", "state")
def _continuous_dependence(seed):
    grid = _grid8()
    tg = TimeGrid(0.5, 40)
    spec = _regular_spec()
    rng = _rng(seed, 140)
    phi0 = band_limited_field(grid, 0.5, 6, rng)
    worst = 0.0
    for _ in range(10):
        s1 = band_limited_field(grid, 0.5, 6, rng).values
        s2 = band_limited_field(grid, 0.5, 6, rng).values
        u1 = ControlFunction(grid, tg, np.repeat(s1[None, :], tg.nt + 1, axis=0))
        u2 = ControlFunction(grid, tg, np.repeat(s2[None, :], tg.nt + 1, axis=0))
        t1 = simulate(phi0, u1, spec, tg, with_diagnostics=False)
        t2 = simulate(phi0, u2, spec, tg, with_diagnostics=False)
        dphi = _c0_h(t1.phi - t2.phi, grid)
        dmu = _l2_h(t1.mu - t2.mu, grid, tg)
        du = _l2_h(u1.slices - u2.slices, grid, tg)
        worst = max(worst, (dphi + dmu) / max(du, 1e-300))
    return math.isfinite(worst), worst, "max perturbation ratio over 10 control pairs"


# ---------------------------------------------------------------------------
# galerkin oracle

@_check("galerkin.constant-mode-law", "galerkin")
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
    traj = integrate(system, y0, u, spec, tg, substeps=40)
    sqrt_vol = math.sqrt(grid.volume)
    worst = 0.0
    for n in range(tg.nt + 1):
        exact = mean_closed_form(0.3, ubars, tg.tau, n * tg.tau)
        worst = max(worst, abs(traj.y[n, 0] / sqrt_vol - exact))
    M = float(np.max(np.abs(ubars)))
    means = traj.y[:, 0] / sqrt_vol
    bound_ok = np.all(means >= 0.3 - M - 1e-8) and np.all(means <= 0.3 + M + 1e-8)
    return worst <= 1e-6 and bool(bound_ok), worst, "n=1 oracle vs exact mean law"


@_check("galerkin.refinement-convergence", "galerkin")
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
        oracle = integrate(system, y0, u, spec, tg, substeps=5)
        return compare_to_pde(oracle, pde).max_phi_error

    e_coarse = error(50, 8)
    e_fine_t = error(100, 8)
    e_few_modes = error(50, 4)
    ok = e_fine_t <= 1.05 * e_coarse and e_coarse <= 1.05 * e_few_modes
    return ok, e_coarse, "oracle/PDE error decreases under tau and mode refinement"


# ---------------------------------------------------------------------------
# sensitivity

def _sensitivity_setup(seed, index):
    grid = _grid8()
    tg = TimeGrid(0.4, 30)
    spec = _regular_spec()
    rng = _rng(seed, index)
    phi0 = band_limited_field(grid, 0.5, 6, rng)
    u_values = band_limited_field(grid, 0.3, 6, rng).values
    u = ControlFunction(grid, tg, np.repeat(u_values[None, :], tg.nt + 1, axis=0))
    traj = simulate(phi0, u, spec, tg, with_diagnostics=False)
    cost = CostSpec(
        grid,
        tg,
        (1.0, 1.0, 0.5, 1e-2),
        phi_q=rng.standard_normal((tg.nt + 1, grid.size)),
        phi_omega=rng.standard_normal(grid.size),
        mu_q=rng.standard_normal((tg.nt + 1, grid.size)),
    )
    return grid, tg, spec, phi0, u, traj, cost, rng


def _direction(grid, tg, rng, amp=0.5):
    h = np.empty((tg.nt + 1, grid.size))
    base = band_limited_field(grid, amp, 6, rng).values
    drift = band_limited_field(grid, amp, 6, rng).values
    ts = tg.times() / tg.T
    for n in range(tg.nt + 1):
        h[n] = base + ts[n] * drift
    return ControlFunction(grid, tg, h)


@_check("sensitivity.adjoint-transpose-identity", "sensitivity")
def _adjoint_identity(seed):
    grid, tg, spec, phi0, u, traj, cost, rng = _sensitivity_setup(seed, 170)
    worst = 0.0
    for _ in range(3):
        h = _direction(grid, tg, rng)
        tangent = solve_linearized(traj, h, spec)
        adj = solve_adjoint(traj, cost, spec)
        res = adjoint_identity_residual(traj, tangent, adj, h, cost)
        scale = 1.0 + abs(cost_J(traj, u, cost))
        worst = max(worst, res / scale)
    return worst <= 1e-10, worst, "max scaled transpose-identity residual"


@_check("sensitivity.tangent-linearity", "sensitivity")
def _tangent_linearity(seed):
    grid, tg, spec, phi0, u, traj, cost, rng = _sensitivity_setup(seed, 180)
    h1 = _direction(grid, tg, rng)
    h2 = _direction(grid, tg, rng)
    t1 = solve_linearized(traj, h1, spec)
    t2 = solve_linearized(traj, h2, spec)
    h12 = ControlFunction(grid, tg, h1.slices + 2.0 * h2.slices)
    t12 = solve_linearized(traj, h12, spec)
    dev = np.max(np.abs(t12.xi - t1.xi - 2.0 * t2.xi))
    scale = max(np.max(np.abs(t12.xi)), 1e-300)
    rel = float(dev / scale)
    return rel <= 1e-12, rel, "superposition defect of the tangent solve"


@_check("sensitivity.frechet-order", "sensitivity")
def _frechet_order(seed):
    grid, tg, spec, phi0, u, traj, cost, rng = _sensitivity_setup(seed, 190)
    h = _direction(grid, tg, rng)
    tangent = solve_linearized(traj, h, spec)
    rems = []
    for lam in (1e-1, 5e-2, 2.5e-2):
        up = ControlFunction(grid, tg, u.slices + lam * h.slices)
        tp = simulate(phi0, up, spec, tg, with_diagnostics=False)
        rems.append(_c0_h(tp.phi - traj.phi - lam * tangent.xi, grid))
    orders = [math.log2(rems[i] / rems[i + 1]) for i in range(2)]
    worst = max(abs(o - 2.0) for o in orders)
    return worst <= 0.2, worst, f"Taylor remainder orders {orders}"


@_check("sensitivity.tangent-continuity", "sensitivity")
def _tangent_continuity(seed):
    grid, tg, spec, phi0, u, traj, cost, rng = _sensitivity_setup(seed, 200)
    worst = 0.0
    for _ in range(5):
        h = _direction(grid, tg, rng)
        tangent = solve_linearized(traj, h, spec)
        num = _c0_h(tangent.xi, grid) + _l2_h(tangent.eta, grid, tg)
        den = _l2_h(h.slices, grid, tg)
        worst = max(worst, num / max(den, 1e-300))
    return math.isfinite(worst), worst, "max of (||xi||_C0H + ||eta||_L2H)/||h||_L2H"


@_check("sensitivity.gradient-fd-match", "sensitivity")
def _gradient_fd(seed):
    grid, tg, spec, phi0, u, traj, cost, rng = _sensitivity_setup(seed, 210)
    adj = solve_adjoint(traj, cost, spec)
    g = reduced_gradient(traj, adj, u, cost)
    worst = 0.0
    for _ in range(2):
        h = _direction(grid, tg, rng)
        predicted = control_inner(tg, grid, g, h.slices)
        best = math.inf
        for delta in (1e-3, 1e-4, 1e-5, 1e-6):
            up = ControlFunction(grid, tg, u.slices + delta * h.slices)
            um = ControlFunction(grid, tg, u.slices - delta * h.slices)
            jp = cost_J(simulate(phi0, up, spec, tg, with_diagnostics=False), up, cost)
            jm = cost_J(simulate(phi0, um, spec, tg, with_diagnostics=False), um, cost)
            fd = (jp - jm) / (2.0 * delta)
            best = min(best, abs(fd - predicted) / max(abs(fd), 1e-300))
        worst = max(worst, best)
    return worst <= 1e-6, worst, "max (over directions) of best-step FD relative error"


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
        M=1.0,
        Mprime=10.0,
    )
    return grid, tg, spec, phi0, problem, cost, u0, rng


@_check("control.cost-nonnegative", "control")
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
        vals.append(cost_J(traj, u0, c))
    perfect = CostSpec(grid, tg, (1.0, 1.0, 1.0, 0.0),
                       phi_q=traj.phi.copy(), phi_omega=traj.phi[-1].copy(),
                       mu_q=traj.mu.copy())
    zero = cost_J(traj, u0, perfect)
    measured = min(min(vals), -abs(zero))
    return min(vals) >= 0.0 and abs(zero) <= 1e-20, measured, "J >= 0; perfect tracking gives 0"


@_check("control.projection-idempotent", "control")
def _proj_idempotent(seed):
    grid, tg = _grid8(), TimeGrid(0.3, 20)
    rng = _rng(seed, 230)
    worst = 0.0
    for _ in range(3):
        raw = rng.standard_normal((tg.nt + 1, grid.size)) * 2.0
        p1 = project_Uad(grid, tg, raw, 1.0, 0.5)
        p2 = project_Uad(grid, tg, p1.slices, 1.0, 0.5)
        worst = max(worst, float(np.max(np.abs(p2.slices - p1.slices))))
    return worst <= 1e-10, worst, "max |P(P(x)) - P(x)|"


@_check("control.projection-nonexpansive", "control")
def _proj_nonexpansive(seed):
    grid, tg = _grid8(), TimeGrid(0.3, 20)
    rng = _rng(seed, 240)
    worst = 0.0
    for _ in range(5):
        a = rng.standard_normal((tg.nt + 1, grid.size)) * 2.0
        b = a + rng.standard_normal((tg.nt + 1, grid.size)) * 0.5
        pa = project_Uad(grid, tg, a, 1.0, 0.5)
        pb = project_Uad(grid, tg, b, 1.0, 0.5)
        num = np.linalg.norm(pa.slices - pb.slices)
        den = np.linalg.norm(a - b)
        worst = max(worst, float(num / max(den, 1e-300)))
    return worst <= 1.0 + 1e-6, worst, "max contraction ratio of the projection"


def _descent_run(seed):
    grid, tg, spec, phi0, problem, cost, u0, rng = _opt_setup(seed, 250)
    config = OptimizerConfig(max_iters=15, tol=1e-9)
    return problem, cost, u0, optimize(u0, problem, cost, config)


@_check("control.monotone-descent", "control")
def _monotone_descent(seed):
    problem, cost, u0, result = _descent_run(seed)
    js = [row["J"] for row in result.history]
    worst = float(np.max(np.diff(js), initial=-math.inf)) if len(js) > 1 else 0.0
    return worst <= 0.0, worst, "max increase of J across accepted iterations"


@_check("control.feasible-descent", "control")
def _feasible_descent(seed):
    problem, cost, u0, result = _descent_run(seed)
    feas = max(
        max(0.0, result.u.linf() - problem.M),
        max(0.0, result.u.dt_l2() - problem.Mprime),
    )
    traj = simulate(problem.phi0, result.u, problem.spec, problem.timegrid,
                    with_diagnostics=False)
    u0_proj = project_Uad(problem.grid, problem.timegrid, u0.slices, problem.M, problem.Mprime)
    traj0 = simulate(problem.phi0, u0_proj, problem.spec, problem.timegrid,
                     with_diagnostics=False)
    ok = feas <= 1e-9 and cost_J(traj, result.u, cost) <= cost_J(traj0, u0_proj, cost) + 1e-12
    return ok, feas, "returned control feasible with J(u*) <= J(u0)"


@_check("control.variational-inequality", "control")
def _variational_inequality(seed):
    grid, tg, spec, phi0, problem, cost, u0, rng = _opt_setup(seed, 260)
    config = OptimizerConfig(max_iters=100, tol=1e-8)
    result = optimize(u0, problem, cost, config)
    traj = simulate(phi0, result.u, spec, tg, with_diagnostics=False)
    adj = solve_adjoint(traj, cost, spec)
    g = reduced_gradient(traj, adj, result.u, cost)
    gnorm = math.sqrt(control_inner(tg, grid, g, g))
    res = optimality_residual(result.u, g, problem.M, problem.Mprime, samples=20, rng=rng)
    scale = 1.0 + gnorm
    return res >= -1e-6 * scale, res, "most negative probe value of <g, u - u*>"


# ---------------------------------------------------------------------------
# driver

def run_checks(names, seed: int) -> list:
    """Execute the named checks (or all) and return CheckResult rows."""
    selected = registered_checks() if (not names or "all" in names) else tuple(names)
    unknown = [n for n in selected if n not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown verification checks: {unknown}")
    results = []
    for name in selected:
        module, fn = REGISTRY[name]
        passed, measured, details = fn(seed)
        results.append(CheckResult(name, module, bool(passed), float(measured), details))
    return results
