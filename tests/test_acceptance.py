"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package at a fixed
tolerance and prints a single [PASS]/[FAIL] line naming the criterion.
"""

import math

import numpy as np

from chopt import potentials
from chopt.cli import main
from chopt.config import band_limited_field
from chopt.control import (
    ControlProblem,
    OptimizerConfig,
    optimality_residual,
    optimize,
    project_Uad,
)
from chopt.cost import CostSpec, cost_J
from chopt.galerkin import build_system, compare_to_pde, integrate, project_initial
from chopt.potentials import PotentialSpec
from chopt.sensitivity import (
    adjoint_identity_residual,
    control_inner,
    reduced_gradient,
    solve_adjoint,
    solve_linearized,
)
from chopt.spectral import (
    Field,
    Grid,
    SpectralField,
    from_spectral,
    laplacian,
    to_spectral,
)
from chopt.state import (
    ControlFunction,
    TimeGrid,
    default_stabilization,
    simulate,
)

SEED = 20240824


def report(number, label, passed, measured):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} ({label}): {measured}")
    assert passed, f"criterion {number} ({label}): {measured}"


def regular_spec():
    return PotentialSpec(
        "regular", stabilization=default_stabilization(PotentialSpec("regular"))
    )


def tracking_setup(nx=16, nt=50, T=0.25, seed=SEED):
    rng = np.random.default_rng(seed)
    grid = Grid(nx, nx, 1.0)
    tg = TimeGrid(T, nt)
    spec = regular_spec()
    phi0 = Field(grid, 0.3 * np.tanh(rng.standard_normal(grid.size)))
    u = ControlFunction(grid, tg, 0.2 * rng.standard_normal((nt + 1, grid.size)))
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


def c0_h(series, grid):
    return float(max(np.sqrt(grid.cell) * np.linalg.norm(s) for s in series))


def l2_q(series, grid, tg):
    return math.sqrt(control_inner(tg, grid, series, series))


# ---------------------------------------------------------------------------

def test_criterion_1_mean_dynamics():
    # constant source u = 2 from a zero state: the mean follows
    # m' = -m + 2, so it crosses 1 at t = ln 2; the discrete mean must be
    # the implicit-Euler iterate of that scalar law to machine precision
    grid = Grid(32, 32, 1.0)
    tg = TimeGrid(1.0, 400)
    spec = regular_spec()
    u = ControlFunction.constant(grid, tg, 2.0, M=2.0)
    traj = simulate(
        Field(grid, np.zeros(grid.size)), u, spec, tg, with_diagnostics=False
    )
    means = traj.phi.mean(axis=1)
    idx = int(np.argmax(means > 1.0))
    t_lo, t_hi = (idx - 1) * tg.tau, idx * tg.tau
    frac = (1.0 - means[idx - 1]) / (means[idx] - means[idx - 1])
    t_cross = t_lo + frac * (t_hi - t_lo)
    crossing_ok = abs(t_cross - math.log(2.0)) <= 0.02 * math.log(2.0)

    m = 0.0
    euler_defect = 0.0
    for n in range(tg.nt):
        m = (m + tg.tau * 2.0) / (1.0 + tg.tau)
        euler_defect = max(euler_defect, abs(means[n + 1] - m))
    report(
        1,
        "mean dynamics",
        crossing_ok and euler_defect <= 1e-12,
        f"crossing t = {t_cross:.6f} (ln 2 = {math.log(2.0):.6f}), "
        f"implicit-Euler defect = {euler_defect:.3e}",
    )


def test_criterion_2_galerkin_oracle_equivalence():
    grid = Grid(16, 16, 1.0)
    tg = TimeGrid(0.02, 200)
    spec = PotentialSpec("regular", stabilization=0.0)
    lam = grid.eigenvalues()
    order = sorted(
        ((lam[j, k], j, k) for j in range(grid.nx) for k in range(grid.ny))
    )[:8]
    rng = np.random.default_rng(SEED)
    c = np.zeros((grid.nx, grid.ny))
    # amplitudes decay with the eigenvalue so the truncated fast modes
    # carry little energy relative to the retained slow ones
    for lv, j, k in order:
        c[j, k] = 0.2 * rng.standard_normal() / (1.0 + lv**2 / 20.0)
    c[0, 0] = abs(c[0, 0]) + 0.2
    phi0 = from_spectral(SpectralField(grid, c))
    u = ControlFunction.constant(grid, tg, 0.0)
    pde = simulate(phi0, u, spec, tg, with_diagnostics=False)
    system = build_system(grid, 8)
    oracle = integrate(system, project_initial(phi0, 8), u, spec, tg, substeps=10)
    err = compare_to_pde(oracle, pde).max_phi_error
    report(2, "Galerkin-oracle equivalence", err <= 1e-3,
           f"max relative L2 phi difference = {err:.3e}")


def test_criterion_3_gradient_exactness():
    grid, tg, spec, phi0, u, traj, cost, rng = tracking_setup()
    adj = solve_adjoint(traj, cost, spec)
    grad = reduced_gradient(traj, adj, u, cost)
    worst = 0.0
    for _ in range(5):
        h = ControlFunction(
            grid, tg, rng.standard_normal((tg.nt + 1, grid.size))
        )
        predicted = control_inner(tg, grid, grad, h.slices)
        best = math.inf
        for eps in (1e-3, 1e-4, 1e-5):
            up = ControlFunction(grid, tg, u.slices + eps * h.slices)
            um = ControlFunction(grid, tg, u.slices - eps * h.slices)
            Jp = cost_J(simulate(phi0, up, spec, tg, with_diagnostics=False), up, cost)
            Jm = cost_J(simulate(phi0, um, spec, tg, with_diagnostics=False), um, cost)
            fd = (Jp - Jm) / (2 * eps)
            best = min(best, abs(predicted - fd) / max(abs(fd), 1e-300))
        worst = max(worst, best)
    report(3, "gradient exactness", worst <= 1e-6,
           f"max relative FD mismatch over 5 directions = {worst:.3e}")


def test_criterion_4_linearization_order():
    grid, tg, spec, phi0, u, traj, cost, rng = tracking_setup()
    h = ControlFunction(grid, tg, rng.standard_normal((tg.nt + 1, grid.size)))
    tangent = solve_linearized(traj, h, spec)
    rems = []
    for lam in (1e-1, 5e-2, 2.5e-2):
        up = ControlFunction(grid, tg, u.slices + lam * h.slices)
        tp = simulate(phi0, up, spec, tg, with_diagnostics=False)
        rems.append(c0_h(tp.phi - traj.phi - lam * tangent.xi, grid))
    orders = [math.log2(rems[i] / rems[i + 1]) for i in range(2)]
    ok = all(abs(o - 2.0) <= 0.2 for o in orders)
    report(4, "second-order Taylor remainder", ok,
           f"remainder orders = {[round(o, 3) for o in orders]}")


def test_criterion_5_adjoint_identity():
    worst = 0.0
    for draw in range(10):
        grid, tg, spec, phi0, u, traj, cost, rng = tracking_setup(
            seed=SEED + draw
        )
        h = ControlFunction(
            grid, tg, rng.standard_normal((tg.nt + 1, grid.size))
        )
        tangent = solve_linearized(traj, h, spec)
        adj = solve_adjoint(traj, cost, spec)
        res = adjoint_identity_residual(traj, tangent, adj, h, cost)
        worst = max(worst, res / (1.0 + abs(cost_J(traj, u, cost))))
    report(5, "adjoint transpose identity", worst <= 1e-10,
           f"max scaled residual over 10 draws = {worst:.3e}")


def test_criterion_6_separation_and_xi_bound():
    grid = Grid(32, 32, 1.0)
    tg = TimeGrid(0.5, 500)
    base = PotentialSpec("logarithmic", c1=2.0, eps=1e-4, reg_kind="piecewise_log")
    S = default_stabilization(base, (-0.95, 0.95))
    spec = PotentialSpec(
        "logarithmic", c1=2.0, eps=1e-4, reg_kind="piecewise_log", stabilization=S
    )
    rng = np.random.default_rng(SEED)
    phi0 = band_limited_field(grid, 0.6, 6, rng)
    u = ControlFunction.constant(grid, tg, 0.1, M=0.2)
    traj = simulate(phi0, u, spec, tg, with_diagnostics=False)
    peak = float(np.max(np.abs(traj.phi)))
    xi_defect = -math.inf
    for n in range(tg.nt + 1):
        # evaluate mu at the same snapshot as phi; the stored mu mixes the
        # explicit and implicit time levels of the stepping scheme
        f = Field(grid, traj.phi[n])
        mu = (
            -from_spectral(laplacian(to_spectral(f))).values
            + potentials.f_d1_vec(spec, traj.phi[n])
        )
        xi = potentials.beta_reg_vec(spec, traj.phi[n])
        bound = traj.phi[n] + mu - potentials.pi_d1(spec) * traj.phi[n]
        xi_defect = max(
            xi_defect, float(np.max(np.abs(xi)) - np.max(np.abs(bound)))
        )
    ok = peak <= 1.0 - 1e-3 and xi_defect <= 1e-8
    report(6, "separation from the singular endpoints", ok,
           f"max |phi| = {peak:.6f}, xi-bound defect = {xi_defect:.3e}")


def test_criterion_7_continuous_dependence():
    grid = Grid(8, 8, 1.0)
    spec = regular_spec()
    rng = np.random.default_rng(SEED)
    phi0 = band_limited_field(grid, 0.5, 6, rng)
    pair_seeds = [rng.standard_normal((2, grid.size)) for _ in range(10)]

    def max_ratio(nt):
        tg = TimeGrid(0.5, nt)
        worst = 0.0
        for s1, s2 in pair_seeds:
            u1 = ControlFunction(grid, tg, np.repeat(0.4 * np.tanh(s1)[None, :], nt + 1, axis=0))
            u2 = ControlFunction(grid, tg, np.repeat(0.4 * np.tanh(s2)[None, :], nt + 1, axis=0))
            t1 = simulate(phi0, u1, spec, tg, with_diagnostics=False)
            t2 = simulate(phi0, u2, spec, tg, with_diagnostics=False)
            num = c0_h(t1.phi - t2.phi, grid) + l2_q(t1.mu - t2.mu, grid, tg)
            den = l2_q(u1.slices - u2.slices, grid, tg)
            worst = max(worst, num / max(den, 1e-300))
        return worst

    coarse = max_ratio(40)
    fine = max_ratio(80)
    change = abs(fine - coarse) / coarse
    ok = math.isfinite(coarse) and math.isfinite(fine) and change < 0.2
    report(7, "continuous dependence on the control", ok,
           f"ratio {coarse:.4f} -> {fine:.4f} under step halving "
           f"(change {100 * change:.2f}%)")


def test_criterion_8_regularization_sweeps():
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    yosida_specs = (
        PotentialSpec("regular", eps=0.1, reg_kind="yosida"),
        PotentialSpec("logarithmic", c1=2.0, eps=0.1, reg_kind="yosida"),
        PotentialSpec("double_obstacle", c2=1.0, eps=0.25, reg_kind="yosida"),
    )
    for spec in yosida_specs:
        r1 = np.sort(rng.uniform(-2.0, 2.0, 10_000))
        b1 = potentials.beta_reg_vec(spec, r1)
        # monotone, zero at zero, 1/eps-Lipschitz
        worst = max(worst, float(np.max(-np.diff(b1), initial=-math.inf)))
        worst = max(worst, abs(potentials.beta_reg(spec, 0.0)))
        lip = np.abs(np.diff(b1)) * spec.eps - np.abs(np.diff(r1))
        worst = max(worst, float(np.max(lip)))
        # dominated by the exact minimal section inside the domain
        inside = r1[np.abs(r1) < 0.99]
        exact = np.array([potentials.beta_exact(spec, float(r)) for r in inside])
        sandwich = np.abs(potentials.beta_reg_vec(spec, inside)) - np.abs(exact)
        worst = max(worst, float(np.max(sandwich)))
    for eps in (0.5, 0.1, 1e-3):
        spec = PotentialSpec("logarithmic", c1=2.0, eps=eps, reg_kind="piecewise_log")
        samples = rng.uniform(-2.0, 2.0, 10_000)
        rep = potentials.check_exp_derivative_bound(spec, samples)
        worst = max(worst, rep.max_violation)
    for p in (1.0, 3.0):
        kappa, kappa_prime = potentials.young_exp_constants(p)
        r = rng.uniform(0.0, 6.0, 10_000)
        s = rng.uniform(0.0, 6.0, 10_000)
        lhs = r * s * np.exp(p * s)
        rhs = 0.5 * s * s * np.exp(p * s) + np.exp(kappa * r) + kappa_prime
        worst = max(worst, float(np.max(lhs - rhs)))
    report(8, "regularization property sweeps", worst <= 1e-12,
           f"max violation over all 1e4-point sweeps = {worst:.3e}")


def test_criterion_9_descent_and_optimality():
    grid = Grid(16, 16, 1.0)
    tg = TimeGrid(0.25, 50)
    spec = regular_spec()
    rng = np.random.default_rng(SEED)
    phi0 = Field(grid, 0.3 * np.tanh(rng.standard_normal(grid.size)))
    M, Mprime = 0.5, 10.0
    u_true = project_Uad(
        grid, tg, 0.3 * rng.standard_normal((tg.nt + 1, grid.size)), M, Mprime
    )
    target = simulate(phi0, u_true, spec, tg, with_diagnostics=False)
    cost = CostSpec(
        grid, tg, (1.0, 1.0, 0.0, 1e-2),
        phi_q=target.phi.copy(), phi_omega=target.phi[-1].copy(),
    )
    problem = ControlProblem(phi0, spec, tg, M, Mprime)
    u0 = ControlFunction.constant(grid, tg, 0.0, M=M, Mprime=Mprime)
    result = optimize(u0, problem, cost, OptimizerConfig(max_iters=200, tol=1e-7))
    Js = [row["J"] for row in result.history]
    monotone = all(b <= a + 1e-14 for a, b in zip(Js, Js[1:]))
    stationarity = result.history[-1]["stationarity"]

    traj = simulate(phi0, result.u, spec, tg, with_diagnostics=False)
    adj = solve_adjoint(traj, cost, spec)
    grad = reduced_gradient(traj, adj, result.u, cost)
    gnorm = math.sqrt(control_inner(tg, grid, grad, grad))
    vi = optimality_residual(
        result.u, grad, M, Mprime, samples=100, rng=np.random.default_rng(SEED)
    )
    scale = 1.0 + gnorm
    ok = (
        result.iterations <= 200
        and stationarity <= 1e-5
        and monotone
        and vi >= -1e-6 * scale
    )
    report(9, "projected-gradient descent and optimality", ok,
           f"{result.iterations} iterations, stationarity = {stationarity:.3e}, "
           f"monotone = {monotone}, VI residual = {vi:.3e}")


def test_criterion_10_determinism(tmp_path):
    outs = [tmp_path / "run-a", tmp_path / "run-b"]
    for out in outs:
        code = main(["simulate", "--config", "stationary", "--out", str(out),
                     "--seed", "11"])
        assert code == 0
    files = ["diagnostics.csv", "phi.bin", "mu.bin"]
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files
    )
    report(10, "bit-reproducible runs", identical,
           f"byte comparison of {files} across two seeded runs")
