"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package at a fixed
tolerance and prints a single [PASS]/[FAIL] line naming the criterion.
Where the guarantee is an invariant of the ``chopt.verify`` registry, the
test runs those checks at SEED, so each invariant has one scenario and one
bound.
"""

import math

import numpy as np

from chopt.cli import main
from chopt.galerkin import build_system, compare_to_pde, integrate, project_initial
from chopt.potentials import PotentialSpec
from chopt.spectral import Field, Grid, SpectralField, from_spectral
from chopt.state import ControlFunction, TimeGrid, default_stabilization, simulate
from chopt.verify import registered_checks, run_checks

SEED = 20240824


def report(number, label, passed, measured):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} ({label}): {measured}")
    assert passed, f"criterion {number} ({label}): {measured}"


def regular_spec():
    return PotentialSpec(
        "regular", stabilization=default_stabilization(PotentialSpec("regular"))
    )


def report_checks(number, label, names):
    """Run the registry checks that state the criterion, at the suite's seed, and report them."""
    results = run_checks(names, SEED)
    report(number, label, all(r.passed for r in results),
           "; ".join(f"{r.name} = {r.measured:.3e} ({r.details})" for r in results))


# ---------------------------------------------------------------------------

def test_criterion_1_mean_dynamics():
    # constant source u = 2 from a zero state: the mean follows
    # m' = -m + 2, so it crosses 1 at t = ln 2; the discrete mean must be
    # the implicit-Euler iterate of that scalar law to machine precision
    grid = Grid(32, 32, 1.0)
    tg = TimeGrid(1.0, 400)
    spec = regular_spec()
    u = ControlFunction.constant(grid, tg, 2.0)
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
    oracle = integrate(system, project_initial(phi0, 8), u, spec, substeps=10)
    err = compare_to_pde(oracle, pde).max_phi_error
    report(2, "Galerkin-oracle equivalence", err <= 1e-3,
           f"max relative L2 phi difference = {err:.3e}")


def test_criterion_3_gradient_exactness():
    report_checks(3, "gradient exactness", ["sensitivity.gradient-fd-match"])


def test_criterion_4_linearization_order():
    report_checks(4, "second-order Taylor remainder", ["sensitivity.frechet-order"])


def test_criterion_5_adjoint_identity():
    report_checks(5, "adjoint transpose identity", ["sensitivity.adjoint-transpose-identity"])


def test_criterion_6_separation_and_xi_bound():
    report_checks(6, "separation from the singular endpoints",
                  ["state.separation-log-2d", "state.xi-bound"])


def test_criterion_7_continuous_dependence():
    report_checks(7, "continuous dependence on the control", ["state.continuous-dependence"])


def test_criterion_8_regularization_sweeps():
    # the registry's potentials checks: 1e4-point sweeps of monotonicity and
    # beta_eps(0) = 0, the Yosida Lipschitz and sandwich bounds, the constant
    # pi', the exponential derivative bound and the Young inequality
    report_checks(8, "regularization property sweeps",
                  [n for n in registered_checks() if n.startswith("potentials.")])


def test_criterion_9_descent_and_optimality():
    # final-stationarity certifies first-order optimality because P is the metric
    # projection, which projection-kkt checks for the derivative-ball step
    report_checks(9, "projected-gradient descent and optimality",
                  ["control.monotone-descent", "control.feasible-descent", "control.cost-decrease",
                   "control.projection-kkt", "control.optimizer-converged",
                   "control.final-stationarity"])


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
