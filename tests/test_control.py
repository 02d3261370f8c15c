from importlib import resources

import numpy as np
import pytest

from chopt import control, verify
from chopt.cli import _build_cost
from chopt.config import build_control, parse_config
from chopt.control import (
    ControlProblem,
    OptimizerConfig,
    optimize,
    project_Uad,
)
from chopt.cost import CostSpec, cost_J
from chopt.errors import ConfigurationError, ConvergenceFailure
from chopt.potentials import PotentialSpec
from chopt.spectral import Field, Grid
from chopt.state import ControlFunction, TimeGrid, default_stabilization, simulate
from chopt.verify import _opt_setup, run_checks

RNG = np.random.default_rng(55)


def regular_spec():
    base = PotentialSpec("regular")
    return PotentialSpec("regular", stabilization=default_stabilization(base))


def small_problem(nx=8, nt=20, T=0.1, M=0.5, Mprime=10.0, seed=0):
    rng = np.random.default_rng(seed)
    g = Grid(nx, nx, 1.0)
    tg = TimeGrid(T, nt)
    spec = regular_spec()
    phi0 = Field(g, 0.3 * np.tanh(rng.standard_normal(g.size)))
    problem = ControlProblem(phi0, spec, tg, M, Mprime)
    return g, tg, spec, problem


# ---------------------------------------------------------------------------
# cost functional

def test_cost_control_penalty_value():
    # J = a4/2 |u|^2_Q = 1/2 * |Omega| * T for u == 1 on the unit square
    g, tg, spec, problem = small_problem(T=0.4, M=2.0)
    u = ControlFunction.constant(g, tg, 1.0)
    traj = simulate(problem.phi0, u, spec, tg, check_compatibility=False,
                    with_diagnostics=False)
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, 1.0))
    assert cost_J(traj, cost) == pytest.approx(0.2, rel=1e-12)


def test_cost_terminal_mismatch_value():
    g, tg, spec, problem = small_problem()
    u = ControlFunction.constant(g, tg, 0.0)
    traj = simulate(problem.phi0, u, spec, tg, with_diagnostics=False)
    cost = CostSpec(g, tg, (0.0, 1.0, 0.0, 0.0),
                    phi_omega=traj.phi[-1] - 2.0)
    # terminal misfit is the constant 2, so J = 1/2 * 4 * |Omega| = 2
    assert cost_J(traj, cost) == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# projection

def test_projection_keeps_feasible_points():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 20)
    t = np.linspace(0.0, 0.5, tg.nt + 1)
    slices = np.repeat(0.3 * np.sin(4 * t)[:, None], g.size, axis=1)
    out = project_Uad(g, tg, slices, M=0.5, Mprime=10.0)
    assert np.max(np.abs(out.slices - slices)) < 1e-12


def test_projection_clamps_constant_overshoot():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 10)
    slices = np.full((tg.nt + 1, g.size), 3.0)
    out = project_Uad(g, tg, slices, M=1.0, Mprime=5.0)
    assert np.allclose(out.slices, 1.0, atol=1e-12)


def test_projection_flat_constraint_is_clamped_time_mean():
    # with Mprime = 0 the admissible set is the constant-in-time box; the
    # KKT conditions give clamp(time-mean), which beats mean(clamp) here; the
    # mean is trapezoid-weighted, 0.25 against 0.4 unweighted for the second
    g = Grid(4, 4, 1.0)
    tg = TimeGrid(1.0, 4)
    for profile in ([-3.0, 0.0, 0.0, 0.0, 3.0], [3.0, 0.0, 0.0, 0.0, -1.0]):
        slices = np.repeat(np.array(profile)[:, None], g.size, axis=1)
        out = project_Uad(g, tg, slices, M=1.0, Mprime=0.0)
        expected = np.clip(np.average(profile, weights=[0.5, 1.0, 1.0, 1.0, 0.5]), -1.0, 1.0)
        assert np.allclose(out.slices, expected, atol=1e-9)
        assert out.dt_l2() <= 1e-9


def test_projection_output_is_feasible():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 20)
    slices = 5.0 * RNG.standard_normal((tg.nt + 1, g.size))
    out = project_Uad(g, tg, slices, M=0.7, Mprime=1.5)
    assert out.linf() <= 0.7 + 1e-9
    assert out.dt_l2() <= 1.5 + 1e-9


def test_projection_stays_on_a_tiny_derivative_ball():
    # at M' = 1e-6 the multiplier is about 1e10.  P keeps the trapezoid time mean
    # (1^T D^T D = 0), which pivots w + 2m - m^2 / pivot, cancelling w against m,
    # moved by about 1e-8 relative
    g = Grid(16, 16, 1.0)
    tg = TimeGrid(1.0, 500)
    slices = 3.0 + RNG.standard_normal((tg.nt + 1, g.size))
    out = project_Uad(g, tg, slices, M=np.inf, Mprime=1e-6)
    assert abs(out.dt_l2() / 1e-6 - 1.0) <= 1e-6
    w = np.r_[0.5, np.ones(tg.nt - 1), 0.5]
    mean = np.average(slices, axis=0, weights=w)
    drift = np.average(out.slices, axis=0, weights=w) - mean
    assert np.max(np.abs(drift)) <= 1e-12 * np.max(np.abs(mean))


def test_project_Uad_checks_its_output(monkeypatch):
    # a projection that misjudges the derivative norm returns the clip, which misses
    # the bound; the output check measures it through ControlFunction.dt_l2
    monkeypatch.setattr(control, "_dt_norm", lambda grid, tg, d: 0.0)
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 20)
    slices = 5.0 * RNG.standard_normal((tg.nt + 1, g.size))
    with pytest.raises(ConvergenceFailure, match="derivative bound"):
        project_Uad(g, tg, slices, M=0.7, Mprime=1.5)


def _ball_step(g, tg, y, Mprime):
    """The control_inner projection onto ||d_t u|| <= M', from a dense eigendecomposition of
    W^(-1/2) L W^(-1/2) and Newton's method on the secular equation (Moré & Sorensen 1983)."""
    sw = np.sqrt(np.r_[0.5, np.ones(tg.nt - 1), 0.5])
    d = np.diff(np.eye(tg.nt + 1), axis=0)
    lam, vecs = np.linalg.eigh(d.T @ d / np.outer(sw, sw))
    lam[0] = 0.0
    z = vecs.T @ (sw[:, None] * y)
    zz = g.cell / tg.tau * np.sum(z * z, axis=1)
    if np.dot(lam, zz) <= Mprime**2:
        return y.copy()
    m = 0.0
    for _ in range(100):  # from m = 0 Newton rises monotonically to the root
        r = 1.0 / (1.0 + m * lam)
        dn2 = np.dot(lam * r * r, zz)
        dm = dn2 * (np.sqrt(dn2) / Mprime - 1.0) / np.dot(lam * lam * r**3, zz)
        m += dm
        if dm <= 1e-16 * m:
            break
    return vecs @ (z / (1.0 + m * lam)[:, None]) / sw[:, None]


def _dykstra(g, tg, x, M, Mprime, rounds, tol=0.0):
    """Dykstra's alternation of the box clip and the ball step (Boyle & Dykstra 1986), stopped
    after ``rounds`` rounds or at a max-norm increment <= tol, then clipped."""
    p, q = np.zeros_like(x), np.zeros_like(x)
    for _ in range(rounds):
        y = np.clip(x + p, -M, M)
        p = x + p - y
        x_new = _ball_step(g, tg, y + q, Mprime)
        q = y + q - x_new
        x, dx = x_new, np.max(np.abs(x_new - x))
        if dx <= tol:
            break
    return np.clip(x, -M, M)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("M, Mprime", [(1.0, 0.5), (0.5, 2.0)])
def test_projection_matches_a_converged_dykstra(seed, M, Mprime):
    # both bounds bind; Dykstra converges to P, slowly (hundreds to thousands of rounds)
    g, tg = Grid(3, 2, 1.0), TimeGrid(0.3, 8)
    x = 2.0 * np.random.default_rng(seed).standard_normal((tg.nt + 1, g.size))
    reference = _dykstra(g, tg, x, M, Mprime, 100_000, tol=1e-14)
    u = project_Uad(g, tg, x, M, Mprime).slices
    assert np.max(np.abs(np.clip(x, -M, M) - u)) > 0.1
    assert np.max(np.abs(u - reference)) <= 1e-11


@pytest.mark.parametrize("rounds", [1, 50])
def test_projection_kkt_fails_on_a_truncated_dykstra(monkeypatch, rounds):
    monkeypatch.setattr(verify, "project_Uad", lambda g, tg, x, M, Mprime: ControlFunction(
        g, tg, _dykstra(g, tg, x, M, Mprime, rounds)))
    results = [run_checks(["control.projection-kkt"], seed)[0] for seed in range(12)]
    assert all(np.isfinite(r.measured) and not r.passed for r in results), results


# ---------------------------------------------------------------------------
# optimizer

def test_optimize_pure_penalty_drives_control_to_zero():
    g, tg, spec, problem = small_problem()
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, 1.0))
    u0 = ControlFunction.constant(g, tg, 0.4)
    result = optimize(u0, problem, cost, OptimizerConfig(tol=1e-10, max_iters=100))
    assert result.converged
    assert result.u.linf() < 1e-8
    assert result.J < 1e-16


def inverse_crime():
    """A small problem whose target is the state of a random feasible control."""
    g, tg, spec, problem = small_problem(nt=30, T=0.3)
    rng = np.random.default_rng(9)
    u_true = project_Uad(
        g, tg, 0.3 * rng.standard_normal((tg.nt + 1, g.size)),
        problem.M, problem.Mprime)
    target = simulate(problem.phi0, u_true, spec, tg, with_diagnostics=False)
    cost = CostSpec(g, tg, (1.0, 1.0, 0.0, 1e-2), phi_q=target.phi.copy(),
                    phi_omega=target.phi[-1].copy())
    return g, tg, problem, cost, u_true, target


def test_optimize_monotone_descent_and_inverse_crime():
    g, tg, problem, cost, u_true, target = inverse_crime()
    u0 = ControlFunction.constant(g, tg, 0.0)
    result = optimize(u0, problem, cost, OptimizerConfig(max_iters=60, tol=1e-8))
    Js = [row["J"] for row in result.history]
    assert all(b <= a + 1e-14 for a, b in zip(Js, Js[1:]))
    traj_true, J_true = (target, cost_J(target, cost))
    assert result.J <= J_true + 1e-12
    assert result.history[-1]["stationarity"] < result.history[0]["stationarity"]


@pytest.mark.parametrize("descriptor", ["constant:0.4", "zero"])
def test_optimize_from_a_read_only_constant_matches_a_writeable_copy(descriptor):
    # a constant control is a read-only broadcast of one row; the optimizer
    # reads it only through the projection, so the run is the same bits
    g, tg, problem, cost, _, _ = inverse_crime()
    u0 = build_control(g, tg, descriptor, problem.M, np.random.default_rng(0))
    assert not u0.slices.flags.writeable
    config = OptimizerConfig(max_iters=20, tol=1e-8)
    view = optimize(u0, problem, cost, config)
    copy = optimize(ControlFunction(g, tg, u0.slices.copy()), problem, cost, config)
    assert view.iterations > 1
    assert view.u.slices.tobytes() == copy.u.slices.tobytes()
    assert view.history == copy.history


def test_optimize_projects_infeasible_start():
    g, tg, spec, problem = small_problem()
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, 1.0))
    u0 = ControlFunction(g, tg, np.full((tg.nt + 1, g.size), 5.0))
    result = optimize(u0, problem, cost, OptimizerConfig(max_iters=5))
    for row in result.history:
        assert row["feasibility_linf"] <= 1e-9
        assert row["feasibility_h1"] <= 1e-9


def test_optimize_rejects_incompatible_initial_data():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.1, 10)
    spec = PotentialSpec("logarithmic", c1=2.0, eps=1e-3,
                         reg_kind="piecewise_log", stabilization=5.0)
    problem = ControlProblem(Field(g, np.zeros(g.size)), spec, tg, M=2.0,
                             Mprime=10.0)
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, 1.0))
    u0 = ControlFunction.constant(g, tg, 0.0)
    with pytest.raises(ConfigurationError):
        optimize(u0, problem, cost)


def test_optimize_refuses_unbounded_box_for_singular_potential():
    # phibar0 +/- M leaves D(beta) for M = inf, whatever the initial control
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.1, 10)
    spec = PotentialSpec("logarithmic", c1=2.0, eps=1e-3,
                         reg_kind="piecewise_log", stabilization=5.0)
    problem = ControlProblem(Field(g, np.zeros(g.size)), spec, tg, np.inf, np.inf)
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, 1.0))
    u0 = ControlFunction.constant(g, tg, 0.0)
    with pytest.raises(ConfigurationError, match="incompatible"):
        optimize(u0, problem, cost)


@pytest.mark.parametrize("make", [
    lambda g, tg: OptimizerConfig(tol=np.nan),
    lambda g, tg: OptimizerConfig(initial_step=np.inf),
    lambda g, tg: CostSpec(g, tg, (np.nan, 0.0, 0.0, 1.0)),
    lambda g, tg: CostSpec(g, tg, (1.0, np.inf, 0.0, 0.0)),
], ids=["tol-nan", "initial_step-inf", "alpha1-nan", "alpha2-inf"])
def test_settings_must_be_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make(Grid(4, 4, 1.0), TimeGrid(0.1, 2))


def test_optimize_reports_stall(monkeypatch):
    # with no derivative bound the first trial's projection is its clip; at M' = 10 the
    # clip's ||d_t u|| is 35, and the projection of that trial fails the Armijo test
    g, tg, spec, problem = small_problem(Mprime=np.inf)
    rng = np.random.default_rng(3)
    target = 0.2 * rng.standard_normal((tg.nt + 1, g.size))
    cost = CostSpec(g, tg, (1.0, 0.0, 0.0, 1e-6), phi_q=target)
    u0 = ControlFunction.constant(g, tg, 0.0)
    monkeypatch.setattr(control, "MAX_BACKTRACKS", 1)
    monkeypatch.setattr(control, "BACKTRACK", 1.0 - 1e-12)
    config = OptimizerConfig(initial_step=1e6, max_iters=3)
    result = optimize(u0, problem, cost, config)
    assert result.stalled
    assert not result.converged
    # the first trial lands on the box and is accepted; the second is not
    assert result.iterations == 2


def test_optimize_inverse_crime_preset_budget():
    # the BB trial step reaches the packaged preset's optimum in a few
    # iterations; this bounds the forward solves an optimize run costs
    cfg = parse_config(resources.files("chopt").joinpath("presets").joinpath("inverse-crime.cfg"))
    problem = ControlProblem(cfg.phi0, cfg.spec, cfg.timegrid, cfg.M, cfg.Mprime)
    result = optimize(cfg.u0, problem, _build_cost(cfg), cfg.optimizer)
    assert result.converged
    assert result.iterations <= 30
    assert result.J == pytest.approx(1.3103e-6, rel=1e-3)


@pytest.mark.parametrize("seed", range(8))
def test_optimize_active_derivative_bound_ends_before_the_budget(seed):
    # with M' = 0.1 the derivative ball binds; the run must converge within its budget
    grid, tg, spec, phi0, problem, cost, u0, rng = _opt_setup(seed, 260)
    problem = ControlProblem(phi0, spec, tg, problem.M, 0.1)
    config = OptimizerConfig(max_iters=300, tol=1e-8)
    result = optimize(u0, problem, cost, config)
    assert result.converged
    assert result.iterations < config.max_iters


def test_optimize_keeps_last_step_without_curvature(monkeypatch):
    # J = |u|^2 / 2 with a scripted gradient: the accepted step moves u from
    # 0.4 to 0 (s < 0) while the gradient grows (y > 0), so <s, y> < 0 and the
    # second line search starts at the last accepted step, not at BB
    g, tg, spec, problem = small_problem(nx=4, nt=4)
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, 1.0))
    u0 = ControlFunction.constant(g, tg, 0.4)
    levels = iter([0.4, 0.6])
    monkeypatch.setattr(control, "reduced_gradient",
                        lambda traj, adj, cost: np.full(traj.u.slices.shape, next(levels)))
    monkeypatch.setattr(control, "MAX_BACKTRACKS", 3)
    config = OptimizerConfig(initial_step=2.0, max_iters=2)
    result = optimize(u0, problem, cost, config)
    # step 2 overshoots to -0.4 (no decrease); step 1 lands on 0
    assert [row["step"] for row in result.history] == [2.0, 1.0]
    assert result.stalled


def test_optimize_starts_line_search_at_bb_step():
    # J = a4 |u|^2 / 2 has gradient a4 u, so the BB step is exactly 1 / a4
    g, tg, spec, problem = small_problem(nx=4, nt=4)
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, 4.0))
    u0 = ControlFunction.constant(g, tg, 0.4)
    result = optimize(u0, problem, cost, OptimizerConfig(initial_step=0.1, tol=1e-10))
    assert result.history[0]["step"] == 0.1
    assert result.history[1]["step"] == pytest.approx(0.25, rel=1e-12)
    # iteration 2 lands on u = 0, iteration 3 confirms it
    assert result.converged
    assert result.iterations == 3

