import numpy as np
import pytest

from chopt.cost import CostSpec, cost_J
from chopt.potentials import PotentialSpec
from chopt.sensitivity import (
    TangentTrajectory,
    adjoint_identity_residual,
    control_inner,
    reduced_gradient,
    solve_adjoint,
    solve_linearized,
)
from chopt.spectral import Field, Grid, _idct
from chopt.state import ControlFunction, TimeGrid, default_stabilization, simulate

RNG = np.random.default_rng(77)


def make_setup(nx=8, nt=20, T=0.1, seed=0):
    rng = np.random.default_rng(seed)
    g = Grid(nx, nx, 1.0)
    tg = TimeGrid(T, nt)
    base = PotentialSpec("regular")
    spec = PotentialSpec("regular", stabilization=default_stabilization(base))
    phi0 = Field(g, 0.3 * np.tanh(rng.standard_normal(g.size)))
    u = ControlFunction(g, tg, 0.2 * rng.standard_normal((nt + 1, g.size)))
    traj = simulate(phi0, u, spec, tg, with_diagnostics=False)
    return g, tg, spec, u, traj


def random_direction(g, tg, seed=1, scale=1.0):
    rng = np.random.default_rng(seed)
    return ControlFunction(g, tg, scale * rng.standard_normal((tg.nt + 1, g.size)))


def tracking_cost(g, tg, traj, seed=2, alpha=(1.0, 1.0, 1.0, 1.0)):
    rng = np.random.default_rng(seed)
    return CostSpec(
        g,
        tg,
        alpha,
        phi_q=0.1 * rng.standard_normal(traj.phi.shape),
        phi_omega=0.1 * rng.standard_normal(g.size),
        mu_q=0.1 * rng.standard_normal(traj.mu.shape),
    )


# ---------------------------------------------------------------------------
# tangent solves

def test_zero_direction_gives_zero_tangent():
    g, tg, spec, u, traj = make_setup()
    h = ControlFunction.constant(g, tg, 0.0)
    tan = solve_linearized(traj, h, spec)
    assert np.max(np.abs(tan.xi)) == 0.0
    assert np.max(np.abs(tan.eta)) == 0.0


def test_tangent_is_linear_in_direction():
    g, tg, spec, u, traj = make_setup()
    h1 = random_direction(g, tg, seed=10)
    h2 = random_direction(g, tg, seed=11)
    combo = ControlFunction(g, tg, 2.0 * h1.slices - 0.5 * h2.slices)
    t1 = solve_linearized(traj, h1, spec)
    t2 = solve_linearized(traj, h2, spec)
    tc = solve_linearized(traj, combo, spec)
    assert np.allclose(tc.xi, 2.0 * t1.xi - 0.5 * t2.xi, atol=1e-12)
    assert np.allclose(tc.eta, 2.0 * t1.eta - 0.5 * t2.eta, atol=1e-12)


def test_tangent_matches_state_difference_to_second_order():
    g, tg, spec, u, traj = make_setup()
    h = random_direction(g, tg, seed=12)
    tan = solve_linearized(traj, h, spec)
    errs = []
    for lam in (1e-1, 5e-2, 2.5e-2):
        up = ControlFunction(g, tg, u.slices + lam * h.slices)
        pert = simulate(Field(g, traj.phi[0].copy()), up, spec, tg, with_diagnostics=False)
        diff = pert.phi - traj.phi - lam * tan.xi
        errs.append(np.max(np.abs(diff)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def test_tangent_requires_zero_initial_condition():
    g = Grid(4, 4, 1.0)
    tg = TimeGrid(0.1, 2)
    xi = np.zeros((3, g.size))
    xi[0, 0] = 1.0
    with pytest.raises(ValueError):
        TangentTrajectory(g, tg, xi, np.zeros_like(xi))


# ---------------------------------------------------------------------------
# adjoint solves

def test_adjoint_vanishes_without_tracking_terms():
    g, tg, spec, u, traj = make_setup()
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, 1.0))
    adj = solve_adjoint(traj, cost, spec)
    assert np.max(np.abs(adj.costate)) == 0.0


def test_adjoint_vanishes_when_terminal_target_is_met():
    g, tg, spec, u, traj = make_setup()
    cost = CostSpec(g, tg, (0.0, 1.0, 0.0, 0.0), phi_omega=traj.phi[-1].copy())
    adj = solve_adjoint(traj, cost, spec)
    assert np.max(np.abs(adj.costate)) < 1e-14


def test_terminal_costate_snapshot():
    g, tg, spec, u, traj = make_setup()
    # with only the terminal term, the sweep starts from its source alone
    cost = tracking_cost(g, tg, traj, alpha=(0.0, 2.0, 0.0, 1.0))
    adj = solve_adjoint(traj, cost, spec)
    expected = 2.0 * (traj.phi[-1] - cost.phi_omega)
    assert np.allclose(_idct(adj.costate[-1]), expected, atol=1e-14)


def test_adjoint_identity_machine_precision():
    g, tg, spec, u, traj = make_setup()
    cost = tracking_cost(g, tg, traj)
    adj = solve_adjoint(traj, cost, spec)
    scale = np.max(np.abs(adj.costate)) + 1.0
    for seed in range(5):
        h = random_direction(g, tg, seed=seed)
        tan = solve_linearized(traj, h, spec)
        res = adjoint_identity_residual(traj, tan, adj, h, cost)
        assert res <= 1e-10 * scale


# ---------------------------------------------------------------------------
# reduced gradient

def test_gradient_without_tracking_is_penalty_term():
    g, tg, spec, u, traj = make_setup()
    a4 = 0.7
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, a4))
    adj = solve_adjoint(traj, cost, spec)
    grad = reduced_gradient(traj, adj, u, cost)
    assert np.allclose(grad, a4 * u.slices, atol=1e-14)


def test_gradient_matches_finite_differences():
    g, tg, spec, u, traj = make_setup()
    cost = tracking_cost(g, tg, traj)
    adj = solve_adjoint(traj, cost, spec)
    grad = reduced_gradient(traj, adj, u, cost)
    J0 = cost_J(traj, u, cost)
    for seed in range(3):
        h = random_direction(g, tg, seed=100 + seed)
        predicted = control_inner(tg, g, grad, h.slices)
        eps = 1e-6
        up = ControlFunction(g, tg, u.slices + eps * h.slices)
        um = ControlFunction(g, tg, u.slices - eps * h.slices)
        Jp = cost_J(simulate(Field(g, traj.phi[0].copy()), up, spec, tg, with_diagnostics=False), up, cost)
        Jm = cost_J(simulate(Field(g, traj.phi[0].copy()), um, spec, tg, with_diagnostics=False), um, cost)
        fd = (Jp - Jm) / (2 * eps)
        assert abs(predicted - fd) <= 1e-6 * (1 + abs(fd))
    assert J0 > 0


def test_gradient_scales_with_cost():
    g, tg, spec, u, traj = make_setup()
    cost1 = tracking_cost(g, tg, traj, alpha=(1.0, 1.0, 1.0, 1.0))
    cost2 = tracking_cost(g, tg, traj, alpha=(2.0, 2.0, 2.0, 2.0))
    g1 = reduced_gradient(traj, solve_adjoint(traj, cost1, spec), u, cost1)
    g2 = reduced_gradient(traj, solve_adjoint(traj, cost2, spec), u, cost2)
    assert np.allclose(g2, 2.0 * g1, atol=1e-12)


def test_control_inner_constant_fields():
    g = Grid(8, 8, 2.0, 0.5)
    tg = TimeGrid(0.3, 6)
    a = np.full((tg.nt + 1, g.size), 2.0)
    b = np.full((tg.nt + 1, g.size), 1.5)
    # integral of 3.0 over Omega x (0, T) with |Omega| = 1 and T = 0.3
    assert control_inner(tg, g, a, b) == pytest.approx(0.9, rel=1e-12)
