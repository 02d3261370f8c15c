import numpy as np
import pytest

from chopt.cost import CostSpec, cost_J
from chopt.potentials import PotentialSpec
from chopt.sensitivity import (
    TangentTrajectory,
    _cost_sources,
    reduced_gradient,
    solve_adjoint,
    solve_linearized,
)
from chopt.spectral import Field, Grid, _idct
from chopt.state import (
    ControlFunction,
    StateTrajectory,
    TimeGrid,
    control_inner,
    default_stabilization,
    simulate,
)

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
    tan = solve_linearized(traj, h)
    assert np.max(np.abs(tan.xi)) == 0.0
    assert np.max(np.abs(tan.eta)) == 0.0


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
    adj = solve_adjoint(traj, cost)
    assert np.max(np.abs(adj.costate)) == 0.0


def test_adjoint_vanishes_when_terminal_target_is_met():
    g, tg, spec, u, traj = make_setup()
    cost = CostSpec(g, tg, (0.0, 1.0, 0.0, 0.0), phi_omega=traj.phi[-1].copy())
    adj = solve_adjoint(traj, cost)
    assert np.max(np.abs(adj.costate)) < 1e-14


def test_terminal_costate_snapshot():
    g, tg, spec, u, traj = make_setup()
    # with only the terminal term, the sweep starts from its source alone
    cost = tracking_cost(g, tg, traj, alpha=(0.0, 2.0, 0.0, 1.0))
    adj = solve_adjoint(traj, cost)
    expected = 2.0 * (traj.phi[-1] - cost.phi_omega)
    assert np.allclose(_idct(adj.costate[-1]), expected, atol=1e-14)


def test_cost_sources_are_the_derivative_of_cost_J():
    # J is quadratic in (phi, mu), so a central difference of cost_J is exact
    # up to roundoff and must equal cell * <s, delta> for the adjoint's sources
    rng = np.random.default_rng(9)
    g, tg = Grid(8, 8, 1.0, 0.7), TimeGrid(0.3, 20)
    shape = (tg.nt + 1, g.size)
    phi, mu = rng.standard_normal(shape), rng.standard_normal(shape)
    u = ControlFunction(g, tg, rng.standard_normal(shape))
    traj = StateTrajectory(u, PotentialSpec("regular"), phi, mu)
    cost = CostSpec(g, tg, (0.7, 1.3, 0.4, 0.9), phi_q=rng.standard_normal(shape),
                    phi_omega=rng.standard_normal(g.size), mu_q=rng.standard_normal(shape))
    s_phi, s_mu = _cost_sources(traj, cost)
    for name, source in (("phi", s_phi), ("mu", s_mu)):
        delta = rng.standard_normal(shape)
        step = 0.5

        def J(sign):
            fields = {"phi": traj.phi, "mu": traj.mu}
            fields[name] = fields[name] + sign * step * delta
            moved = StateTrajectory(u, traj.spec, fields["phi"], fields["mu"])
            return cost_J(moved, cost)

        fd = (J(1.0) - J(-1.0)) / (2.0 * step)
        exact = g.cell * float(np.sum(source * delta))
        assert abs(fd - exact) <= 1e-12 * abs(exact)


# ---------------------------------------------------------------------------
# reduced gradient

def test_gradient_without_tracking_is_penalty_term():
    g, tg, spec, u, traj = make_setup()
    a4 = 0.7
    cost = CostSpec(g, tg, (0.0, 0.0, 0.0, a4))
    adj = solve_adjoint(traj, cost)
    grad = reduced_gradient(traj, adj, cost)
    assert np.allclose(grad, a4 * u.slices, atol=1e-14)


def test_gradient_scales_with_cost():
    g, tg, spec, u, traj = make_setup()
    cost1 = tracking_cost(g, tg, traj, alpha=(1.0, 1.0, 1.0, 1.0))
    cost2 = tracking_cost(g, tg, traj, alpha=(2.0, 2.0, 2.0, 2.0))
    g1 = reduced_gradient(traj, solve_adjoint(traj, cost1), cost1)
    g2 = reduced_gradient(traj, solve_adjoint(traj, cost2), cost2)
    assert np.allclose(g2, 2.0 * g1, atol=1e-12)


def test_control_inner_constant_fields():
    g = Grid(8, 8, 2.0, 0.5)
    tg = TimeGrid(0.3, 6)
    a = np.full((tg.nt + 1, g.size), 2.0)
    b = np.full((tg.nt + 1, g.size), 1.5)
    # integral of 3.0 over Omega x (0, T) with |Omega| = 1 and T = 0.3
    assert control_inner(tg, g, a, b) == pytest.approx(0.9, rel=1e-12)
