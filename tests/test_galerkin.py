import math

import numpy as np
import pytest

from chopt.errors import BadModeCount, ShapeMismatch
from chopt.galerkin import (
    build_system,
    compare_to_pde,
    integrate,
    project_initial,
)
from chopt.potentials import PotentialSpec
from chopt.spectral import (
    Field,
    Grid,
    SpectralField,
    basis_mode,
    from_spectral,
    norm_H,
    to_spectral,
)
from chopt.state import ControlFunction, TimeGrid, default_stabilization, mean_closed_form, simulate

RNG = np.random.default_rng(321)


def regular_spec():
    base = PotentialSpec("regular")
    return PotentialSpec("regular", stabilization=default_stabilization(base))


def linear_spec():
    # obstacle variant inside [-1, 1]: beta_eps = 0, so G(y) = -2 c2 y (linear)
    return PotentialSpec("double_obstacle", c2=0.5, eps=0.5, reg_kind="yosida",
                         stabilization=0.0)


# ---------------------------------------------------------------------------
# system construction

def test_build_system_ordering():
    g = Grid(8, 8, 1.0)
    system = build_system(g, 10)
    assert system.lam[0] == 0.0
    assert np.all(np.diff(system.lam) >= 0)
    assert system.modes[0] == (0, 0)
    # lexicographic tie-break within equal eigenvalues
    assert system.modes[1] == (0, 1) and system.modes[2] == (1, 0)


def test_build_system_mode_count():
    g = Grid(4, 4, 1.0)
    with pytest.raises(BadModeCount):
        build_system(g, 0)
    with pytest.raises(BadModeCount):
        build_system(g, 17)
    with pytest.raises(BadModeCount):
        project_initial(Field(g, np.zeros(g.size)), 17)


@pytest.mark.parametrize("grid, n", [
    (Grid(16, 16, 1.0), 256),
    (Grid(8, 8, 1.0), 10),
    (Grid(16, 1, 2.0), 8),
    (Grid(6, 10, 1.5, 0.7), 30),
])
def test_build_system_equals_per_mode_reference(grid, n):
    # reference: sort (lambda, j, k) tuples, inverse-transform one unit
    # coefficient array per mode; the batched build must agree bit for bit
    lam = grid.eigenvalues()
    order = sorted((lam[j, k], j, k) for j in range(grid.nx) for k in range(grid.ny))[:n]
    basis = []
    for _, j, k in order:
        unit = np.zeros((grid.nx, grid.ny))
        unit[j, k] = 1.0
        basis.append(from_spectral(SpectralField(grid, unit)).values)
    system = build_system(grid, n)
    assert system.modes == tuple((j, k) for _, j, k in order)
    assert np.array_equal(system.lam, [l for l, _, _ in order])
    assert np.array_equal(system.basis, basis)
    phi0 = Field(grid, np.random.default_rng(7).standard_normal(grid.size))
    coeffs = to_spectral(phi0).coeffs
    assert np.array_equal(project_initial(phi0, n), [coeffs[j, k] for _, j, k in order])


def test_basis_rows_are_orthonormal():
    g = Grid(8, 8, 1.0)
    system = build_system(g, 6)
    gram = g.cell * system.basis @ system.basis.T
    assert np.allclose(gram, np.eye(6), atol=1e-12)


# ---------------------------------------------------------------------------
# initial projection

def test_project_initial_eigenmode():
    g = Grid(8, 8, 1.0)
    y0 = project_initial(basis_mode(g, 1, 0), 4)
    expected = np.zeros(4)
    expected[2] = 1.0  # (1,0) comes after (0,0), (0,1) in the ordering
    assert np.allclose(y0, expected, atol=1e-12)


def test_project_initial_constant_n1():
    g = Grid(8, 8, 2.0, 0.5)
    phi0 = Field(g, np.full(g.size, 0.7))
    y0 = project_initial(phi0, 1)
    assert y0[0] == pytest.approx(0.7 * math.sqrt(g.volume), rel=1e-12)
    system = build_system(g, 1)
    assert np.allclose(system.reconstruct(y0), 0.7, atol=1e-12)


def test_project_initial_contracts_norm():
    g = Grid(8, 8, 1.0)
    phi0 = Field(g, RNG.standard_normal(g.size))
    for n in (1, 4, 16):
        y0 = project_initial(phi0, n)
        assert np.linalg.norm(y0) <= norm_H(phi0) + 1e-12


# ---------------------------------------------------------------------------
# integration

def test_integrate_n1_matches_mean_closed_form():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 10)
    spec = regular_spec()
    ubars = RNG.uniform(-0.5, 0.5, tg.nt + 1)
    u = ControlFunction(g, tg, np.repeat(ubars[:, None], g.size, axis=1))
    system = build_system(g, 1)
    y0 = project_initial(Field(g, np.full(g.size, 0.3)), 1)
    traj = integrate(system, y0, u, spec, tg, substeps=1000)
    sqrt_vol = math.sqrt(g.volume)
    for n in range(tg.nt + 1):
        exact = mean_closed_form(0.3, ubars, tg.tau, n * tg.tau)
        assert abs(traj.y[n, 0] / sqrt_vol - exact) < 1e-10


def test_integrate_n1_mean_bound():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(1.0, 20)
    spec = regular_spec()
    u = ControlFunction.constant(g, tg, 0.4, M=0.4)
    system = build_system(g, 1)
    y0 = project_initial(Field(g, np.full(g.size, 0.2)), 1)
    traj = integrate(system, y0, u, spec, tg, substeps=10)
    means = traj.y[:, 0] / math.sqrt(g.volume)
    assert np.all(means >= 0.2 - 0.4 - 1e-10)
    assert np.all(means <= 0.2 + 0.4 + 1e-10)


def test_integrate_linear_mode_exponential_decay():
    g = Grid(8, 8, 1.0)
    spec = linear_spec()
    tg = TimeGrid(0.05, 10)
    u = ControlFunction.constant(g, tg, 0.0)
    system = build_system(g, 4)
    lam = system.lam[2]  # the (1, 0) mode
    y0 = np.zeros(4)
    y0[2] = 0.01
    traj = integrate(system, y0, u, spec, tg, substeps=200)
    # y' = -(1 + lam^2 - 2 c2 lam) y with c2 = 0.5
    rate = 1.0 + lam**2 - lam
    for n in range(tg.nt + 1):
        exact = 0.01 * math.exp(-rate * n * tg.tau)
        assert abs(traj.y[n, 2] - exact) < 1e-8
    # the other modes stay identically zero under linear dynamics
    assert np.max(np.abs(traj.y[:, [0, 1, 3]])) < 1e-12


def test_integrate_shape_checks():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.1, 5)
    system = build_system(g, 3)
    u = ControlFunction.constant(g, tg, 0.0)
    with pytest.raises(ShapeMismatch):
        integrate(system, np.zeros(4), u, regular_spec(), tg)
    g2 = Grid(4, 4, 1.0)
    u2 = ControlFunction.constant(g2, tg, 0.0)
    with pytest.raises(ShapeMismatch):
        integrate(system, np.zeros(3), u2, regular_spec(), tg)


# ---------------------------------------------------------------------------
# cross-solver comparison

def test_compare_linear_band_limited():
    # slow 1-d modes and a tiny horizon: both solvers reduce to the same
    # diagonal recurrence up to integrator error
    g = Grid(8, 1, 100.0)
    spec = linear_spec()
    tg = TimeGrid(0.002, 200)
    u = ControlFunction.constant(g, tg, 0.0)
    phi0 = Field(g, 0.05 + 0.01 * basis_mode(g, 1, 0).values)
    pde = simulate(phi0, u, spec, tg, with_diagnostics=False)
    system = build_system(g, 4)
    y0 = project_initial(phi0, 4)
    oracle = integrate(system, y0, u, spec, tg, substeps=2)
    report = compare_to_pde(oracle, pde)
    assert report.max_phi_error <= 1e-6


def test_compare_stationary():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.2, 20)
    spec = regular_spec()
    phi0 = Field(g, np.ones(g.size))
    u = ControlFunction.constant(g, tg, 1.0)
    pde = simulate(phi0, u, spec, tg, with_diagnostics=False)
    system = build_system(g, 4)
    oracle = integrate(system, project_initial(phi0, 4), u, spec, tg, substeps=5)
    report = compare_to_pde(oracle, pde)
    # mu vanishes at this fixed point, so only the phi comparison is meaningful
    assert report.max_phi_error <= 1e-10


def test_compare_mismatched_grids():
    g = Grid(8, 8, 1.0)
    g2 = Grid(4, 4, 1.0)
    tg = TimeGrid(0.1, 5)
    spec = regular_spec()
    u = ControlFunction.constant(g, tg, 0.0)
    u2 = ControlFunction.constant(g2, tg, 0.0)
    pde = simulate(Field(g2, np.zeros(g2.size)), u2, spec, tg, with_diagnostics=False)
    system = build_system(g, 3)
    oracle = integrate(system, np.zeros(3), u, spec, tg)
    with pytest.raises(ShapeMismatch):
        compare_to_pde(oracle, pde)
