import math
import tracemalloc

import numpy as np
import pytest

from chopt import galerkin
from chopt.cli import run_oracle_compare
from chopt.config import band_limited_field, parse_config
from chopt.errors import BadModeCount, NewtonFailure, ShapeMismatch
from chopt.galerkin import (
    build_system,
    compare_to_pde,
    integrate,
)
from chopt.potentials import PotentialSpec
from chopt.spectral import (
    Field,
    Grid,
    SpectralField,
    from_spectral,
    lowest_modes,
    to_spectral,
)
from chopt.state import ControlFunction, TimeGrid, default_stabilization, mean_closed_form, simulate

RNG = np.random.default_rng(321)


def regular_spec():
    base = PotentialSpec("regular")
    return PotentialSpec("regular", stabilization=default_stabilization(base))


def log_yosida_spec():
    return PotentialSpec("logarithmic", c1=2.0, eps=1e-2, reg_kind="yosida", stabilization=17.0)


def linear_spec():
    # obstacle variant inside [-1, 1]: beta_eps = 0, so G(y) = -2 c2 y (linear)
    return PotentialSpec("double_obstacle", c2=0.5, eps=0.5, reg_kind="yosida",
                         stabilization=0.0)


def reference_order(grid, n):
    """The n lowest (lambda, j, k), sorted by eigenvalue and then by (j, k)."""
    lam = grid.eigenvalues()
    return sorted((lam[j, k], j, k) for j in range(grid.nx) for k in range(grid.ny))[:n]


def unit_mode(grid, j, k):
    """The sampled eigenfunction e_jk: one unit coefficient array, transformed back."""
    unit = np.zeros((grid.nx, grid.ny))
    unit[j, k] = 1.0
    return from_spectral(SpectralField(grid, unit)).values


# ---------------------------------------------------------------------------
# system construction

def test_build_system_ordering():
    g = Grid(8, 8, 1.0)
    system = build_system(g, 10)
    assert system.lam[0] == 0.0
    assert np.all(np.diff(system.lam) >= 0)
    modes = [divmod(place, g.ny) for place in lowest_modes(g, 10).tolist()]
    assert modes[0] == (0, 0)
    # lexicographic tie-break within equal eigenvalues
    assert modes[1] == (0, 1) and modes[2] == (1, 0)


def test_build_system_mode_count():
    g = Grid(4, 4, 1.0)
    with pytest.raises(BadModeCount):
        build_system(g, 0)
    with pytest.raises(BadModeCount):
        build_system(g, 17)
    # the band-limited descriptors pick their modes through the same check
    with pytest.raises(BadModeCount, match="mode count 17 outside 1..16"):
        lowest_modes(g, 17)
    with pytest.raises(BadModeCount, match="mode count 0 outside 1..16"):
        band_limited_field(g, 0.5, 0, np.random.default_rng(0))


@pytest.mark.parametrize("grid, n", [
    (Grid(16, 16, 1.0), 256),
    (Grid(8, 8, 1.0), 10),
    (Grid(16, 1, 2.0), 8),
    (Grid(6, 10, 1.5, 0.7), 30),
    (Grid(17, 17, 1.0), 40),
])
def test_build_system_equals_per_mode_reference(grid, n):
    # reference: sort (lambda, j, k) tuples, inverse-transform one unit
    # coefficient array per mode; the batched build must agree bit for bit
    order = reference_order(grid, n)
    basis = [unit_mode(grid, j, k) for _, j, k in order]
    system = build_system(grid, n)
    assert lowest_modes(grid, n).tolist() == [j * grid.ny + k for _, j, k in order]
    assert system.n == n and np.array_equal(system.modes, lowest_modes(grid, n))
    assert np.array_equal(system.lam, [l for l, _, _ in order])
    assert np.array_equal(system.reconstruct(np.eye(n)), basis)
    phi0 = Field(grid, np.random.default_rng(7).standard_normal(grid.size))
    coeffs = to_spectral(phi0).coeffs
    assert np.array_equal(system.project(phi0.values), [coeffs[j, k] for _, j, k in order])


def test_basis_rows_are_orthonormal():
    g = Grid(8, 8, 1.0)
    system = build_system(g, 6)
    basis = system.reconstruct(np.eye(6))
    gram = g.cell * basis @ basis.T
    assert np.allclose(gram, np.eye(6), atol=1e-12)


@pytest.mark.parametrize("grid, n", [
    (Grid(16, 16, 1.0), 256),
    (Grid(8, 8, 1.0), 10),
    (Grid(17, 17, 1.0), 40),
    (Grid(6, 10, 1.5, 0.7), 30),
    (Grid(16, 1, 2.0), 8),
])
def test_mode_maps_match_the_dense_basis(grid, n):
    # project and reconstruct go through the transforms; the sampled basis
    # they replace gives the same maps as dense products
    system = build_system(grid, n)
    basis = np.array([unit_mode(grid, j, k) for _, j, k in reference_order(grid, n)])
    rng = np.random.default_rng(11)
    values = rng.standard_normal((3, grid.size))
    coeffs = rng.standard_normal((3, n))
    projected = system.project(values)
    dense = grid.cell * values @ basis.T
    assert np.max(np.abs(projected - dense)) <= 1e-14 * np.max(np.abs(dense))
    nodal = system.reconstruct(coeffs)
    dense = coeffs @ basis
    assert np.max(np.abs(nodal - dense)) <= 1e-14 * np.max(np.abs(dense))
    for row in range(3):
        assert np.array_equal(system.project(values[row]), projected[row])
        assert np.array_equal(system.reconstruct(coeffs[row]), nodal[row])


def test_build_system_holds_no_dense_basis():
    # a complete 32x32 basis would be 1024 x 1024 doubles, 8 MB
    tracemalloc.start()
    try:
        build_system(Grid(32, 32, 1.0), 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def dense_curvature(system, spec, y):
    """The projected curvature P diag(f''(phi)) P^T through the sampled basis."""
    curvature = galerkin.potentials.f_d2_vec(spec, system.reconstruct(y))
    return system.project(system.reconstruct(np.eye(system.n)) * curvature)


@pytest.mark.parametrize("grid, n", [
    (Grid(16, 16, 1.0), 256),
    (Grid(17, 9, 1.3, 0.7), 60),
])
def test_curvature_diagonal_is_the_dense_diagonal(grid, n):
    # the chord matrix's curvature term is the exact Galerkin diagonal, read
    # from two products with the squared cosine matrices
    system = build_system(grid, n)
    spec = log_yosida_spec()
    y = system.project(0.9 * np.cos(np.linspace(0.0, 5.0, grid.size)))
    diag = galerkin._curvature_diagonal(system, spec, y)
    dense = np.diag(dense_curvature(system, spec, y))
    assert np.max(np.abs(diag - dense)) <= 1e-13 * np.max(np.abs(dense))


# ---------------------------------------------------------------------------
# initial projection

def test_project_initial_eigenmode():
    g = Grid(8, 8, 1.0)
    y0 = build_system(g, 4).project(unit_mode(g, 1, 0))
    expected = np.zeros(4)
    expected[2] = 1.0  # (1,0) comes after (0,0), (0,1) in the ordering
    assert np.allclose(y0, expected, atol=1e-12)


def test_project_initial_constant_n1():
    g = Grid(8, 8, 2.0, 0.5)
    phi0 = Field(g, np.full(g.size, 0.7))
    system = build_system(g, 1)
    y0 = system.project(phi0.values)
    assert y0[0] == pytest.approx(0.7 * math.sqrt(g.volume), rel=1e-12)
    assert np.allclose(system.reconstruct(y0), 0.7, atol=1e-12)


def test_project_initial_contracts_norm():
    g = Grid(8, 8, 1.0)
    phi0 = Field(g, RNG.standard_normal(g.size))
    for n in (1, 4, 16):
        y0 = build_system(g, n).project(phi0.values)
        assert np.linalg.norm(y0) <= np.sqrt(g.cell) * np.linalg.norm(phi0.values) + 1e-12


# ---------------------------------------------------------------------------
# integration

def test_integrate_n1_matches_mean_closed_form():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 10)
    spec = regular_spec()
    ubars = RNG.uniform(-0.5, 0.5, tg.nt + 1)
    u = ControlFunction(g, tg, np.repeat(ubars[:, None], g.size, axis=1))
    system = build_system(g, 1)
    y0 = system.project(np.full(g.size, 0.3))
    traj = integrate(system, y0, u, spec, substeps=1000)
    sqrt_vol = math.sqrt(g.volume)
    for n in range(tg.nt + 1):
        exact = mean_closed_form(0.3, ubars, tg.tau, n * tg.tau)
        assert abs(traj.y[n, 0] / sqrt_vol - exact) < 1e-10


def test_integrate_n1_mean_bound():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(1.0, 20)
    spec = regular_spec()
    u = ControlFunction.constant(g, tg, 0.4)
    system = build_system(g, 1)
    y0 = system.project(np.full(g.size, 0.2))
    traj = integrate(system, y0, u, spec, substeps=10)
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
    traj = integrate(system, y0, u, spec, substeps=200)
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
        integrate(system, np.zeros(4), u, regular_spec())
    g2 = Grid(4, 4, 1.0)
    u2 = ControlFunction.constant(g2, tg, 0.0)
    with pytest.raises(ShapeMismatch):
        integrate(system, np.zeros(3), u2, regular_spec())


@pytest.mark.parametrize("substeps", [0, -1])
def test_integrate_rejects_nonpositive_substeps(substeps):
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.1, 5)
    u = ControlFunction.constant(g, tg, 0.0)
    with pytest.raises(ValueError, match="substeps"):
        integrate(build_system(g, 3), np.zeros(3), u, regular_spec(), substeps=substeps)


# ---------------------------------------------------------------------------
# cross-solver comparison

def test_compare_linear_band_limited():
    # slow 1-d modes and a tiny horizon: both solvers reduce to the same
    # diagonal recurrence up to integrator error
    g = Grid(8, 1, 100.0)
    spec = linear_spec()
    tg = TimeGrid(0.002, 200)
    u = ControlFunction.constant(g, tg, 0.0)
    phi0 = Field(g, 0.05 + 0.01 * unit_mode(g, 1, 0))
    pde = simulate(phi0, u, spec, tg, with_diagnostics=False)
    system = build_system(g, 4)
    y0 = system.project(phi0.values)
    oracle = integrate(system, y0, u, spec, substeps=2)
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
    oracle = integrate(system, system.project(phi0.values), u, spec, substeps=5)
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
    oracle = integrate(system, np.zeros(3), u, spec)
    with pytest.raises(ShapeMismatch):
        compare_to_pde(oracle, pde)


# the oracle-yosida-16 benchmark config at eps = 1e-3: with a resolvent
# solved only to a residual tolerance, these two inputs once stalled the
# implicit-midpoint Newton iteration and raised NewtonFailure
ORACLE_YOSIDA = """\
[grid]
nx = 16
ny = 16
[time]
final = 0.25
steps = 50
[potential]
variant = logarithmic
c1 = 2.0
eps = 1e-3
reg_kind = yosida
stabilization = 17.0
[control]
M = 0.2
Mprime = inf
initial = random:0.1
[initial]
phi0 = band_limited:0.4:4
[oracle]
modes = 256
substeps = {substeps}
[run]
seed = {seed}
"""


@pytest.mark.parametrize("seed, substeps", [(450395673, 2), (2351394226, 4)])
def test_oracle_yosida_small_eps_finishes(tmp_path, seed, substeps):
    path = tmp_path / "run.cfg"
    path.write_text(ORACLE_YOSIDA.format(seed=seed, substeps=substeps))
    assert run_oracle_compare(parse_config(path), tmp_path) == 0
    errors = (tmp_path / "oracle_errors.csv").read_text().splitlines()
    assert len(errors) == 52


# ---------------------------------------------------------------------------
# chord Newton against full Newton

def full_newton(system, y0, u, spec, tg, substeps):
    """The implicit midpoint rule with a fresh Jacobian and solve per iteration."""
    A = system.lam
    eye = np.eye(system.n)
    h = tg.tau / substeps

    def rhs(yv, g):
        return -yv - A * (A * yv + galerkin._nonlinearity(system, spec, yv)) + g

    y = [np.asarray(y0, dtype=float)]
    for step_idx in range(tg.nt):
        g = system.project(u.slices[step_idx])
        yk = y[-1]
        for _ in range(substeps):
            yn = yk + h * rhs(yk, g)
            for _ in range(galerkin._NEWTON_MAXIT):
                mid = 0.5 * (yk + yn)
                res = yn - yk - h * rhs(mid, g)
                if np.linalg.norm(res) <= galerkin._NEWTON_TOL * (1.0 + np.linalg.norm(yk)):
                    break
                jac_f = -eye - np.diag(A * A) - A[:, None] * dense_curvature(system, spec, mid)
                yn = yn - np.linalg.solve(eye - 0.5 * h * jac_f, res)
            else:
                raise NewtonFailure(f"reference Newton stalled at output step {step_idx}")
            yk = yn
        y.append(yk)
    return np.array(y)


def oracle_inputs(tmp_path, seed, substeps, eps="1e-3", steps=50, phi0="band_limited:0.4:4"):
    path = tmp_path / "run.cfg"
    path.write_text(ORACLE_YOSIDA.format(seed=seed, substeps=substeps)
                    .replace("eps = 1e-3", f"eps = {eps}")
                    .replace("steps = 50", f"steps = {steps}")
                    .replace("band_limited:0.4:4", phi0))
    cfg = parse_config(path)
    system = build_system(cfg.grid, cfg.oracle_modes)
    return system, system.project(cfg.phi0.values), cfg


def assert_matches_full_newton(system, y0, cfg, substeps):
    traj = integrate(system, y0, cfg.u0, cfg.spec, substeps=substeps)
    ref = full_newton(system, y0, cfg.u0, cfg.spec, cfg.timegrid, substeps)
    scale = 1.0 + np.linalg.norm(ref, axis=1)
    assert np.all(np.max(np.abs(traj.y - ref), axis=1) <= 1e-11 * scale)
    return traj


# the benchmark's oracle-yosida-16 input (eps = 1e-2, 2 substeps) and the two
# eps = 1e-3 inputs above
@pytest.mark.parametrize("seed, substeps, eps", [
    (3611022795, 2, "1e-2"),
    (450395673, 2, "1e-3"),
    (2351394226, 4, "1e-3"),
])
def test_chord_newton_matches_full_newton(tmp_path, seed, substeps, eps):
    system, y0, cfg = oracle_inputs(tmp_path, seed, substeps, eps)
    assert_matches_full_newton(system, y0, cfg, substeps)


@pytest.mark.parametrize("seed", [2, 6])
def test_chord_newton_finishes_a_stiff_start(tmp_path, seed):
    # |phi0| up to 0.95 at eps = 1e-3 with one substep: a chord matrix built
    # from the mean of f'' stalls at these seeds and raises NewtonFailure,
    # the Galerkin diagonal converges to the full-Newton trajectory
    system, y0, cfg = oracle_inputs(tmp_path, seed, 1, phi0="smooth:-0.95:0.95")
    assert_matches_full_newton(system, y0, cfg, 1)


def test_integrate_holds_no_dense_jacobian():
    # an n x n Jacobian at 32^2 with every mode is 8 MB, and the n-field
    # basis stack that built it another 8 MB: the diagonal chord needs neither
    g = Grid(32, 32, 1.0)
    system = build_system(g, g.size)
    spec = log_yosida_spec()
    u = ControlFunction.constant(g, TimeGrid(0.05, 5), 0.1)
    y0 = system.project(0.5 * np.cos(np.linspace(0.0, 7.0, g.size)))
    tracemalloc.start()
    try:
        traj = integrate(system, y0, u, spec, substeps=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.newton_iterations > 0
    assert peak < 2_000_000


def test_chord_newton_builds_few_jacobians(tmp_path):
    system, y0, cfg = oracle_inputs(tmp_path, 3611022795, 2, "1e-2")
    traj = integrate(system, y0, cfg.u0, cfg.spec, substeps=2)
    assert traj.jacobians <= 5
    assert traj.newton_iterations >= cfg.timegrid.nt * 2


def test_chord_newton_rebuilds_a_stale_jacobian(tmp_path):
    # five coarse steps at eps = 1e-3: phi moves far enough within a run that
    # the first Jacobian stops contracting and has to be rebuilt
    system, y0, cfg = oracle_inputs(tmp_path, 450395673, 1, steps=5)
    traj = assert_matches_full_newton(system, y0, cfg, 1)
    assert traj.jacobians > 1
    assert np.all(np.isfinite(traj.y)) and np.all(np.isfinite(traj.z))


def test_integrate_predicts_each_substep_from_the_last_increment(tmp_path, monkeypatch):
    # one nonlinearity per residual, one per output state and z[0], and one
    # explicit predictor on the first substep; every later substep is
    # predicted from the previous increment, at no evaluation
    system, y0, cfg = oracle_inputs(tmp_path, 3611022795, 2, "1e-2")
    calls = []
    f_d1_vec = galerkin.potentials.f_d1_vec
    monkeypatch.setattr(galerkin.potentials, "f_d1_vec",
                        lambda spec, values: calls.append(1) or f_d1_vec(spec, values))
    traj = integrate(system, y0, cfg.u0, cfg.spec, substeps=2)
    nt = cfg.timegrid.nt
    assert len(calls) == traj.newton_iterations + nt * (2 + 1) + 2


def test_integrate_raises_newton_failure_when_out_of_iterations(monkeypatch):
    monkeypatch.setattr(galerkin, "_NEWTON_MAXIT", 1)
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.1, 5)
    u = ControlFunction.constant(g, tg, 0.2)
    system = build_system(g, 6)
    with pytest.raises(NewtonFailure, match="output step 0"):
        integrate(system, system.project(0.3 * unit_mode(g, 1, 1)), u, regular_spec())
