import math

import numpy as np
import pytest

from chopt import spectral, state
from chopt.config import band_limited_field
from chopt.errors import NonFinite, ShapeMismatch
from chopt.potentials import PotentialSpec
from chopt.spectral import Field, Grid, basis_mode, grad_sq
from chopt.state import (
    ControlFunction,
    TimeGrid,
    _energies,
    control_inner,
    default_stabilization,
    energy,
    energy_balance_residual,
    mean_closed_form,
    simulate,
    validate_compatibility,
)

RNG = np.random.default_rng(555)


def regular_spec():
    base = PotentialSpec("regular")
    return PotentialSpec("regular", stabilization=default_stabilization(base))


def constant_control(grid, tg, value):
    return ControlFunction.constant(grid, tg, value)


# ---------------------------------------------------------------------------
# grids and controls

def test_timegrid():
    tg = TimeGrid(1.0, 4)
    assert tg.tau == 0.25
    assert np.allclose(tg.times(), [0, 0.25, 0.5, 0.75, 1.0])
    for T in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            TimeGrid(T, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_control_l2q_constant():
    g = Grid(4, 4, 2.0, 1.0)  # |Omega| = 2
    tg = TimeGrid(3.0, 6)
    u = constant_control(g, tg, 1.5)
    l2q = math.sqrt(control_inner(tg, g, u.slices, u.slices))
    assert l2q == pytest.approx(1.5 * math.sqrt(2.0 * 3.0), rel=1e-12)
    assert u.dt_l2() == 0.0
    assert u.linf() == 1.5


# ---------------------------------------------------------------------------
# compatibility

def test_compatibility_regular_always_passes():
    g = Grid(8, 8, 1.0)
    phi0 = Field(g, 5.0 * RNG.standard_normal(g.size))
    assert validate_compatibility(phi0, 3.0, PotentialSpec("regular")).passed


def test_compatibility_logarithmic_fail():
    g = Grid(8, 8, 1.0)
    phi0 = Field(g, np.zeros(g.size))
    report = validate_compatibility(phi0, 2.0, PotentialSpec("logarithmic", c1=2.0))
    assert not report.passed
    assert report.margin == pytest.approx(-1.0)


def test_compatibility_logarithmic_pass_with_margin():
    g = Grid(8, 8, 1.0)
    phi0 = Field(g, np.full(g.size, 0.2))
    report = validate_compatibility(phi0, 0.5, PotentialSpec("logarithmic", c1=2.0))
    assert report.passed
    assert report.margin == pytest.approx(0.3)


@pytest.mark.parametrize("M", [math.inf, math.nan])
def test_compatibility_refuses_unbounded_or_nan_bound(M):
    g = Grid(8, 8, 1.0)
    phi0 = Field(g, np.zeros(g.size))
    assert not validate_compatibility(phi0, M, PotentialSpec("logarithmic", c1=2.0)).passed


def test_default_stabilization_regular():
    # sup |3 r^2 - 1| over [-1.2, 1.2] = 3 * 1.44 - 1
    assert default_stabilization(PotentialSpec("regular")) == pytest.approx(3.32, abs=1e-3)


# ---------------------------------------------------------------------------
# single step

def one_step(phi, u_value, spec, tau):
    """phi^1 and mu^1 of a one-step simulate with a constant control."""
    tg = TimeGrid(tau, 1)
    traj = simulate(phi, constant_control(phi.grid, tg, u_value), spec, tg)
    return traj.phi[1], traj.mu[1]


def test_step_stationary_equilibrium():
    g = Grid(8, 8, 1.0)
    phi1, mu1 = one_step(Field(g, np.ones(g.size)), 1.0, regular_spec(), tau=0.01)
    assert np.allclose(phi1, 1.0, atol=1e-13)
    assert np.allclose(mu1, 0.0, atol=1e-12)


def test_step_constant_mode_implicit_euler():
    g = Grid(8, 8, 1.0)
    tau = 0.05
    phi1, _ = one_step(Field(g, np.full(g.size, 0.3)), 0.8, regular_spec(), tau)
    assert np.mean(phi1) == pytest.approx((0.3 + tau * 0.8) / (1 + tau), rel=1e-13)


def test_step_single_mode_recurrence():
    # obstacle variant inside [-1,1]: beta_eps = 0, pi linear, so the scheme
    # reduces to a scalar recurrence per mode that we can replay by hand
    g = Grid(8, 8, 1.0)
    c2 = 0.5
    spec = PotentialSpec("double_obstacle", c2=c2, eps=0.5, reg_kind="yosida",
                         stabilization=0.0)
    tau = 1e-3
    lam = g.eigenvalues()[1, 0]
    amp = 0.01
    e10 = basis_mode(g, 1, 0).values
    phi1, mu1 = one_step(Field(g, amp * e10), 0.0, spec, tau)
    # g_n = pi(phi) = -2 c2 phi, so phihat' = (1 + 2 c2 tau lam) phihat / denom
    expected = amp * (1.0 + 2.0 * c2 * tau * lam) / (1.0 + tau + tau * lam**2)
    got = float(np.dot(phi1, e10) * g.cell)
    assert got == pytest.approx(expected, rel=1e-12)
    # mu = -Delta phi' + pi(phi) per the scheme
    expected_mu_coeff = lam * expected - 2.0 * c2 * amp
    got_mu = float(np.dot(mu1, e10) * g.cell)
    assert got_mu == pytest.approx(expected_mu_coeff, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_blowup_raises():
    # f'(phi0) is finite (|phi0|^3 <= 8e306), so mu^0 is too; the update
    # overflows and must end in a clean NonFinite, not an overflow warning
    g = Grid(8, 8, 1.0)
    phi = Field(g, 1e102 * basis_mode(g, 2, 2).values)
    with pytest.raises(NonFinite) as err:
        one_step(phi, 0.0, regular_spec(), tau=0.1)
    assert err.value.step == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_nonfinite_initial_chemical_potential():
    # f'(phi0) overflows: simulate reports step 0 instead of warning
    g = Grid(8, 8, 1.0)
    phi = Field(g, 1e200 * basis_mode(g, 2, 2).values)
    with pytest.raises(NonFinite) as err:
        one_step(phi, 0.0, regular_spec(), tau=0.1)
    assert err.value.step == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_nonfinite_diagnostics():
    # phi and mu stay finite, but the energy and ||grad mu|| overflow from
    # step 0 on: the diagnostics report that as NonFinite instead of storing inf
    g = Grid(8, 8, 1.0)
    phi = Field(g, 5e101 * basis_mode(g, 2, 2).values)
    tg = TimeGrid(0.1, 1)
    u = constant_control(g, tg, 0.0)
    simulate(phi, u, regular_spec(), tg, with_diagnostics=False)
    with pytest.raises(NonFinite) as err:
        simulate(phi, u, regular_spec(), tg)
    assert err.value.step == 0


# ---------------------------------------------------------------------------
# simulate

def test_simulate_fixed_point():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 20)
    spec = regular_spec()
    phi0 = Field(g, np.ones(g.size))
    u = constant_control(g, tg, 1.0)
    traj = simulate(phi0, u, spec, tg)
    assert np.max(np.abs(traj.phi - 1.0)) < 1e-12
    assert np.max(np.abs(traj.mu)) < 1e-11


def test_simulate_mean_tracks_closed_form():
    g = Grid(16, 16, 1.0)
    tg = TimeGrid(1.0, 200)
    spec = regular_spec()
    phi0 = Field(g, np.zeros(g.size))
    u = constant_control(g, tg, 2.0)
    traj = simulate(phi0, u, spec, tg)
    means = traj.means()
    ts = tg.times()
    exact = 2.0 * (1.0 - np.exp(-ts))
    assert np.max(np.abs(means - exact)) < 5e-3  # O(tau) bias
    crossing = ts[np.argmax(means > 1.0)]
    assert abs(crossing - math.log(2.0)) < 0.02


def test_simulate_mean_exactly_implicit_euler():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 50)
    spec = regular_spec()
    phi0 = band_limited_field(g, 0.4, 6, RNG)
    u = ControlFunction(g, tg, RNG.uniform(-0.5, 0.5, (tg.nt + 1, g.size)))
    traj = simulate(phi0, u, spec, tg)
    means = traj.means()
    ubar = u.means()
    m = means[0]
    for n in range(tg.nt):
        m = (m + tg.tau * ubar[n]) / (1.0 + tg.tau)
        assert abs(means[n + 1] - m) < 1e-12


def test_simulate_refuses_incompatible_data():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(1.0, 10)
    spec = PotentialSpec("logarithmic", c1=2.0, eps=1e-2, reg_kind="piecewise_log",
                         stabilization=10.0)
    phi0 = Field(g, np.zeros(g.size))
    u = constant_control(g, tg, 2.0)
    with pytest.raises(ValueError, match="incompatible"):
        simulate(phi0, u, spec, tg)
    # override runs (regularized potential is globally defined)
    tg_short = TimeGrid(0.05, 10)
    u_short = constant_control(g, tg_short, 2.0)
    traj = simulate(phi0, u_short, spec, tg_short, check_compatibility=False)
    assert traj.phi.shape == (11, g.size)


@pytest.mark.parametrize("peak, refused", [(0.998, False), (0.9995, True)])
def test_simulate_measures_control_by_sup_norm(peak, refused):
    # one spike of height peak: phibar0 - ||u||_inf leaves (-1, 1) by 1 - peak
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.01, 2)
    spec = PotentialSpec("logarithmic", c1=2.0, eps=1e-2, reg_kind="piecewise_log",
                         stabilization=10.0)
    phi0 = Field(g, np.zeros(g.size))
    slices = np.zeros((tg.nt + 1, g.size))
    slices[1, 5] = -peak
    u = ControlFunction(g, tg, slices)
    if refused:
        with pytest.raises(ValueError, match="incompatible"):
            simulate(phi0, u, spec, tg)
    else:
        assert simulate(phi0, u, spec, tg).phi.shape == (3, g.size)


def test_simulate_mean_drift_bound():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(2.0, 100)
    spec = regular_spec()
    phi0 = Field(g, np.full(g.size, 0.1))
    u = constant_control(g, tg, 0.7)
    traj = simulate(phi0, u, spec, tg)
    assert np.max(np.abs(traj.means() - 0.1)) <= 0.7 + 1e-12


def test_simulate_diagnostics_keys():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.1, 5)
    traj = simulate(Field(g, np.zeros(g.size)), constant_control(g, tg, 0.0),
                    regular_spec(), tg)
    for key in ("t", "mean", "energy", "min_phi", "max_phi", "grad_mu_norm"):
        assert len(traj.diagnostics[key]) == tg.nt + 1


def test_simulate_grid_mismatch():
    g = Grid(8, 8, 1.0)
    g2 = Grid(4, 4, 1.0)
    tg = TimeGrid(0.1, 5)
    with pytest.raises(ShapeMismatch):
        simulate(Field(g2, np.zeros(g2.size)), constant_control(g, tg, 0.0),
                 regular_spec(), tg)


# ---------------------------------------------------------------------------
# mean closed form

def test_mean_closed_form_equilibrium():
    ubar = np.full(11, 0.4)
    for t in (0.0, 0.3, 1.0):
        assert mean_closed_form(0.4, ubar, 0.1, t) == pytest.approx(0.4, rel=1e-12)


def test_mean_closed_form_remark_values():
    ubar = np.full(101, 2.0)
    t = math.log(2.0)
    assert mean_closed_form(0.0, ubar, 0.01, t) == pytest.approx(1.0, rel=1e-12)
    assert mean_closed_form(0.0, ubar, 0.01, 0.5) == pytest.approx(
        2.0 * (1.0 - math.exp(-0.5)), rel=1e-12
    )


def test_mean_closed_form_homogeneous():
    ubar = np.zeros(11)
    assert mean_closed_form(1.0, ubar, 0.1, 0.7) == pytest.approx(math.exp(-0.7), rel=1e-12)


# ---------------------------------------------------------------------------
# energy diagnostics

def diagnostic_spec(variant):
    if variant == "regular":
        return regular_spec()
    return PotentialSpec("logarithmic", c1=2.0, eps=1e-2, reg_kind="piecewise_log",
                         stabilization=17.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, variant", [(32, "logarithmic"), (16, "regular")])
def test_simulate_diagnostics_match_the_stored_snapshots(n, variant):
    # the step's own coefficients give ||grad phi||^2 and ||grad mu||^2; they
    # must agree with transforming the stored snapshots, row 0 included
    g = Grid(n, n, 1.0)
    tg = TimeGrid(0.01, 40)
    rng = np.random.default_rng(n)
    phi0 = band_limited_field(g, 0.9, 8, rng)
    u = ControlFunction(g, tg, rng.uniform(-0.05, 0.05, (tg.nt + 1, g.size)))
    spec = diagnostic_spec(variant)
    traj = simulate(phi0, u, spec, tg)
    energies = _energies(g, spec, traj.phi, grad_sq(g, traj.phi))
    grad_mu = np.sqrt(grad_sq(g, traj.mu))
    assert np.allclose(traj.diagnostics["energy"], energies, rtol=1e-12, atol=0.0)
    assert np.allclose(traj.diagnostics["grad_mu_norm"], grad_mu, rtol=1e-12, atol=0.0)


def count_transforms(monkeypatch):
    """Count the fields transformed through the state and spectral bindings."""
    count = [0]
    dct, idct = spectral._dct, spectral._idct

    def counted_dct(grid, values):
        count[0] += int(np.prod(np.shape(values)[:-1]))
        return dct(grid, values)

    def counted_idct(coeffs):
        count[0] += int(np.prod(np.shape(coeffs)[:-2]))
        return idct(coeffs)

    for module in (spectral, state):
        monkeypatch.setattr(module, "_dct", counted_dct)
        monkeypatch.setattr(module, "_idct", counted_idct)
    return count


def test_simulate_diagnostics_transform_no_snapshot(monkeypatch):
    # a step makes four transforms; the diagnostics take their gradient norms
    # from the steps' coefficients and transform row 0 only, so they add O(1)
    g = Grid(16, 16, 1.0)
    tg = TimeGrid(0.05, 50)
    phi0 = band_limited_field(g, 0.5, 6, np.random.default_rng(3))
    u = constant_control(g, tg, 0.1)
    count = count_transforms(monkeypatch)
    simulate(phi0, u, regular_spec(), tg, with_diagnostics=False)
    plain, count[0] = count[0], 0
    simulate(phi0, u, regular_spec(), tg)
    assert plain <= 4 * tg.nt + 4
    assert count[0] <= plain + 4

def test_energy_of_pure_phase():
    g = Grid(8, 8, 1.0)
    assert energy(Field(g, np.ones(g.size)), PotentialSpec("regular")) == pytest.approx(
        0.0, abs=1e-14
    )


def test_energy_balance_stationary():
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.5, 20)
    spec = regular_spec()
    traj = simulate(Field(g, np.ones(g.size)), constant_control(g, tg, 1.0), spec, tg)
    res = energy_balance_residual(traj, constant_control(g, tg, 1.0), spec)
    assert np.max(np.abs(res)) < 1e-10


def test_energy_balance_first_order_in_tau():
    # linear dynamics (obstacle variant inside [-1,1]): residual ~ O(tau)
    g = Grid(8, 8, 1.0)
    spec = PotentialSpec("double_obstacle", c2=0.5, eps=0.5, reg_kind="yosida",
                         stabilization=0.0)
    # few, slow modes keep tau * lambda^2 small so the O(tau) regime is visible
    phi0 = band_limited_field(g, 0.05, 3, RNG)

    def max_res(nt):
        tg = TimeGrid(0.1, nt)
        u = constant_control(g, tg, 0.0)
        traj = simulate(phi0, u, spec, tg)
        return np.max(np.abs(energy_balance_residual(traj, u, spec)))

    r1, r2 = max_res(100), max_res(200)
    assert 1.5 <= r1 / r2 <= 2.5
