import math
import tracemalloc

import numpy as np
import pytest

from chopt import potentials, sensitivity, spectral, state
from chopt.config import band_limited_field, build_control
from chopt.cost import CostSpec
from chopt.errors import NonFinite, ShapeMismatch
from chopt.potentials import PotentialSpec
from chopt.spectral import Field, Grid, SpectralField, from_spectral, grad_sq
from chopt.state import (
    ControlFunction,
    StateTrajectory,
    TimeGrid,
    _energies,
    control_inner,
    default_stabilization,
    energy,
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


def mode_values(grid, j, k):
    """The sampled eigenfunction e_jk, from a unit coefficient array."""
    unit = np.zeros((grid.nx, grid.ny))
    unit[j, k] = 1.0
    return from_spectral(SpectralField(grid, unit)).values


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
    e10 = mode_values(g, 1, 0)
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
    phi = Field(g, 1e102 * mode_values(g, 2, 2))
    with pytest.raises(NonFinite) as err:
        one_step(phi, 0.0, regular_spec(), tau=0.1)
    assert err.value.step == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_nonfinite_initial_chemical_potential():
    # f'(phi0) overflows: simulate reports step 0 instead of warning
    g = Grid(8, 8, 1.0)
    phi = Field(g, 1e200 * mode_values(g, 2, 2))
    with pytest.raises(NonFinite) as err:
        one_step(phi, 0.0, regular_spec(), tau=0.1)
    assert err.value.step == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_nonfinite_diagnostics():
    # phi and mu stay finite, but the energy and ||grad mu|| overflow from
    # step 0 on: the diagnostics report that as NonFinite instead of storing inf
    g = Grid(8, 8, 1.0)
    phi = Field(g, 5e101 * mode_values(g, 2, 2))
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
    if variant == "exact-logarithmic":
        return PotentialSpec("logarithmic", c1=2.0, stabilization=17.0)
    if variant == "yosida-logarithmic":
        return PotentialSpec("logarithmic", c1=2.0, eps=1e-2, reg_kind="yosida",
                             stabilization=17.0)
    if variant == "yosida-obstacle":
        return PotentialSpec("double_obstacle", c2=1.0, eps=1e-2, reg_kind="yosida",
                             stabilization=17.0)
    return PotentialSpec("logarithmic", c1=2.0, eps=1e-2, reg_kind="piecewise_log",
                         stabilization=17.0)


SINGULAR_DIAGNOSTIC_VARIANTS = [
    "logarithmic", "exact-logarithmic", "yosida-logarithmic", "yosida-obstacle"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, variant", [(32, v) for v in SINGULAR_DIAGNOSTIC_VARIANTS]
                         + [(16, "regular")])
def test_simulate_diagnostics_match_the_stored_snapshots(n, variant):
    # the step's own coefficients give ||grad phi||^2 and ||grad mu||^2, and
    # its own potential evaluation int f(phi); they must agree with
    # evaluating the stored snapshots, row 0 included
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


@pytest.mark.parametrize("n, nt", [(16, 50), (64, 100), (13, 10)])
def test_simulate_diagnostic_rows_equal_the_stack_reductions(n, nt):
    # the diagnostics reduce one snapshot at a time; the written artifacts
    # stay byte-stable only if that equals reducing the stack along axis 1
    g = Grid(n, 17, 1.0)
    tg = TimeGrid(0.1, nt)
    rng = np.random.default_rng(n)
    phi0 = band_limited_field(g, 0.6, 8, rng)
    u = ControlFunction(g, tg, rng.uniform(-0.1, 0.1, (tg.nt + 1, g.size)))
    traj = simulate(phi0, u, diagnostic_spec("logarithmic"), tg)
    d = traj.diagnostics
    assert np.array_equal(d["t"], tg.times())
    assert np.array_equal(d["mean"], traj.phi.mean(axis=1))
    assert np.array_equal(d["min_phi"], traj.phi.min(axis=1))
    assert np.array_equal(d["max_phi"], traj.phi.max(axis=1))


@pytest.mark.parametrize("variant", SINGULAR_DIAGNOSTIC_VARIANTS)
def test_simulate_evaluates_the_potential_once_per_snapshot(monkeypatch, variant):
    # each step takes int f(phi) of its input snapshot from the kernel call
    # that gives beta; f is evaluated on its own for the last row only, and a
    # solve without diagnostics never evaluates f
    g = Grid(16, 16, 1.0)
    tg = TimeGrid(0.01, 20)
    phi0 = band_limited_field(g, 0.9, 8, np.random.default_rng(4))
    u = constant_control(g, tg, 0.05)
    spec = diagnostic_spec(variant)
    value_rows, kernel_orders = [], []
    f_value, reg = potentials.f_value_vec, potentials._reg

    def counted_f_value(spec, values):
        value_rows.append(np.array(values))
        return f_value(spec, values)

    def counted_reg(spec, r, ks):
        kernel_orders.append(ks)
        return reg(spec, r, ks)

    monkeypatch.setattr(potentials, "f_value_vec", counted_f_value)
    monkeypatch.setattr(potentials, "_reg", counted_reg)
    simulate(phi0, u, spec, tg, with_diagnostics=False)
    assert value_rows == []
    assert not any(0 in ks for ks in kernel_orders)
    plain, kernel_orders[:] = len(kernel_orders), []
    traj = simulate(phi0, u, spec, tg)
    assert len(value_rows) == 1
    assert np.array_equal(value_rows[0], traj.phi[-1])
    assert kernel_orders.count((0, 1)) == tg.nt
    assert len(kernel_orders) == plain + 1


def test_constant_control_is_one_read_only_row():
    g = Grid(128, 128, 1.0)
    tg = TimeGrid(0.5, 500)
    tracemalloc.start()
    try:
        u = build_control(g, tg, "constant:0.1", 0.2, np.random.default_rng(0))
        assert u.linf() == 0.1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a full stack would be 65.7 MB
    assert peak < 16_000_000
    assert not u.slices.flags.writeable
    assert not ControlFunction.constant(g, tg, 0.0).slices.flags.writeable
    assert u.slices.shape == (tg.nt + 1, g.size)
    assert np.all(u.slices[::97] == 0.1)


@pytest.mark.parametrize("value", [-0.4, 0.0, 0.3])
def test_linf_matches_the_largest_magnitude(value):
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.1, 6)
    slices = value + RNG.uniform(-0.05, 0.05, (tg.nt + 1, g.size))
    u = ControlFunction(g, tg, slices)
    assert u.linf() == float(np.max(np.abs(slices)))
    assert constant_control(g, tg, value).linf() == abs(value)


def test_simulate_with_a_constant_control_holds_little_beyond_the_trajectory():
    g = Grid(64, 64, 1.0)
    tg = TimeGrid(0.2, 200)
    phi0 = band_limited_field(g, 0.6, 8, np.random.default_rng(5))
    tracemalloc.start()
    try:
        u = constant_control(g, tg, 0.1)
        traj = simulate(phi0, u, diagnostic_spec("logarithmic"), tg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a full control stack would add half the trajectory's bytes
    assert peak < 1.2 * (traj.phi.nbytes + traj.mu.nbytes)


def test_simulate_with_a_varying_control_holds_little_beyond_the_trajectory():
    # the control's rows go in stacks of at most one 128 x 128 field's values;
    # one stack of all 200 rows would double the peak (2.0 x the trajectory)
    g = Grid(64, 64, 1.0)
    tg = TimeGrid(0.2, 200)
    rng = np.random.default_rng(5)
    phi0 = band_limited_field(g, 0.6, 8, rng)
    u = ControlFunction(g, tg, rng.uniform(-0.1, 0.1, (tg.nt + 1, g.size)))
    tracemalloc.start()
    try:
        traj = simulate(phi0, u, diagnostic_spec("logarithmic"), tg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # row by row the peak is 1.05 x the trajectory's bytes
    assert peak < 1.1 * (traj.phi.nbytes + traj.mu.nbytes)


def test_forward_rows_with_a_varying_control_stream_in_a_few_fields():
    # a 128 x 128 grid transforms the control one row per step: the stream holds
    # about 20.6 fields of 128 x 128, where a stack of all rows would hold 66
    g = Grid(128, 128, 1.0)
    tg = TimeGrid(0.02, 20)
    rng = np.random.default_rng(5)
    phi0 = band_limited_field(g, 0.6, 8, rng)
    u = ControlFunction(g, tg, rng.uniform(-0.1, 0.1, (tg.nt + 1, g.size)))
    tracemalloc.start()
    try:
        for _ in state._forward_rows(phi0, u, diagnostic_spec("logarithmic"), tg):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 21.5 * g.size * 8


def count_transforms(monkeypatch):
    """Count the fields transformed through the state, sensitivity and spectral bindings."""
    count = [0]
    dct, idct = spectral._dct, spectral._idct

    def counted_dct(grid, values):
        count[0] += int(np.prod(np.shape(values)[:-1]))
        return dct(grid, values)

    def counted_idct(coeffs):
        count[0] += int(np.prod(np.shape(coeffs)[:-2]))
        return idct(coeffs)

    for module in (spectral, state, sensitivity):
        monkeypatch.setattr(module, "_dct", counted_dct)
        monkeypatch.setattr(module, "_idct", counted_idct)
    return count


def test_simulate_diagnostics_transform_no_snapshot(monkeypatch):
    # a step carries phi_hat and makes three transforms; a constant control's
    # row is transformed once per solve, and the diagnostics take their
    # gradient norms from the steps' coefficients and transform row 0 only
    g = Grid(16, 16, 1.0)
    tg = TimeGrid(0.05, 50)
    phi0 = band_limited_field(g, 0.5, 6, np.random.default_rng(3))
    u = constant_control(g, tg, 0.1)
    count = count_transforms(monkeypatch)
    simulate(phi0, u, regular_spec(), tg, with_diagnostics=False)
    plain, count[0] = count[0], 0
    simulate(phi0, u, regular_spec(), tg)
    assert plain <= 3 * tg.nt + 3
    assert count[0] <= plain + 4


def test_simulate_transforms_a_varying_control_row_per_step(monkeypatch):
    g = Grid(16, 16, 1.0)
    tg = TimeGrid(0.05, 50)
    rng = np.random.default_rng(3)
    phi0 = band_limited_field(g, 0.5, 6, rng)
    u = ControlFunction(g, tg, rng.uniform(-0.1, 0.1, (tg.nt + 1, g.size)))
    count = count_transforms(monkeypatch)
    simulate(phi0, u, regular_spec(), tg, with_diagnostics=False)
    assert count[0] <= 4 * tg.nt + 3


def test_solve_linearized_transforms_four_fields_per_step(monkeypatch):
    g = Grid(16, 16, 1.0)
    tg = TimeGrid(0.05, 50)
    rng = np.random.default_rng(3)
    phi0 = band_limited_field(g, 0.5, 6, rng)
    base = simulate(phi0, constant_control(g, tg, 0.1), regular_spec(), tg, with_diagnostics=False)
    h = ControlFunction(g, tg, rng.standard_normal((tg.nt + 1, g.size)))
    count = count_transforms(monkeypatch)
    sensitivity.solve_linearized(base, h)
    assert count[0] <= 4 * tg.nt + 2


@pytest.mark.parametrize("alpha3", [0.0, 1.0])
def test_solve_adjoint_transforms_the_mu_sources_only_with_mu_tracking(monkeypatch, alpha3):
    # the phi sources (nt + 1 fields) and two per backward step; mu tracking
    # adds the stacked mu sources, lam_S mu and W mu (2 nt)
    g = Grid(16, 16, 1.0)
    tg = TimeGrid(0.05, 50)
    phi0 = band_limited_field(g, 0.5, 6, np.random.default_rng(3))
    base = simulate(phi0, constant_control(g, tg, 0.1), regular_spec(), tg, with_diagnostics=False)
    cost = CostSpec(g, tg, (1.0, 1.0, alpha3, 1e-2))
    count = count_transforms(monkeypatch)
    sensitivity.solve_adjoint(base, cost)
    assert count[0] == (tg.nt + 1) + 2 * tg.nt + (2 * tg.nt if alpha3 > 0 else 0)


@pytest.mark.parametrize("n, variant, nt", [(32, "logarithmic", 300), (16, "regular", 50)])
def test_constant_control_matches_the_same_values_held_in_full(n, variant, nt):
    # the broadcast row is transformed once per solve, a full array row by
    # row; both must give the same trajectory and diagnostics
    g = Grid(n, n, 1.0)
    tg = TimeGrid(0.3, nt)
    phi0 = band_limited_field(g, 0.6, 8, np.random.default_rng(n))
    spec = diagnostic_spec(variant)
    held = simulate(phi0, constant_control(g, tg, 0.1), spec, tg)
    full = ControlFunction(g, tg, np.full((tg.nt + 1, g.size), 0.1))
    assert full.slices.flags.writeable and full.slices.strides[0] != 0
    stepped = simulate(phi0, full, spec, tg)
    pairs = [(held.phi, stepped.phi), (held.mu, stepped.mu)]
    pairs += [(held.diagnostics[k], stepped.diagnostics[k]) for k in held.diagnostics]
    for a, b in pairs:
        assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(a)))


def test_constant_control_mean_follows_implicit_euler_over_a_long_horizon():
    # the constant mode is carried in coefficients over every step; its
    # nodal means must still be the implicit-Euler iterates of the mean ODE
    g = Grid(64, 64, 1.0)
    tg = TimeGrid(0.5, 500)
    phi0 = band_limited_field(g, 0.6, 8, np.random.default_rng(6))
    ubar = 0.1
    traj = simulate(phi0, constant_control(g, tg, ubar), diagnostic_spec("logarithmic"), tg,
                    with_diagnostics=False)
    means = traj.means()
    m = means[0]
    for n in range(tg.nt):
        m = (m + tg.tau * ubar) / (1.0 + tg.tau)
        assert abs(means[n + 1] - m) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("name", ["phi", "mu"])
def test_trajectory_refuses_one_non_finite_entry(bad, where, name):
    g = Grid(8, 8, 1.0)
    tg = TimeGrid(0.1, 4)
    arrays = {"phi": np.zeros((tg.nt + 1, g.size)), "mu": np.zeros((tg.nt + 1, g.size))}
    flat = arrays[name].reshape(-1)
    flat[{"first": 0, "middle": flat.size // 2, "last": -1}[where]] = bad
    u = constant_control(g, tg, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        StateTrajectory(u, regular_spec(), arrays["phi"], arrays["mu"])
    xi, eta = arrays["phi"], arrays["mu"]
    if name == "phi" and where == "first":
        xi, eta = np.zeros_like(eta), xi  # xi^0 must vanish; put the entry in eta^0
    with pytest.raises(ValueError, match="non-finite"):
        sensitivity.TangentTrajectory(g, tg, xi, eta)


def test_energy_of_pure_phase():
    g = Grid(8, 8, 1.0)
    assert energy(Field(g, np.ones(g.size)), PotentialSpec("regular")) == pytest.approx(
        0.0, abs=1e-14
    )
