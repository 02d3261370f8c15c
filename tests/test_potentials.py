import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import bisect

from chopt import potentials
from chopt.errors import ConvergenceFailure, DomainViolation, WrongVariant
from chopt.potentials import (
    PotentialSpec,
    _exact,
    _reg,
    beta_reg_d1_vec,
    beta_reg_vec,
    f_and_beta_reg_vec,
    f_d1_vec,
    f_d2_vec,
    f_value_vec,
)
from chopt.verify import _reg_specs, _young_exp_constants

RNG = np.random.default_rng(77)


# ---------------------------------------------------------------------------
# spec validation

def test_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec("regular", eps=1.5)
    # below 1e-8 beta_eps = (r - J_eps r)/eps cancels
    assert PotentialSpec("regular", eps=1e-8, reg_kind="yosida").eps == 1e-8
    with pytest.raises(ValueError, match="eps = 1e-09"):
        PotentialSpec("regular", eps=1e-9, reg_kind="yosida")
    with pytest.raises(ValueError):
        PotentialSpec("logarithmic", c1=1.0)
    with pytest.raises(ValueError):
        PotentialSpec("double_obstacle", c2=0.0)
    with pytest.raises(WrongVariant):
        PotentialSpec("regular", reg_kind="piecewise_log")
    with pytest.raises(ValueError):
        PotentialSpec("regular", stabilization=-1.0)


def test_singular_flag_and_odd_piecewise_log():
    assert PotentialSpec("logarithmic").singular
    assert not PotentialSpec("regular").singular


# ---------------------------------------------------------------------------
# unregularized potentials

def test_regular_values():
    spec = PotentialSpec("regular")
    assert f_value_vec(spec, 0.0) == pytest.approx(0.25)
    assert f_value_vec(spec, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert f_value_vec(spec, -1.0) == pytest.approx(0.0, abs=1e-15)
    for r in (-1.0, 0.0, 1.0, 0.37):
        assert f_d1_vec(spec, r) == pytest.approx(r**3 - r, abs=1e-14)


def test_logarithmic_values():
    spec = PotentialSpec("logarithmic", c1=2.0)
    assert f_value_vec(spec, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert _exact(spec, 0.5, (1,))[0] == pytest.approx(math.log(3.0), rel=1e-13)
    with pytest.raises(DomainViolation):
        _exact(spec, 1.0, (1,))[0]
    with pytest.raises(DomainViolation):
        f_value_vec(spec, 1.5)


def test_obstacle_requires_regularization():
    with pytest.raises(WrongVariant):
        PotentialSpec("double_obstacle")
    spec = PotentialSpec("double_obstacle", eps=0.5, reg_kind="yosida")
    with pytest.raises(DomainViolation):
        _exact(spec, 1.5, (1,))[0]
    assert _exact(spec, 0.5, (1,))[0] == 0.0


# ---------------------------------------------------------------------------
# Moreau-Yosida regularization

def test_yosida_zero_fixed_point():
    for spec in _reg_specs():
        if spec.reg_kind == "yosida":
            assert beta_reg_vec(spec, 0.0) == 0.0


def test_yosida_obstacle_closed_form():
    spec = PotentialSpec("double_obstacle", eps=0.5, reg_kind="yosida")
    assert beta_reg_vec(spec, 1.5) == pytest.approx(1.0, rel=1e-12)
    rs = RNG.uniform(-3.0, 3.0, 50)
    expected = (rs - np.clip(rs, -1.0, 1.0)) / spec.eps
    got = np.array([beta_reg_vec(spec, float(r)) for r in rs])
    assert np.allclose(got, expected, atol=1e-14)


@pytest.mark.parametrize("r, eps", [(0.9, 0.1), (1.5, 0.1), (0.5, 1e-3), (1.02, 1e-3)])
def test_yosida_logarithmic_vs_bisection_oracle(r, eps):
    spec = PotentialSpec("logarithmic", c1=2.0, eps=eps, reg_kind="yosida")

    def g(s):
        # s = beta(r - eps*s) <=> fixed point of the implicit definition
        return s - math.log((1.0 + r - eps * s) / (1.0 - r + eps * s))

    # the bracket keeps both log arguments positive: (r - 1)/eps < s < (1 + r)/eps
    s_star = bisect(g, (r - 1.0) / eps + 1e-9, (1.0 + r) / eps - 1e-9, xtol=1e-14)
    assert beta_reg_vec(spec, r) == pytest.approx(s_star, abs=1e-11)


@pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-3, 1e-4])
def test_yosida_logarithmic_defined_on_the_whole_line(eps):
    # beyond |r| ~ 1 + 38*eps the logarithmic resolvent point rounds to 1
    # unless it is kept below it; every derivative must stay finite there
    rs = np.linspace(-5.0, 5.0, 2001)
    for variant in ("logarithmic", "regular", "double_obstacle"):
        spec = PotentialSpec(variant, c1=2.0, eps=eps, reg_kind="yosida")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            derivatives = _reg(spec, rs, (0, 1, 2))
        assert all(np.all(np.isfinite(d)) for d in derivatives)
        vals = derivatives[1]
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(np.diff(vals) * eps <= np.diff(rs) + 1e-14)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConvergenceFailure):
                beta_reg_vec(spec, bad)


# Largest errors of (beta_eps, beta_eps') relative to max(|ref|, 1) allowed on
# the points below: twice those of the plain Newton climb from the lower bound
# max(|r|/(1 + 2 eps), (|r| - 1)/(2 eps)), (5.9e-15, 1.1e-14), (6.2e-14,
# 1.1e-13) and (1.2e-12, 1.1e-12), rounded down.
_LOG_YOSIDA_50_DIGIT_BOUNDS = {
    1e-2: (1.17e-14, 2.2e-14),
    1e-3: (1.23e-13, 2.2e-13),
    1e-4: (2.4e-12, 2.2e-12),
}


@pytest.mark.parametrize("eps", sorted(_LOG_YOSIDA_50_DIGIT_BOUNDS))
def test_yosida_logarithmic_matches_a_50_digit_reference(eps):
    # beta_eps(r) = beta°(t) = 2 sign(r) s and beta_eps'(r) = 1/(sech^2(s)/2 + eps)
    # at the root s of tanh(s) + 2 eps s = |r|, solved at 50 digits by Newton
    # steps kept above the lower bound, from the double-precision s, and
    # accepted once a step falls below 1e-45
    spec = PotentialSpec("logarithmic", c1=2.0, eps=eps, reg_kind="yosida")
    rs = np.concatenate([np.linspace(-5.0, 5.0, 501), np.linspace(0.99, 1.01, 501)])
    beta, d1 = _reg(spec, rs, (1, 2))
    beta_err = d1_err = 0.0
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        tol = mpmath.mpf(10) ** -45
        for r, b, d in zip(rs.tolist(), beta.tolist(), d1.tolist()):
            x = abs(mpmath.mpf(r))
            lower = max(x / (1 + 2 * e), (x - 1) / (2 * e))
            s = max(mpmath.mpf(abs(b)) / 2, lower)
            for _ in range(64):
                q = mpmath.exp(-2 * s)  # tanh s = (1 - q)/(1 + q), sech^2 s = 4q/(1 + q)^2
                step = ((1 - q) / (1 + q) + 2 * e * s - x) / (4 * q / (1 + q) ** 2 + 2 * e)
                s = max(s - step, lower)
                if abs(step) <= tol * max(s, 1):
                    break
            else:
                raise AssertionError(f"50-digit Newton did not settle at r = {r!r}")
            q = mpmath.exp(-2 * s)
            b_ref = mpmath.sign(r) * 2 * s
            d_ref = 1 / (2 * q / (1 + q) ** 2 + e)
            beta_err = max(beta_err, float(abs(b - b_ref) / max(abs(b_ref), 1)))
            d1_err = max(d1_err, float(abs(d - d_ref) / max(abs(d_ref), 1)))
    beta_bound, d1_bound = _LOG_YOSIDA_50_DIGIT_BOUNDS[eps]
    assert beta_err <= beta_bound
    assert d1_err <= d1_bound


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-8])
def test_yosida_logarithmic_settles_in_twelve_sweeps(monkeypatch, eps):
    # |r| from 1e-300 to 1e6 and a dense stretch of [0, 3], both signs; they
    # take 6, 7, 9, 10, 11 and 3 sweeps, where a plain climb from the lower
    # bound max(|r|/(1 + 2 eps), (|r| - 1)/(2 eps)) took 7, 7, 9, 11, 12 and 17
    monkeypatch.setattr(potentials, "_SWEEPS", 12)
    rng = np.random.default_rng(12)
    mags = np.concatenate([np.logspace(-300.0, 6.0, 400_000), rng.uniform(0.0, 3.0, 100_000)])
    rs = np.concatenate([mags, -mags])
    spec = PotentialSpec("logarithmic", c1=2.0, eps=eps, reg_kind="yosida")
    t = potentials._resolvent(spec, rs)
    assert np.all(np.abs(t) < 1.0)


# ---------------------------------------------------------------------------
# primitives

def test_betahat_zero():
    for spec in _reg_specs():
        assert _reg(spec, 0.0, (0,))[0] == pytest.approx(0.0, abs=1e-14)


def test_betahat_obstacle_closed_form():
    spec = PotentialSpec("double_obstacle", eps=0.5, reg_kind="yosida")
    assert _reg(spec, 1.5, (0,))[0] == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("r", [0.8, -0.8, 0.3, 1.4, -1.7])
def test_betahat_matches_quadrature(r):
    # the closed-form Moreau-envelope primitive against direct integration
    for spec in _reg_specs():
        val, err = quad(lambda s: beta_reg_vec(spec, s), 0.0, r, limit=200)
        assert _reg(spec, r, (0,))[0] == pytest.approx(val, abs=max(1e-10, 10 * err))


# ---------------------------------------------------------------------------
# piecewise C^1 logarithmic continuation

def test_piecewise_log_inside_exact_region():
    spec = PotentialSpec("logarithmic", c1=2.0, eps=0.5, reg_kind="piecewise_log")
    assert beta_reg_vec(spec, 0.5) == pytest.approx(math.log(3.0), rel=1e-13)


def test_piecewise_log_affine_branch():
    spec = PotentialSpec("logarithmic", c1=2.0, eps=0.5, reg_kind="piecewise_log")
    # slope at the knee r = 0.5 is 2/(0.5 * 1.5) = 8/3
    expected = math.log(3.0) + (8.0 / 3.0) * 0.25
    assert beta_reg_vec(spec, 0.75) == pytest.approx(expected, rel=1e-13)
    assert beta_reg_d1_vec(spec, 0.75) == pytest.approx(8.0 / 3.0, rel=1e-13)


def test_piecewise_log_odd():
    spec = PotentialSpec("logarithmic", c1=2.0, eps=0.3, reg_kind="piecewise_log")
    for r in RNG.uniform(0.0, 2.0, 50):
        r = float(r)
        assert beta_reg_vec(spec, -r) == pytest.approx(-beta_reg_vec(spec, r), abs=1e-14)


def test_piecewise_log_wrong_variant():
    with pytest.raises(WrongVariant):
        PotentialSpec("regular", reg_kind="piecewise_log")


def test_piecewise_log_c1_at_knee():
    spec = PotentialSpec("logarithmic", c1=2.0, eps=0.2, reg_kind="piecewise_log")
    knee = 1.0 - spec.eps
    h = 1e-7
    left = (beta_reg_vec(spec, knee) - beta_reg_vec(spec, knee - h)) / h
    right = (beta_reg_vec(spec, knee + h) - beta_reg_vec(spec, knee)) / h
    assert left == pytest.approx(right, rel=1e-5)


# ---------------------------------------------------------------------------
# derivative consistency (finite-difference oracle)

@pytest.mark.parametrize("spec", _reg_specs())
def test_beta_derivative_matches_fd(spec):
    for r in RNG.uniform(-1.8, 1.8, 20):
        r = float(r)
        h = 1e-6
        fd = (beta_reg_vec(spec, r + h) - beta_reg_vec(spec, r - h)) / (2 * h)
        # skip points straddling a kink of the regularization
        analytic = beta_reg_d1_vec(spec, r)
        if abs(fd - analytic) > 1e-4 * (1 + abs(analytic)):
            continue
        assert analytic == pytest.approx(fd, abs=1e-4 * (1 + abs(analytic)))


# ---------------------------------------------------------------------------
# the exponential derivative bound and the Young-type inequality (helpers of
# the verify checks of the same names)

def test_exp_bound_equality_at_zero():
    spec = PotentialSpec("logarithmic", c1=2.0, eps=0.2, reg_kind="piecewise_log")
    lhs = beta_reg_d1_vec(spec, 0.0)
    rhs = 2.0 * math.exp(abs(beta_reg_vec(spec, 0.0)))
    assert lhs == pytest.approx(rhs, abs=1e-14)  # 2 <= 2 e^0, equality


def test_young_constants_p3():
    kappa, kappa_prime = _young_exp_constants(3.0)
    delta = 1.0 / kappa
    assert delta == pytest.approx(0.121320, abs=1e-6)
    assert delta * (1.0 + 3.0 + delta) == pytest.approx(0.5, rel=1e-12)
    assert kappa == pytest.approx(8.242641, abs=1e-6)
    assert kappa_prime == pytest.approx(20.0763, abs=1e-3)


def test_young_constants_p1():
    kappa, _ = _young_exp_constants(1.0)
    assert 1.0 / kappa == pytest.approx(0.224745, abs=1e-6)
    assert kappa == pytest.approx(4.449490, abs=1e-6)


def test_young_rejects_small_p():
    with pytest.raises(ValueError):
        _young_exp_constants(0.5)


# ---------------------------------------------------------------------------
# array evaluation agrees with point-by-point evaluation

@pytest.mark.parametrize("spec", [*_reg_specs(), PotentialSpec("regular")])
def test_vectorized_wrappers(spec):
    rs = RNG.uniform(-1.8, 1.8, 40)
    if spec.singular and spec.reg_kind is None:
        rs = np.clip(rs, -0.95, 0.95)
    for fn, atol in ((beta_reg_vec, 1e-11), (beta_reg_d1_vec, 1e-9), (f_d1_vec, 1e-11),
                     (f_d2_vec, 1e-9), (f_value_vec, 1e-11)):
        assert np.allclose(fn(spec, rs), [fn(spec, float(r)) for r in rs], atol=atol)


@pytest.mark.parametrize("spec", [*_reg_specs(),
    PotentialSpec("regular"), PotentialSpec("logarithmic", c1=2.0)])
def test_orders_asked_together_match_each_alone(spec):
    # orders evaluated from one shared intermediate are the same bits as
    # orders evaluated one at a time
    rs = RNG.uniform(-1.8, 1.8, 64)
    if spec.singular and spec.reg_kind is None:
        rs = np.clip(rs, -0.95, 0.95)
    together = _reg(spec, rs, (0, 1, 2))
    for k in range(3):
        assert np.array_equal(together[k], _reg(spec, rs, (k,))[0])
    f, beta = f_and_beta_reg_vec(spec, rs)
    assert np.array_equal(f, f_value_vec(spec, rs))
    assert np.array_equal(beta, beta_reg_vec(spec, rs))


# ---------------------------------------------------------------------------
# properties of every regularization, over drawn points

PROPERTY_SPECS = [
    PotentialSpec(variant, c1=2.0, c2=1.0, eps=eps, reg_kind=kind)
    for eps in (0.1, 1e-2, 1e-3)
    for variant, kind in (("regular", "yosida"), ("logarithmic", "yosida"),
                          ("logarithmic", "piecewise_log"), ("double_obstacle", "yosida"))
]
property_specs = pytest.mark.parametrize(
    "spec", PROPERTY_SPECS, ids=lambda s: f"{s.variant}-{s.reg_kind}-{s.eps:g}")
drawn = settings(database=None, derandomize=True, max_examples=25, deadline=None)


def points(lo=-5.0, hi=5.0, max_size=64):
    # open intervals: the logarithmic graph is unbounded at -1 and 1
    floats = st.floats(lo, hi, exclude_min=True, exclude_max=True)
    return st.lists(floats, min_size=2, max_size=max_size).map(np.array)


def lipschitz_constant(spec):
    if spec.reg_kind == "piecewise_log":
        return 2.0 / (spec.eps * (2.0 - spec.eps))  # the slope at the knee
    return 1.0 / spec.eps


@property_specs
@drawn
@given(rs=points())
def test_property_monotone_lipschitz_and_zero_at_zero(spec, rs):
    rs = np.sort(rs)
    dv = np.diff(beta_reg_vec(spec, rs)) * spec.eps  # beta_eps is O(1/eps)
    assert np.all(dv >= -1e-14)
    assert np.all(dv <= lipschitz_constant(spec) * spec.eps * np.diff(rs) + 1e-14)
    assert beta_reg_vec(spec, 0.0) == 0.0
    assert np.array_equal(beta_reg_vec(spec, -rs), -beta_reg_vec(spec, rs))


@property_specs
@drawn
@given(line=points(), inside=points(-1.0, 1.0))
def test_property_bounded_by_the_exact_graph(spec, line, inside):
    rs = inside if spec.singular else line
    bh, beta = _reg(spec, rs, (0, 1))
    bh_exact, exact = _exact(spec, rs, (0, 1))
    exact = np.abs(exact)
    assert np.all(np.abs(beta) <= exact + 1e-12 * np.maximum(1.0, exact))
    assert np.all(bh >= -1e-15)
    assert np.all(bh <= bh_exact + 1e-12 * np.maximum(1.0, bh_exact))


PIECEWISE_LOG_SPECS = [
    PotentialSpec("logarithmic", c1=2.0, eps=eps, reg_kind="piecewise_log")
    for eps in (1e-4, 1e-2, 0.3)
]
piecewise_log_specs = pytest.mark.parametrize(
    "spec", PIECEWISE_LOG_SPECS, ids=lambda s: f"eps-{s.eps:g}")


@piecewise_log_specs
@drawn
@given(rs=points(-3.0, 3.0), inside=points(-1.0, 1.0))
def test_property_piecewise_log_is_odd_and_exact_inside(spec, rs, inside):
    # clip plus remainder: beta(-r) is -beta(r) exactly, and on |r| <= knee
    # the remainder is zero, so beta is the exact graph to the last bit
    assert np.array_equal(beta_reg_vec(spec, -rs), -beta_reg_vec(spec, rs))
    knee = 1.0 - spec.eps
    inside = np.append(inside * knee, [knee, -knee])
    assert np.all(np.abs(inside) <= knee)
    assert np.array_equal(beta_reg_vec(spec, inside), np.log1p(inside) - np.log1p(-inside))


@piecewise_log_specs
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_piecewise_log_continuous_across_the_knee(spec, side):
    # the last float inside and the first float beyond the knee: betahat, beta
    # and beta' agree there to 1e-12 relative (the affine branch is matched)
    knee = side * (1.0 - spec.eps)
    below, beyond = np.nextafter(knee, 0.0), np.nextafter(knee, 2.0 * side)
    pairs = zip(_reg(spec, below, (0, 1, 2)), _reg(spec, beyond, (0, 1, 2)))
    for k, (v_in, v_out) in enumerate(pairs):
        assert abs(v_out - v_in) <= 1e-12 * abs(v_in), (k, v_in, v_out)


@piecewise_log_specs
@pytest.mark.parametrize("beyond", [1.5, -1.5])
def test_piecewise_log_within_the_knee_equals_the_clipped_path(spec, beyond):
    # an array within +-knee skips the clip and the continuation terms; its
    # values are those of the same points in an array that reaches beyond
    knee = 1.0 - spec.eps
    inside = np.concatenate([[knee, -knee, 0.0, -0.0], RNG.uniform(-knee, knee, 64)])
    mixed = np.append(inside, beyond * knee)
    for fn in (beta_reg_vec, beta_reg_d1_vec, f_value_vec, f_d1_vec, f_d2_vec):
        assert np.array_equal(fn(spec, inside), fn(spec, mixed)[:-1]), fn.__name__
    for alone, within in zip(f_and_beta_reg_vec(spec, inside), f_and_beta_reg_vec(spec, mixed)):
        assert np.array_equal(alone, within[:-1])
