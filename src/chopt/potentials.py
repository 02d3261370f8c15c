"""Double-well potentials, their convex/smooth split, and regularizations.

Three variants of the potential f = betahat + pihat are supported:

* regular:          f(r) = (r^2 - 1)^2 / 4, split as betahat = r^4/4,
                    pihat = (1 - 2 r^2)/4, so beta(r) = r^3, pi(r) = -r.
* logarithmic:      f(r) = (1+r)ln(1+r) + (1-r)ln(1-r) - c1 r^2 on (-1, 1),
                    beta(r) = ln((1+r)/(1-r)), pi(r) = -2 c1 r.
* double_obstacle:  f(r) = -c2 r^2 on [-1, 1] (+infinity outside),
                    beta = subdifferential of the indicator of [-1, 1],
                    pi(r) = -2 c2 r.

The maximal monotone graph beta can be replaced by a single-valued Lipschitz
regularization: either the Moreau-Yosida approximation beta_eps (any variant)
or the piecewise C^1 continuation of the logarithmic beta that keeps the exact
graph on [-(1-eps), 1-eps] and continues affinely with the matched slope.

Every formula is written once, in numpy, and evaluated over whole arrays.
The array kernels (``_formula`` and its domain-checked front ``_exact``,
``_yosida``, ``_piecewise_log`` and the dispatcher ``_reg``) take ``k``, the
order of the derivative of betahat they return: 0 for betahat, 1 for beta,
2 for beta', 3 for beta''.  The ``*_vec`` functions are the public API:
they take a scalar or an array and return numpy values of the same shape
(shape () for a scalar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainViolation, WrongVariant

__all__ = [
    "PotentialSpec",
    "beta_reg_vec",
    "beta_reg_d1_vec",
    "f_value_vec",
    "f_d1_vec",
    "f_d2_vec",
    "BoundReport",
    "check_exp_derivative_bound",
    "young_exp_constants",
    "pi_d1",
]

REGULAR = "regular"
LOGARITHMIC = "logarithmic"
DOUBLE_OBSTACLE = "double_obstacle"

_VARIANTS = (REGULAR, LOGARITHMIC, DOUBLE_OBSTACLE)
_REG_KINDS = (None, "yosida", "piecewise_log")

_ROOT_MAXIT = 200


@dataclass(frozen=True)
class PotentialSpec:
    """Potential variant plus regularization and stabilization parameters.

    ``reg_kind`` is None for the unregularized potential (the obstacle graph
    is not single-valued, so its variant needs a regularization), "yosida" for the
    Moreau-Yosida approximation, or "piecewise_log" for the C^1 logarithmic
    continuation (logarithmic variant only).  ``stabilization`` is the
    splitting constant S used by the semi-implicit scheme.
    """

    variant: str = REGULAR
    c1: float = 2.0
    c2: float = 1.0
    eps: float = 1e-2
    reg_kind: str | None = None
    stabilization: float = 0.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.reg_kind not in _REG_KINDS:
            raise ValueError(f"unknown reg_kind {self.reg_kind!r}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.variant == LOGARITHMIC and not 1.0 < self.c1 < math.inf:
            raise ValueError("c1 must be finite and exceed 1 for the logarithmic variant")
        if self.variant == DOUBLE_OBSTACLE and not 0.0 < self.c2 < math.inf:
            raise ValueError("c2 must be positive and finite for the obstacle variant")
        if self.reg_kind == "piecewise_log" and self.variant != LOGARITHMIC:
            raise WrongVariant("piecewise_log applies to the logarithmic variant only")
        if not 0.0 <= self.stabilization < math.inf:
            raise ValueError("stabilization must be nonnegative and finite")

    @property
    def singular(self) -> bool:
        return self.variant in (LOGARITHMIC, DOUBLE_OBSTACLE)

    def domain_interior(self) -> tuple[float, float]:
        """Interior of D(beta) for the unregularized graph."""
        if self.variant == REGULAR:
            return (-math.inf, math.inf)
        return (-1.0, 1.0)


# ---------------------------------------------------------------------------
# smooth perturbation pi

def pi_d1(spec: PotentialSpec) -> float:
    """pi' is constant for every variant."""
    if spec.variant == REGULAR:
        return -1.0
    if spec.variant == LOGARITHMIC:
        return -2.0 * spec.c1
    return -2.0 * spec.c2


def _pihat(spec: PotentialSpec, r: float) -> float:
    if spec.variant == REGULAR:
        return (1.0 - 2.0 * r * r) / 4.0
    if spec.variant == LOGARITHMIC:
        return -spec.c1 * r * r
    return -spec.c2 * r * r


# ---------------------------------------------------------------------------
# exact convex part

def _exact(spec: PotentialSpec, t: np.ndarray, k: int) -> np.ndarray:
    """k-th derivative of the unregularized betahat; k = 1 is the minimal section beta°.

    Raises DomainViolation outside D(beta): (-1, 1) for the logarithmic
    variant, [-1, 1] for the obstacle.
    """
    if spec.variant == LOGARITHMIC and np.any(np.abs(t) >= 1.0):
        raise DomainViolation(f"r = {np.max(np.abs(t)):g} outside D(beta) = (-1, 1)")
    if spec.variant == DOUBLE_OBSTACLE and np.any(np.abs(t) > 1.0):
        raise DomainViolation(f"r = {np.max(np.abs(t)):g} outside D(beta) = [-1, 1]")
    return _formula(spec, t, k)


def _formula(spec: PotentialSpec, t: np.ndarray, k: int) -> np.ndarray:
    """The formulas behind :func:`_exact`, for t already inside D(beta).

    The regularizations call them directly: their arguments lie inside the
    domain by construction.
    """
    if spec.variant == REGULAR:
        # products, not integer powers: numpy's pow is about ten times slower
        if k == 0:
            return t * t * t * t / 4.0
        if k == 1:
            return t * t * t
        if k == 2:
            return 3.0 * t * t
        return 6.0 * t
    if spec.variant == DOUBLE_OBSTACLE:
        return np.zeros_like(t)
    if k == 0:
        return (1.0 + t) * np.log1p(t) + (1.0 - t) * np.log1p(-t)
    if k == 1:
        return np.log1p(t) - np.log1p(-t)
    if k == 2:
        return 2.0 / (1.0 - t * t)
    return 4.0 * t / (1.0 - t * t) ** 2


# ---------------------------------------------------------------------------
# Moreau-Yosida regularization

def _resolvent(spec: PotentialSpec, r: np.ndarray) -> np.ndarray:
    """Solve t + eps*beta°(t) = r elementwise for t (the resolvent point J_eps r).

    Safeguarded Newton with a bisection fallback, one bracket per point; the
    equation is monotone in t.  A point stops, and is frozen while the rest
    iterate, once its Newton step or its bracket reaches the float spacing of
    t.  A residual tolerance would not do: near the singular endpoints one ulp
    of t moves the residual by more than any fixed tolerance, and short of
    them a tolerance tau leaves beta_eps off by up to tau/eps.
    """
    if spec.variant == DOUBLE_OBSTACLE:
        return np.clip(r, -1.0, 1.0)
    eps = spec.eps
    shape = r.shape
    r = r.reshape(-1)
    if spec.variant == REGULAR:
        hi = np.abs(r) + 1.0
    else:  # logarithmic: t confined to (-1, 1)
        hi = np.ones_like(r)
    lo = -hi
    t = np.minimum(hi - 1e-9, np.maximum(lo + 1e-9, r))
    done = np.zeros(r.shape, dtype=bool)
    for _ in range(_ROOT_MAXIT):
        g = t + eps * _formula(spec, t, 1) - r
        hi = np.where(g > 0, t, hi)
        lo = np.where(g > 0, lo, t)
        newton = t - g / (1.0 + eps * _formula(spec, t, 2))
        t_new = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        ulp = np.spacing(np.abs(t))
        done |= (np.abs(newton - t) <= ulp) | (np.abs(t_new - t) <= ulp)
        if done.all():
            return t.reshape(shape)
        t = np.where(done, t, t_new)
    live = ~done
    i = int(np.argmax(live))
    raise ConvergenceFailure(
        f"resolvent solve failed at {int(live.sum())} point(s), e.g. r = {r[i]:g}, "
        f"eps = {eps:g} (residual {g[i]:.3e})"
    )


def _yosida(spec: PotentialSpec, r: np.ndarray, k: int) -> np.ndarray:
    """k-th derivative of the Moreau envelope betahat_eps, from one resolvent solve.

    beta_eps = (r - J_eps r)/eps; its derivatives follow by implicit
    differentiation of t + eps*beta°(t) = r, and betahat_eps(r) =
    eps/2 * beta_eps(r)^2 + betahat(J_eps r).  beta_eps is monotone and
    1/eps-Lipschitz, beta_eps(0) = 0, and |beta_eps| <= |beta°| on D(beta).
    """
    eps = spec.eps
    t = _resolvent(spec, r)
    if k <= 1:
        s = (r - t) / eps
        return s if k == 1 else 0.5 * eps * s * s + _formula(spec, t, 0)
    if k == 2 and spec.variant == DOUBLE_OBSTACLE:
        # J_eps = clip has slope 0 outside [-1, 1], which beta° = 0 does not see
        return np.where(np.abs(r) <= 1.0, 0.0, 1.0 / eps)
    bp = _formula(spec, t, 2)
    if k == 2:
        return bp / (1.0 + eps * bp)
    return _formula(spec, t, 3) / (1.0 + eps * bp) ** 3


# ---------------------------------------------------------------------------
# piecewise C^1 logarithmic regularization

def _piecewise_log(spec: PotentialSpec, r: np.ndarray, k: int) -> np.ndarray:
    """k-th derivative of the piecewise C^1 logarithmic betahat.

    The exact graph on |r| <= knee = 1-eps; beyond it, betahat continues with
    its second-order Taylor polynomial at the knee, so beta is affine with the
    matched slope 2/(eps(2-eps)) and beta'' vanishes.  The resulting beta is
    odd and C^1.  Logarithmic variant only, which PotentialSpec enforces.
    """
    eps = spec.eps
    a = np.abs(r)
    knee = 1.0 - eps
    slope = 2.0 / (eps * (2.0 - eps))
    bk = math.log((2.0 - eps) / eps)  # beta°(knee)
    inside = a <= knee
    if k == 0:
        d = np.where(inside, 0.0, a - knee)
        return _formula(spec, np.where(inside, a, knee), 0) + bk * d + 0.5 * slope * d * d
    safe = np.where(inside, a, 0.0)
    if k == 1:
        return np.sign(r) * np.where(inside, _formula(spec, safe, 1), bk + slope * (a - knee))
    if k == 2:
        return np.where(inside, _formula(spec, safe, 2), slope)
    return np.where(inside, _formula(spec, np.where(inside, r, 0.0), 3), 0.0)


# ---------------------------------------------------------------------------
# dispatch on the selected regularization

def _reg(spec: PotentialSpec, r, k: int) -> np.ndarray:
    """k-th derivative of the betahat selected by ``spec.reg_kind`` (exact if None)."""
    r = np.asarray(r, dtype=float)
    if spec.reg_kind == "yosida":
        return _yosida(spec, r, k)
    if spec.reg_kind == "piecewise_log":
        return _piecewise_log(spec, r, k)
    if spec.variant == DOUBLE_OBSTACLE:
        raise WrongVariant("the obstacle graph is exposed only through its Yosida regularization")
    return _exact(spec, r, k)


def beta_reg_vec(spec: PotentialSpec, values) -> np.ndarray:
    """The single-valued beta selected by ``spec.reg_kind`` over an array."""
    return _reg(spec, values, 1)


def beta_reg_d1_vec(spec: PotentialSpec, values) -> np.ndarray:
    return _reg(spec, values, 2)


def f_value_vec(spec: PotentialSpec, values) -> np.ndarray:
    """f = betahat_reg + pihat over an array."""
    v = np.asarray(values, dtype=float)
    if spec.reg_kind is None and spec.variant == REGULAR:
        return 0.25 * (v * v - 1.0) ** 2
    return _reg(spec, v, 0) + _pihat(spec, v)


def f_d1_vec(spec: PotentialSpec, values) -> np.ndarray:
    """f' = beta_reg + pi."""
    v = np.asarray(values, dtype=float)
    return beta_reg_vec(spec, v) + pi_d1(spec) * v


def f_d2_vec(spec: PotentialSpec, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return beta_reg_d1_vec(spec, v) + pi_d1(spec)


# ---------------------------------------------------------------------------
# inequality checks

@dataclass(frozen=True)
class BoundReport:
    max_violation: float
    worst_point: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-12


def check_exp_derivative_bound(spec: PotentialSpec, samples) -> BoundReport:
    """Check beta_eps'(r) <= 2 exp(|beta_eps(r)|) at the sample points.

    Only meaningful for the piecewise C^1 logarithmic regularization.
    """
    if spec.reg_kind != "piecewise_log":
        raise WrongVariant("the exponential derivative bound targets piecewise_log")
    samples = np.asarray(samples, dtype=float).reshape(-1)
    lhs = _piecewise_log(spec, samples, 2)
    # exponent capped to stay finite; the bound holds trivially beyond
    rhs = 2.0 * np.exp(np.minimum(np.abs(_piecewise_log(spec, samples, 1)), 700.0))
    violation = lhs - rhs
    i = int(np.argmax(violation))
    return BoundReport(float(violation[i]), float(samples[i]), samples.size)


def young_exp_constants(p: float) -> tuple[float, float]:
    """Constants (kappa, kappa') with r*s*e^{ps} <= s^2 e^{ps}/2 + e^{kappa r} + kappa'.

    Built from the delta > 0 solving delta*(1 + p + delta) = 1/2, with
    kappa = 1/delta and kappa' = (p + delta)^2 / (4 delta).
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    delta = 0.5 * (-(1.0 + p) + math.sqrt((1.0 + p) ** 2 + 2.0))
    kappa = 1.0 / delta
    kappa_prime = (p + delta) ** 2 / (4.0 * delta)
    return kappa, kappa_prime
