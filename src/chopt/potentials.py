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
``_yosida``, ``_piecewise_log`` and the dispatcher ``_reg``) take ``ks``, a
tuple of orders of the derivative of betahat, and return one array per
order: 0 for betahat, 1 for beta, 2 for beta'.  Orders asked for together
share their intermediate: the log1p pair of the logarithmic formulas, the
clipped point of piecewise-log, the resolvent point of Yosida.
The ``*_vec`` functions are the public API: they take a scalar or an array
and return numpy values of the same shape (shape () for a scalar).
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
    "f_and_beta_reg_vec",
    "f_d1_vec",
    "f_d2_vec",
    "pi_d1",
]

REGULAR = "regular"
LOGARITHMIC = "logarithmic"
DOUBLE_OBSTACLE = "double_obstacle"

_VARIANTS = (REGULAR, LOGARITHMIC, DOUBLE_OBSTACLE)
_REG_KINDS = (None, "yosida", "piecewise_log")

# a fault detector: after the start step the logarithmic sweeps settle in at
# most 11 for |r| in [1e-300, 1e6] and eps in [1e-8, 0.5]
_SWEEPS = 64


@dataclass(frozen=True)
class PotentialSpec:
    """Potential variant plus regularization and stabilization parameters.

    ``reg_kind`` is None for the unregularized potential (refused for the
    obstacle variant, whose graph is not single-valued), "yosida" for the
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
        if not (1e-8 <= self.eps < 1.0):
            # below 1e-8 beta_eps = (r - J_eps r)/eps loses its digits to cancellation
            raise ValueError(f"eps = {self.eps:g} must lie in [1e-8, 1)")
        if self.variant == LOGARITHMIC and not 1.0 < self.c1 < math.inf:
            raise ValueError("c1 must be finite and exceed 1 for the logarithmic variant")
        if self.variant == DOUBLE_OBSTACLE and not 0.0 < self.c2 < math.inf:
            raise ValueError("c2 must be positive and finite for the obstacle variant")
        if self.variant == DOUBLE_OBSTACLE and self.reg_kind is None:
            raise WrongVariant("the obstacle graph is exposed only through its Yosida regularization")
        if self.reg_kind == "piecewise_log" and self.variant != LOGARITHMIC:
            raise WrongVariant("piecewise_log applies to the logarithmic variant only")
        if not 0.0 <= self.stabilization < math.inf:
            raise ValueError("stabilization must be nonnegative and finite")

    @property
    def singular(self) -> bool:
        return self.variant in (LOGARITHMIC, DOUBLE_OBSTACLE)


# ---------------------------------------------------------------------------
# smooth perturbation pi

def pi_d1(spec: PotentialSpec) -> float:
    """pi' is constant for every variant."""
    if spec.variant == REGULAR:
        return -1.0
    if spec.variant == LOGARITHMIC:
        return -2.0 * spec.c1
    return -2.0 * spec.c2


def _pihat(spec: PotentialSpec, r: np.ndarray) -> np.ndarray:
    if spec.variant == REGULAR:
        return (1.0 - 2.0 * r * r) / 4.0
    if spec.variant == LOGARITHMIC:
        return -spec.c1 * r * r
    return -spec.c2 * r * r


# ---------------------------------------------------------------------------
# exact convex part

def _exact(spec: PotentialSpec, t: np.ndarray, ks: tuple) -> list:
    """Derivatives of orders ``ks`` of the unregularized betahat; order 1 is beta°.

    Raises DomainViolation outside D(beta): (-1, 1) for the logarithmic
    variant, [-1, 1] for the obstacle.
    """
    if spec.variant == LOGARITHMIC and np.any(np.abs(t) >= 1.0):
        raise DomainViolation(f"r = {np.max(np.abs(t)):g} outside D(beta) = (-1, 1)")
    if spec.variant == DOUBLE_OBSTACLE and np.any(np.abs(t) > 1.0):
        raise DomainViolation(f"r = {np.max(np.abs(t)):g} outside D(beta) = [-1, 1]")
    return _formula(spec, t, ks)


def _formula(spec: PotentialSpec, t: np.ndarray, ks: tuple) -> list:
    """The formulas behind :func:`_exact`, for t already inside D(beta).

    The regularizations call them directly: their arguments lie inside the
    domain by construction.  The logarithmic betahat and beta share one
    log1p pair.
    """
    if spec.variant == REGULAR:
        return [_regular(t, k) for k in ks]
    if spec.variant == DOUBLE_OBSTACLE:
        return [np.zeros_like(t) for _ in ks]
    lp = lm = None
    if 0 in ks or 1 in ks:
        lp, lm = np.log1p(t), np.log1p(-t)
    return [_logarithmic(t, k, lp, lm) for k in ks]


def _regular(t: np.ndarray, k: int) -> np.ndarray:
    # products, not integer powers: numpy's pow is about ten times slower
    if k == 0:
        return t * t * t * t / 4.0
    if k == 1:
        return t * t * t
    return 3.0 * t * t


def _logarithmic(t: np.ndarray, k: int, lp: np.ndarray, lm: np.ndarray) -> np.ndarray:
    """Order k of the logarithmic betahat, given lp = log1p(t) and lm = log1p(-t)."""
    if k == 0:
        return (1.0 + t) * lp + (1.0 - t) * lm
    if k == 1:
        return lp - lm
    return 2.0 / (1.0 - t * t)


# ---------------------------------------------------------------------------
# Moreau-Yosida regularization

def _resolvent(spec: PotentialSpec, r: np.ndarray) -> np.ndarray:
    """Solve t + eps*beta°(t) = r elementwise for t (the resolvent point J_eps r).

    A non-finite argument raises ConvergenceFailure.  The obstacle resolvent
    is a clip and the regular one the real root of the cubic t + eps*t^3 = r.
    The logarithmic one is t = sign(r)*tanh(s) with h(s) = tanh(s) + 2*eps*s
    = |r|, h concave and increasing in s >= 0.  It starts near the root, at
    s0 = y + (artanh(y) - y)/(1 + 2*eps) with y = min(|r|/(1 + 2*eps),
    1 - 1e-6), and takes one Newton step from there with no climb guard.  By
    concavity that step lands at or below the root from any start; it is
    clamped from below by max(|r|/(1 + 2*eps), (|r| - 1)/(2*eps)), a bound
    below the root.  Newton sweeps then climb to the root monotonically,
    each forming h'(s) = 1 + 2*eps - tanh(s)^2 from its own tanh, and stop
    once no point moves.  |t| is kept below 1, where tanh would round.
    """
    if not np.isfinite(r).all():
        raise ConvergenceFailure(f"resolvent of a non-finite argument, eps = {spec.eps:g}")
    if spec.variant == DOUBLE_OBSTACLE:
        return np.clip(r, -1.0, 1.0)
    eps = spec.eps
    if spec.variant == REGULAR:
        a = math.sqrt(3.0 * eps)
        return (2.0 / a) * np.sinh(np.arcsinh(1.5 * a * r) / 3.0)
    x = np.abs(r)
    a = 1.0 + 2.0 * eps
    y = x / a
    floor = np.maximum(y, (x - 1.0) / (2.0 * eps))
    y = np.minimum(y, 1.0 - 1e-6)

    def newton(s, th):  # the Newton step for h(s) = |r|, given th = tanh(s)
        return s - (th + 2.0 * eps * s - x) / (a - th * th)

    s = y + (np.arctanh(y) - y) / a
    s = np.maximum(floor, newton(s, np.tanh(s)))
    for _ in range(_SWEEPS):
        th = np.tanh(s)
        s_new = np.maximum(s, newton(s, th))
        if (s_new == s).all():
            return np.copysign(np.minimum(th, np.nextafter(1.0, 0.0)), r)
        s = s_new
    raise ConvergenceFailure(f"resolvent sweeps did not settle in {_SWEEPS}, eps = {eps:g}")


def _yosida(spec: PotentialSpec, r: np.ndarray, ks: tuple) -> list:
    """Derivatives of orders ``ks`` of the Moreau envelope betahat_eps, from one resolvent solve.

    beta_eps = (r - J_eps r)/eps; its derivatives follow by implicit
    differentiation of t + eps*beta°(t) = r, and betahat_eps(r) =
    eps/2 * beta_eps(r)^2 + betahat(J_eps r).  beta_eps is monotone and
    1/eps-Lipschitz, beta_eps(0) = 0, and |beta_eps| <= |beta°| on D(beta).
    """
    eps = spec.eps
    t = _resolvent(spec, r)
    if 0 in ks or 1 in ks:
        s = (r - t) / eps

    def order(k):
        if k == 1:
            return s
        if k == 0:
            return 0.5 * eps * s * s + _formula(spec, t, (0,))[0]
        if spec.variant == DOUBLE_OBSTACLE:
            # J_eps = clip has slope 0 outside [-1, 1], which beta° = 0 does not see
            return np.where(np.abs(r) <= 1.0, 0.0, 1.0 / eps)
        (bp,) = _formula(spec, t, (2,))
        return bp / (1.0 + eps * bp)

    return [order(k) for k in ks]


# ---------------------------------------------------------------------------
# piecewise C^1 logarithmic regularization

def _piecewise_log(spec: PotentialSpec, r: np.ndarray, ks: tuple) -> list:
    """Derivatives of orders ``ks`` of the piecewise C^1 logarithmic betahat.

    The exact graph on |r| <= knee = 1-eps; beyond it, betahat continues with
    its second-order Taylor polynomial at the knee, so beta is affine with the
    matched slope 2/(eps(2-eps)) and beta'' vanishes.  The resulting beta is
    odd and C^1.  Logarithmic variant only, which PotentialSpec enforces.
    Evaluated at t = clip(r, +-knee) plus the remainder d = r - t.  When the
    whole array lies within +-knee, d is zero and the continuation terms add
    exact zeros, so the exact formulas are returned directly: the same values
    bit for bit, except that beta(-0.0) keeps the sign of zero.
    """
    eps = spec.eps
    knee = 1.0 - eps
    if r.size and -knee <= np.min(r) and np.max(r) <= knee:
        return _formula(spec, r, ks)
    slope = 2.0 / (eps * (2.0 - eps))
    t = np.clip(r, -knee, knee)
    d = r - t

    def order(k, inside):
        if k == 0:
            bk = math.log((2.0 - eps) / eps)  # beta°(knee)
            return inside + bk * np.abs(d) + 0.5 * slope * d * d
        if k == 1:
            return inside + slope * d
        return np.where(d == 0.0, inside, slope)

    return [order(k, inside) for k, inside in zip(ks, _formula(spec, t, ks))]


# ---------------------------------------------------------------------------
# dispatch on the selected regularization

def _reg(spec: PotentialSpec, r, ks: tuple) -> list:
    """Derivatives of orders ``ks`` of the betahat selected by ``spec.reg_kind`` (exact if None)."""
    r = np.asarray(r, dtype=float)
    if spec.reg_kind == "yosida":
        return _yosida(spec, r, ks)
    if spec.reg_kind == "piecewise_log":
        return _piecewise_log(spec, r, ks)
    return _exact(spec, r, ks)


def _f_with(spec: PotentialSpec, v: np.ndarray, ks: tuple) -> tuple:
    """f = betahat_reg + pihat, then the betahat derivatives of orders ``ks``; one kernel call."""
    if spec.reg_kind is None and spec.variant == REGULAR:
        return (0.25 * (v * v - 1.0) ** 2, *_formula(spec, v, ks))
    bhat, *rest = _reg(spec, v, (0, *ks))
    return (bhat + _pihat(spec, v), *rest)


def beta_reg_vec(spec: PotentialSpec, values) -> np.ndarray:
    """The single-valued beta selected by ``spec.reg_kind`` over an array."""
    return _reg(spec, values, (1,))[0]


def beta_reg_d1_vec(spec: PotentialSpec, values) -> np.ndarray:
    return _reg(spec, values, (2,))[0]


def f_value_vec(spec: PotentialSpec, values) -> np.ndarray:
    """f = betahat_reg + pihat over an array."""
    return _f_with(spec, np.asarray(values, dtype=float), ())[0]


def f_and_beta_reg_vec(spec: PotentialSpec, values) -> tuple[np.ndarray, np.ndarray]:
    """(f, beta_reg) over an array from one kernel call.

    f and beta share the kernel's intermediate, so the pair costs less than
    two separate calls: the forward step takes the energy density from it.
    """
    return _f_with(spec, np.asarray(values, dtype=float), (1,))


def f_d1_vec(spec: PotentialSpec, values) -> np.ndarray:
    """f' = beta_reg + pi."""
    v = np.asarray(values, dtype=float)
    return beta_reg_vec(spec, v) + pi_d1(spec) * v


def f_d2_vec(spec: PotentialSpec, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return beta_reg_d1_vec(spec, v) + pi_d1(spec)
