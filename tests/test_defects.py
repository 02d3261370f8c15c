"""Every verify row fails on a named gross defect.

``DEFECTS`` gives each registered row one defect, installed by monkeypatch,
under which the row's scenario still runs to a finite measurement and the
row fails its bound: a row that no gross defect fails measures nothing.
Rows whose defects other tests already plant, at seeds 0-11, name those
tests in ``SLIP_TESTS``; ``EXEMPT`` names the rows no defect has failed yet,
and why.  A new row must join one of the three.

The tier-1 tests run each defect at seed 3.  Run as a script, this module
runs each at seeds 0-11 and exits nonzero if a row passes at any of them:

    PYTHONPATH=src python tests/test_defects.py
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from chopt import control, cost, potentials, sensitivity, spectral, state, verify
from chopt.galerkin import GalerkinSystem
from chopt.spectral import Grid
from chopt.verify import registered_checks, run_checks


def _wrap(mp, owner, name, change):
    """Replace owner.name by change(original, *args)."""
    original = getattr(owner, name)
    mp.setattr(owner, name, lambda *args: change(original, *args))


def _dct_unnormalized(mp):
    def dct(original, grid, values):
        coeffs = original(grid, values)
        coeffs[..., 0, 0] *= math.sqrt(2.0)
        return coeffs

    _wrap(mp, spectral, "_dct", dct)


def _dct_as_inverse(mp):
    def idct(original, coeffs):
        *stack, nx, ny = coeffs.shape
        return spectral._dct(Grid(nx, ny, 1.0), coeffs.reshape(*stack, nx * ny)).reshape(*stack, nx * ny)

    _wrap(mp, verify, "_idct", idct)


def _denominator_without_tau(mp):
    def init(original, self, grid, spec, tau):
        original(self, grid, spec, tau)
        self.denom = self.denom - tau

    _wrap(mp, state._Stepper, "__init__", init)


def _source_times_tau(mp):
    _wrap(mp, state._Stepper, "linear", lambda original, self, xhat, shat, g, grads=None:
          original(self, xhat, self.tau * shat, g, grads))


def _projection_unweighted(mp):
    _wrap(mp, GalerkinSystem, "project", lambda original, self, v: original(self, v) / np.sqrt(self.grid.cell))


def _negated(owner, *names):
    def install(mp):
        for name in names:
            _wrap(mp, owner, name, lambda original, *args: -original(*args))

    return install


def _unchecked_line_search(mp):
    mp.setattr(control, "ARMIJO_C", -math.inf)
    _wrap(mp, verify, "optimize", lambda original, u0, problem, c, config:
          original(u0, problem, c, dataclasses.replace(config, initial_step=1e3)))


# row: (the defect, installing it on a pytest.MonkeyPatch)
DEFECTS = {
    "spectral.parseval": (
        "the DCT's constant mode scaled by sqrt(2), as in the unnormalized DCT-II",
        _dct_unnormalized),
    "spectral.inverse-laplacian-symmetry": (
        "the inverse transform applies C, not C^T: the DCT-II as its own inverse",
        _dct_as_inverse),
    "spectral.poincare-bound": (
        "grad_sq drops the cell measure",
        lambda mp: _wrap(mp, verify, "grad_sq", lambda original, grid, s: original(grid, s) / grid.cell)),
    "spectral.laplacian-closed-form": (
        "the eigenvalues drop pi^2: (j/lx)^2 + (k/ly)^2",
        lambda mp: _wrap(mp, Grid, "eigenvalues", lambda original, self: original(self) / np.pi**2)),
    "potentials.beta-monotone": (
        "beta_reg with its sign flipped",
        lambda mp: _wrap(mp, potentials, "beta_reg_vec", lambda original, spec, v: -original(spec, v))),
    "potentials.yosida-lipschitz": (
        "the resolvent J_eps r returned with the sign of -r",
        lambda mp: _wrap(mp, potentials, "_resolvent", lambda original, spec, r: -original(spec, r))),
    "potentials.yosida-sandwich": (
        "beta_eps divided by eps twice: (r - J_eps r) / eps^2",
        lambda mp: _wrap(mp, potentials, "_yosida", lambda original, spec, r, ks: [
            v / spec.eps if k == 1 else v for k, v in zip(ks, original(spec, r, ks))])),
    "potentials.log-derivative-exp-bound": (
        "the logarithmic beta taken as artanh(t), half of log((1 + t) / (1 - t))",
        lambda mp: _wrap(mp, potentials, "_logarithmic", lambda original, t, k, lp, lm:
                         0.5 * original(t, k, lp, lm) if k == 1 else original(t, k, lp, lm))),
    "state.mean-implicit-euler": (
        "the step's denominator drops its mass term tau",
        _denominator_without_tau),
    "state.mean-closed-form-consistency": (
        "the step's denominator drops its mass term tau",
        _denominator_without_tau),
    "state.mean-drift-bound": (
        "StateTrajectory.means sums each snapshot instead of averaging it",
        lambda mp: mp.setattr(state.StateTrajectory, "means", lambda self: self.phi.sum(axis=1))),
    "state.xi-bound": (
        "f' counts pi twice: beta + 2 pi",
        lambda mp: _wrap(mp, potentials, "f_d1_vec", lambda original, spec, v:
                         original(spec, v) + potentials.pi_d1(spec) * np.asarray(v))),
    "state.continuous-dependence": (
        "the step's source enters as tau^2 s_hat, not tau s_hat",
        _source_times_tau),
    "galerkin.constant-mode-law": (
        "the oracle's projection drops the sqrt(cell) weight",
        _projection_unweighted),
    "galerkin.constant-mode-bounds": (
        "the oracle's projection drops the sqrt(cell) weight",
        _projection_unweighted),
    "sensitivity.tangent-linearity": (
        "the step's source rows rounded to single precision",
        lambda mp: _wrap(mp, state._Stepper, "source_coeffs", lambda original, self, s:
                         original(self, s.astype(np.float32).astype(float)))),
    "sensitivity.frechet-order": (
        "the tangent's curvature drops f'': W = -S",
        lambda mp: _wrap(mp, sensitivity, "_curvature", lambda original, base, stepper:
                         np.full((base.timegrid.nt, base.grid.size), -stepper.S))),
    "sensitivity.tangent-continuity": (
        "the step's source enters as tau^2 s_hat, not tau s_hat",
        _source_times_tau),
    "sensitivity.gradient-fd-match": (
        "the adjoint's cost sources and the gradient drop the trapezoid weights",
        lambda mp: mp.setattr(sensitivity, "_trapezoid_weights", lambda nt: np.ones(nt + 1))),
    "control.cost-nonnegative": (
        "cost_J with its sign flipped",
        _negated(verify, "cost_J")),
    "control.cost-perfect-tracking": (
        "cost_J pairs each target with the previous step's state",
        lambda mp: _wrap(mp, verify, "cost_J", lambda original, traj, c: original(
            dataclasses.replace(traj, phi=np.roll(traj.phi, 1, axis=0)), c))),
    "control.projection-kkt": (
        "project_Uad clips at 1.01 M",
        lambda mp: _wrap(mp, verify, "project_Uad", lambda original, grid, tg, x, M, Mprime:
                         original(grid, tg, x, 1.01 * M, Mprime))),
    "control.monotone-descent": (
        "the line search skips its Armijo test, from a first trial step of 1e3",
        _unchecked_line_search),
    "control.cost-decrease": (
        "the optimizer ascends: its cost and gradient with their signs flipped",
        _negated(control, "cost_J", "reduced_gradient")),
    "control.optimizer-converged": (
        "the optimizer's gradient with its sign flipped",
        _negated(control, "reduced_gradient")),
    "control.final-stationarity": (
        "the optimizer's gradient with its sign flipped",
        _negated(control, "reduced_gradient")),
}

# rows whose defects these tests plant, each at seeds 0-11: file -> test function
SLIP_TESTS = {
    "state.energy-balance": ("test_harness.py", "test_energy_balance_fails_on_a_slipped_residual"),
    "state.energy-dissipation-nonnegative": ("test_harness.py", "test_energy_balance_fails_on_a_slipped_residual"),
    "potentials.pi-derivative-constant": ("test_harness.py", "test_pi_derivative_constant_fails_on_a_slipped_pi"),
    "sensitivity.adjoint-transpose-identity": (
        "test_harness.py", "test_adjoint_transpose_identity_fails_on_a_slipped_source_cotangent"),
}

EXEMPT = {
    "state.separation-log-2d": (
        "max |phi| is phi0's peak, 0.6, under every defect tried that does not raise: every mode "
        "of the run decays, so no slip of the step moves the maximum; a scenario that approaches "
        "+-1 waits for ROADMAP item 10"),
    "control.feasible-descent": (
        "the optimum lies far inside both bounds (max |u*| 0.002-0.021 against M = 0.5, "
        "||d_t u*|| 0.02-0.17 against M' = 10 at seeds 0-11), so a projection onto a wrong box "
        "or ball returns the same u*; a scenario whose optimum binds a bound is still to be written"),
}


def escapes(row, seeds):
    """The results at ``seeds`` at which ``row`` passes, or measures nan, under its defect."""
    with pytest.MonkeyPatch.context() as mp:
        DEFECTS[row][1](mp)
        results = [run_checks([row], seed)[0] for seed in seeds]
    return [r for r in results if r.passed or not math.isfinite(r.measured)]


@pytest.mark.parametrize("row", DEFECTS)
def test_row_fails_on_its_defect(row):
    assert not escapes(row, [3]), DEFECTS[row][0]


def test_every_row_names_a_defect_or_an_exemption():
    tables = (set(DEFECTS), set(SLIP_TESTS), set(EXEMPT))
    assert set.union(*tables) == set(registered_checks())
    assert sum(map(len, tables)) == len(registered_checks())
    here = Path(__file__).parent
    for file, test in SLIP_TESTS.values():
        assert f"def {test}(" in (here / file).read_text(), test


if __name__ == "__main__":
    failed = False
    for row, (defect, _) in DEFECTS.items():
        for r in escapes(row, range(12)):
            failed = True
            print(f"{row} escapes {defect!r}: {r.measured} {r.sense} {r.bound} ({r.details})")
    sys.exit(failed)
