import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dctn, idctn

import chopt
from chopt.errors import ShapeMismatch
from chopt.spectral import (
    Field,
    Grid,
    _cos_matrix,
    _dct,
    _fold_halves,
    _idct,
    basis_modes,
    from_spectral,
    grad_sq,
    to_spectral,
)

RNG = np.random.default_rng(1234)


def mode(grid, j, k):
    return Field(grid, basis_modes(grid, [j], [k])[0])


def random_field(grid):
    return Field(grid, RNG.standard_normal(grid.size))


def l2(grid, values):
    """Discrete L^2 norm sqrt(cell) * ||values||."""
    return np.sqrt(grid.cell) * np.linalg.norm(values)


# ---------------------------------------------------------------------------
# grid and field construction

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 8, 1.0)
    with pytest.raises(ValueError):
        Grid(8, 0, 1.0)
    with pytest.raises(ValueError):
        Grid(8, 8, -1.0)


def test_grid_cell_and_volume():
    g = Grid(4, 5, 2.0, 1.5)
    assert g.cell == pytest.approx((2.0 / 4) * (1.5 / 5))
    assert g.volume == pytest.approx(3.0)
    assert g.size == 20


def test_field_rejects_bad_values():
    g = Grid(4, 4, 1.0)
    with pytest.raises(ShapeMismatch):
        Field(g, np.zeros(7))
    with pytest.raises(ValueError):
        Field(g, np.full(16, np.nan))


# ---------------------------------------------------------------------------
# transforms

def test_constant_field_coefficient():
    g = Grid(8, 8, 2.0, 3.0)
    c = 1.7
    s = to_spectral(Field(g, np.full(g.size, c)))
    assert s.coeffs[0, 0] == pytest.approx(c * np.sqrt(g.volume), rel=1e-13)
    rest = s.coeffs.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-13


def test_basis_mode_has_unit_coefficient():
    g = Grid(8, 8, 1.0)
    s = to_spectral(mode(g, 1, 0))
    expected = np.zeros((8, 8))
    expected[1, 0] = 1.0
    assert np.allclose(s.coeffs, expected, atol=1e-13)


def test_round_trip():
    for g in (Grid(8, 8, 1.0), Grid(16, 1, 2.5), Grid(6, 10, 1.5, 0.7)):
        f = random_field(g)
        back = from_spectral(to_spectral(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


# axes of 128 and more points, if even, take the fold; 127 stays dense
@pytest.mark.parametrize("nx, ny", [(2, 1), (3, 1), (16, 1), (17, 1), (64, 1), (128, 1),
                                    (2, 2), (3, 3), (16, 16), (17, 17), (64, 64), (128, 128),
                                    (16, 3), (17, 64), (128, 2), (2, 128), (127, 128),
                                    (128, 127), (130, 128), (256, 130), (129, 129)])
def test_dct_matches_fft_reference(nx, ny):
    g = Grid(nx, ny, 1.0)
    x = RNG.standard_normal(g.size)
    ref = dctn(x.reshape(nx, ny), type=2, norm="ortho")
    assert np.max(np.abs(_dct(g, x) - ref)) <= 1e-14 * np.max(np.abs(x))
    back = idctn(ref, type=2, norm="ortho").reshape(-1)
    assert np.max(np.abs(_idct(ref) - back)) <= 1e-14 * np.max(np.abs(back))


# odd axes of 129 and 255 points take the per-axis path, but densely
@pytest.mark.parametrize("nx, ny", [(16, 16), (64, 64), (127, 3), (17, 127), (126, 1),
                                    (129, 129), (255, 3)])
def test_unfolded_axes_take_the_dense_product_bit_for_bit(nx, ny):
    g = Grid(nx, ny, 1.0)
    x = RNG.standard_normal((2, g.size))
    cx, cy = _cos_matrix(nx), _cos_matrix(ny)
    coeffs = _dct(g, x)
    assert np.array_equal(coeffs, cx @ x.reshape(2, nx, ny) @ cy.T)
    assert np.array_equal(_idct(coeffs), (cx.T @ coeffs @ cy).reshape(2, -1))


@pytest.mark.parametrize("n", [128, 130, 256])
def test_fold_halves_are_the_even_and_odd_rows(n):
    ce, co, ce_t, co_t = _fold_halves(n)
    c = _cos_matrix(n)
    assert np.array_equal(ce, c[0::2, : n // 2]) and np.array_equal(co, c[1::2, : n // 2])
    assert np.array_equal(ce_t, ce.T) and np.array_equal(co_t, co.T)
    assert not any(h.flags.writeable for h in (ce, co, ce_t, co_t))
    assert _fold_halves(n) is _fold_halves(n)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 64, 128])
def test_cos_matrix_is_orthogonal(n):
    c = _cos_matrix(n)
    assert np.max(np.abs(c @ c.T - np.eye(n))) <= 1e-14
    assert not c.flags.writeable


# one field takes ndarray.dot, a stack matmul; (32, 32), (17, 17), (16, 3) and
# (127, 3) are where a C-contiguous copy of the transposed matrix changes the bits
@pytest.mark.parametrize("grid", [Grid(16, 16, 1.0), Grid(17, 1, 2.0), Grid(6, 10, 1.5, 0.7),
                                  Grid(128, 3, 1.3, 0.4), Grid(5, 130, 1.0),
                                  Grid(128, 128, 1.0), Grid(32, 32, 1.0), Grid(17, 17, 1.0),
                                  Grid(16, 3, 1.0), Grid(127, 3, 1.0)])
def test_stacked_transforms_equal_per_slice_calls(grid):
    x = RNG.standard_normal((5, grid.size))
    coeffs = _dct(grid, x)
    assert np.array_equal(coeffs, np.array([_dct(grid, v) for v in x]))
    assert np.array_equal(_idct(coeffs), np.array([_idct(c) for c in coeffs]))


def test_solver_does_not_import_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nnx = 8\nny = 8\n\n[time]\nfinal = 0.1\nsteps = 10\n")
    script = (
        "import sys\n"
        "import chopt.cli\n"
        f"code = chopt.cli.main(['simulate', '--config', {str(cfg)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(chopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_basis_orthonormality():
    g = Grid(6, 6, 1.3, 0.8)
    modes = [(0, 0), (1, 0), (0, 1), (2, 3)]
    for a in modes:
        for b in modes:
            ip = g.cell * mode(g, *a).values @ mode(g, *b).values
            assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# the Laplacian multiplier -lambda that the stepper applies

def minus_lambda(grid, values):
    return _idct(-grid.eigenvalues() * _dct(grid, values))


def test_laplacian_constant_is_zero():
    g = Grid(8, 8, 1.0)
    assert np.max(np.abs(minus_lambda(g, np.ones(g.size)))) < 1e-12


def test_laplacian_eigenmode_pi_domain():
    g = Grid(16, 16, np.pi, np.pi)
    lam = g.eigenvalues()
    assert lam[1, 0] == pytest.approx(1.0, rel=1e-15)
    assert lam[1, 1] == pytest.approx(2.0, rel=1e-15)
    e10 = mode(g, 1, 0).values
    assert np.allclose(minus_lambda(g, e10), -1.0 * e10, atol=1e-12)
    e11 = mode(g, 1, 1).values
    assert np.allclose(minus_lambda(g, e11), -2.0 * e11, atol=1e-12)
    assert grad_sq(g, e10)[0] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# mean: the constant-mode coefficient over sqrt(|Omega|), as the oracle reads it

def test_mean_examples():
    g = Grid(8, 8, 1.0, 2.0)

    def constant_mode_mean(values):
        return to_spectral(Field(g, values)).coeffs[0, 0] / np.sqrt(g.volume)

    assert constant_mode_mean(np.full(g.size, 3.5)) == pytest.approx(3.5, rel=1e-14)
    assert constant_mode_mean(mode(g, 1, 0).values) == pytest.approx(0.0, abs=1e-14)
    f = 1.0 + mode(g, 1, 0).values
    assert constant_mode_mean(f) == pytest.approx(1.0, abs=1e-14)
    assert constant_mode_mean(f) == pytest.approx(f.mean(), abs=1e-14)


# ---------------------------------------------------------------------------
# norms

def test_norms_zero_field():
    g = Grid(8, 8, 1.0)
    z = np.zeros(g.size)
    assert l2(g, z) == 0.0
    assert grad_sq(g, z)[0] == 0.0


def test_norms_constant_on_pi_square():
    g = Grid(16, 16, np.pi, np.pi)
    one = np.ones(g.size)
    assert l2(g, one) ** 2 == pytest.approx(np.pi**2, rel=1e-12)
    assert grad_sq(g, one)[0] == pytest.approx(0.0, abs=1e-12)


def test_grad_norm_of_eigenmode():
    g = Grid(16, 16, 1.0, 1.0)
    lam = (np.pi / 1.0) ** 2
    assert grad_sq(g, mode(g, 1, 0).values)[0] == pytest.approx(lam, rel=1e-12)
