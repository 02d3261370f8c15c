import collections
import configparser
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chopt import cli, config, control, errors, potentials, sensitivity, state, verify
from chopt.cli import main, run_simulate
from chopt.config import build_field, parse_config
from chopt.errors import ParseError, ShapeMismatch, ValidationError
from chopt.runio import SnapshotWriter, format_value, read_snapshots, write_csv, write_snapshots
from chopt.spectral import Grid, SpectralField, from_spectral, grad_sq
from chopt.verify import REGISTRY, registered_checks, run_checks

RNG = np.random.default_rng(2024)


def write_cfg(tmp_path, body, name="run.cfg"):
    p = tmp_path / name
    p.write_text(body)
    return p


MINIMAL = """
[grid]
nx = 8
ny = 8

[time]
final = 0.1
steps = 10
"""


def write_cfg_with(tmp_path, section, key, value):
    """MINIMAL with ``[section] key = value`` set."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(MINIMAL)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, value)
    p = tmp_path / "run.cfg"
    with open(p, "w") as fh:
        cp.write(fh)
    return p


# ---------------------------------------------------------------------------
# config parsing

def test_parse_minimal_config_uses_defaults():
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "run.cfg"
        p.write_text(MINIMAL)
        cfg = parse_config(p)
    assert cfg.grid.nx == 8 and cfg.grid.ny == 8
    assert cfg.timegrid.nt == 10
    assert cfg.spec.variant == "regular"
    assert cfg.M == 1.0 and cfg.Mprime == np.inf
    assert cfg.alpha == (1.0, 0.0, 0.0, 0.0)
    assert cfg.optimizer.max_iters == 200
    assert cfg.checks == ("all",)


def test_parse_rejects_eps_out_of_range(tmp_path):
    p = write_cfg(tmp_path, MINIMAL + "\n[potential]\nvariant = logarithmic\nreg_kind = yosida\neps = 1.5\n")
    with pytest.raises(ValidationError) as err:
        parse_config(p)
    assert any("eps" in m for m in err.value.messages)


def test_parse_rejects_incompatible_data_with_override(tmp_path):
    body = MINIMAL + (
        "\n[potential]\nvariant = logarithmic\nc1 = 2.0\n"
        "reg_kind = piecewise_log\neps = 1e-3\nstabilization = 17.0\n"
        "\n[control]\nM = 2.0\ninitial = constant:2.0\n"
    )
    p = write_cfg(tmp_path, body)
    with pytest.raises(ValidationError) as err:
        parse_config(p)
    assert any("compatib" in m for m in err.value.messages)
    cfg = parse_config(p, override_compatibility=True)
    assert cfg.M == 2.0


@pytest.mark.parametrize("M, initial, margin", [
    ("0.3", "constant:0.5", None),
    ("0.3", "constant:0.9995", "0.0005"),
    ("0.9995", "constant:0.5", "0.0005"),
    ("inf", "zero", "-inf"),
], ids=["control-overshoots-M", "control-leaves", "M-leaves", "M-inf"])
def test_parse_compatibility_uses_bound_and_initial_control(tmp_path, M, initial, margin):
    # phi0 = 0, so the margin is 1 - max(M, ||u0||_inf)
    p = write_cfg(tmp_path, MINIMAL + "\n[potential]\nvariant = logarithmic\n"
                  f"\n[control]\nM = {M}\ninitial = {initial}\n")
    if margin is None:
        assert parse_config(p).M == float(M)
        return
    with pytest.raises(ValidationError) as err:
        parse_config(p)
    assert any(f"(margin {margin})" in m for m in err.value.messages)
    assert parse_config(p, override_compatibility=True).M == float(M)


def test_parse_computes_no_derivative_norm(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("parse_config computed a derivative norm")

    monkeypatch.setattr(state, "_dt_norm", refuse)
    p = write_cfg(tmp_path, MINIMAL + "\n[control]\nMprime = inf\ninitial = random:0.1\n")
    assert parse_config(p).Mprime == np.inf


def test_parse_of_a_large_constant_control_holds_no_field_sized_temporary(tmp_path):
    # a 128 x 128 x 500 constant control is one 131 KB row; its expansion
    # would be 65.7 MB and a finiteness mask of that 8.2 MB
    p = write_cfg(tmp_path, (
        "[grid]\nnx = 128\nny = 128\n[time]\nfinal = 0.5\nsteps = 500\n"
        "[potential]\nvariant = logarithmic\nc1 = 2.0\neps = 1e-4\nreg_kind = piecewise_log\n"
        "stabilization = 17.0\n[control]\nM = 0.2\nMprime = inf\ninitial = constant:0.1\n"
        "[initial]\nphi0 = smooth:-0.6:0.6\n"
    ))
    tracemalloc.start()
    try:
        cfg = parse_config(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.u0.slices.strides[0] == 0
    assert peak < 1_000_000


def test_parse_rejects_negative_seed(tmp_path):
    p = write_cfg_with(tmp_path, "run", "seed", "-1")
    with pytest.raises(ValidationError) as err:
        parse_config(p)
    assert any("[run] seed" in m for m in err.value.messages)
    p = write_cfg(tmp_path, MINIMAL)
    with pytest.raises(ValidationError, match=r"\[run\] seed"):
        parse_config(p, seed=-1)


@pytest.mark.parametrize("section, key, value, fragment", [
    ("control", "M", "nan", "M = nan"),
    ("control", "Mprime", "nan", "Mprime = nan"),
    ("time", "final", "inf", "final time"),
    ("grid", "lx", "inf", "side lengths"),
    ("potential", "stabilization", "nan", "stabilization"),
    ("optimizer", "tol", "nan", "tol"),
    ("optimizer", "initial_step", "inf", "initial_step"),
    ("cost", "alpha1", "nan", "alpha"),
])
def test_parse_rejects_nan_and_inf(tmp_path, section, key, value, fragment):
    p = write_cfg_with(tmp_path, section, key, value)
    with pytest.raises(ValidationError) as err:
        parse_config(p)
    assert any(fragment in m for m in err.value.messages)


def test_parse_reports_bad_optimizer_keys_with_the_rest(tmp_path):
    body = MINIMAL.replace("nx = 8", "nx = abc") + "\n[optimizer]\nmax_iters = 1e3\ntol = nan\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write_cfg(tmp_path, body))
    assert err.value.messages == ["[grid] nx = 'abc' is not a number",
                                  "[optimizer] max_iters = '1e3' is not a number"]
    # once every key reads as a number, the optimizer's values are checked with the others
    body = MINIMAL + "\n[control]\nM = -1\n[optimizer]\ntol = nan\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write_cfg(tmp_path, body))
    assert err.value.messages == ["control: M = -1.0 must be nonnegative",
                                  "optimizer: tol must be positive and finite"]


@pytest.mark.parametrize("variant, reg_kind, key", [
    ("logarithmic", "none", "c1"),
    ("double_obstacle", "yosida", "c2"),
])
def test_parse_rejects_infinite_potential_constants(tmp_path, variant, reg_kind, key):
    # a fixed stabilization, so no derived value can catch the infinity first
    body = (MINIMAL + f"\n[potential]\nvariant = {variant}\nreg_kind = {reg_kind}\n"
            f"stabilization = 17\n{key} = inf\n")
    with pytest.raises(ValidationError) as err:
        parse_config(write_cfg(tmp_path, body))
    assert any(f"{key} must be" in m for m in err.value.messages)


@pytest.mark.parametrize("key, value", [("modes", "8.5"), ("modes", "0"),
                                        ("substeps", "0"), ("substeps", "-1")])
def test_parse_rejects_bad_oracle_values(tmp_path, key, value):
    p = write_cfg(tmp_path, MINIMAL + f"\n[oracle]\n{key} = {value}\n")
    with pytest.raises(ValidationError) as err:
        parse_config(p)
    assert any(f"{key} = " in m for m in err.value.messages)


def test_parse_rejects_unknown_keys(tmp_path):
    p = write_cfg_with(tmp_path, "grid", "nz", "3")
    with pytest.raises(ParseError, match="unknown key"):
        parse_config(p)
    p2 = write_cfg(tmp_path, MINIMAL + "\n[nonsense]\nfoo = 1\n", name="run2.cfg")
    with pytest.raises(ParseError):
        parse_config(p2)


def test_seed_argument_overrides_config(tmp_path):
    p = write_cfg(tmp_path, MINIMAL + "\n[initial]\nphi0 = band_limited:0.4:6\n")
    a = parse_config(p, seed=1)
    b = parse_config(p, seed=1)
    c = parse_config(p, seed=2)
    assert np.array_equal(a.phi0.values, b.phi0.values)
    assert not np.array_equal(a.phi0.values, c.phi0.values)


@pytest.mark.parametrize("name", ["stationary", "remark22", "separation2d", "gradient-check",
                                  "inverse-crime", "continuous-dependence"])
def test_packaged_preset_parses(name):
    path = resources.files("chopt").joinpath("presets").joinpath(name + ".cfg")
    parse_config(path, override_compatibility=name == "remark22")


def test_build_field_descriptors():
    g = Grid(8, 8, 1.0)
    rng = np.random.default_rng(0)
    assert np.all(build_field(g, "zero", rng).values == 0.0)
    assert np.all(build_field(g, "constant:0.25", rng).values == 0.25)
    smooth = build_field(g, "smooth:-0.5:0.5", rng)
    assert smooth.values.min() >= -0.5 - 1e-12
    assert smooth.values.max() <= 0.5 + 1e-12
    with pytest.raises(ValidationError):
        build_field(g, "wavelet:3", rng)


@pytest.mark.parametrize("section, key, value, reason", [
    ("initial", "phi0", "band_limited:0.5:0", "mode count 0 outside 1..64"),
    ("initial", "phi0", "band_limited:0.5:-1", "mode count -1 outside 1..64"),
    ("initial", "phi0", "band_limited:0.5:65", "mode count 65 outside 1..64"),
    ("initial", "phi0", "band_limited:abc", "could not convert string to float: 'abc'"),
    ("cost", "u_true", "random:abc", "could not convert string to float: 'abc'"),
    ("control", "initial", "random:nan", "control values must be finite"),
])
def test_parse_names_the_key_of_a_bad_descriptor(tmp_path, section, key, value, reason):
    body = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    if section == "cost":
        body += "target = inverse_crime\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write_cfg(tmp_path, body))
    assert err.value.messages == [f"[{section}] {key} = {value!r}: {reason}"]


def test_band_limited_mode_count_default_and_range(tmp_path):
    # the default is min(8, nx*ny); every count in 1..nx*ny is taken as given
    small = "[grid]\nnx = 2\nny = 1\n[initial]\nphi0 = band_limited:0.5{}\n"
    default = parse_config(write_cfg(tmp_path, small.format(""))).phi0.values
    explicit = parse_config(write_cfg(tmp_path, small.format(":2"))).phi0.values
    assert np.array_equal(default, explicit)
    full = parse_config(write_cfg(tmp_path, MINIMAL + "\n[initial]\nphi0 = band_limited:0.5:64\n"))
    assert np.max(np.abs(full.phi0.values)) == 0.5


def scattered_reference_values(grid, nmodes, rng):
    """The descriptors' random lowest-mode field, built as an (nx, ny) scatter.

    The stable eigenvalue order's first nmodes flat places go back to (j, k)
    and the draws are scattered there before one ``from_spectral``.
    """
    places = np.argsort(grid.eigenvalues().reshape(-1), kind="stable")[:nmodes]
    coeffs = np.zeros((grid.nx, grid.ny))
    coeffs[np.unravel_index(places, (grid.nx, grid.ny))] = rng.standard_normal(len(places))
    return from_spectral(SpectralField(grid, coeffs)).values


# a square, an odd rectangle, a folded 128-point axis, and a grid with fewer
# cells than smooth's 6 and random's 4 modes, which clamp to it
@pytest.mark.parametrize("grid", [Grid(16, 16, 1.0), Grid(17, 9, 1.3, 0.7),
                                  Grid(128, 3, 1.3, 0.4), Grid(2, 1, 1.0)])
def test_descriptor_fields_match_the_scattered_reference(monkeypatch, grid):
    tg = state.TimeGrid(0.5, 5)

    def draw():
        rng = np.random.default_rng(11)
        fields = [build_field(grid, d, rng).values
                  for d in ("band_limited:0.4", f"band_limited:0.4:{grid.size}", "smooth:-0.6:0.6")]
        return fields + [config.build_control(grid, tg, "random:0.1", 0.2, rng).slices]

    got = draw()
    monkeypatch.setattr(config, "_band_limited_values", scattered_reference_values)
    for value, reference in zip(got, draw(), strict=True):
        assert np.array_equal(value, reference)


def test_file_descriptors_read_snapshots_bit_for_bit(tmp_path):
    g = Grid(8, 8, 1.0)
    field, control = RNG.standard_normal((1, g.size)), 0.1 * RNG.standard_normal((11, g.size))
    write_snapshots(tmp_path / "phi0.bin", g, field)
    write_snapshots(tmp_path / "u.bin", g, control)
    body = (MINIMAL + f"\n[initial]\nphi0 = file:{tmp_path / 'phi0.bin'}\n"
            f"[control]\ninitial = file:{tmp_path / 'u.bin'}\n"
            f"[cost]\ntarget = inverse_crime\nu_true = file:{tmp_path / 'u.bin'}\n")
    cfg = parse_config(write_cfg(tmp_path, body))
    assert np.array_equal(cfg.phi0.values, field[0])
    assert np.array_equal(cfg.u0.slices, control)
    assert np.array_equal(cfg.u_true.slices, control)


@pytest.mark.parametrize("section, key, frames, grid, reason", [
    ("initial", "phi0", 1, (4, 4), "is 4x4, grid is 8x8"),
    ("control", "initial", 11, (4, 4), "is 4x4, grid is 8x8"),
    ("control", "initial", 10, (8, 8), "has 10 frames, need 11"),
])
def test_file_descriptor_refuses_a_wrong_snapshot(tmp_path, section, key, frames, grid, reason):
    path = tmp_path / "snap.bin"
    write_snapshots(path, Grid(*grid, 1.0), np.zeros((frames, grid[0] * grid[1])))
    body = MINIMAL + f"\n[{section}]\n{key} = file:{path}\n"
    with pytest.raises(ValidationError) as err:
        parse_config(write_cfg(tmp_path, body))
    (message,) = err.value.messages
    assert message.startswith(f"[{section}] {key} = 'file:{path}': ") and message.endswith(reason)


# ---------------------------------------------------------------------------
# snapshot files

def test_snapshot_round_trip(tmp_path):
    g = Grid(6, 4, 1.0)
    frames = RNG.standard_normal((5, g.size))
    path = tmp_path / "phi.bin"
    write_snapshots(path, g, frames)
    nx, ny, back = read_snapshots(path)
    assert (nx, ny) == (6, 4)
    assert np.array_equal(back, frames)


def test_snapshot_header_layout(tmp_path):
    g = Grid(6, 4, 1.0)
    frames = np.zeros((2, g.size))
    path = tmp_path / "phi.bin"
    write_snapshots(path, g, frames)
    raw = path.read_bytes()
    assert raw[:4] == b"CHO1"
    nx, ny, count = struct.unpack("<III", raw[4:16])
    assert (nx, ny, count) == (6, 4, 2)
    assert len(raw) == 16 + 2 * g.size * 8


def test_snapshot_write_does_not_copy_a_contiguous_stack(tmp_path):
    g = Grid(128, 128, 1.0)
    frames = np.zeros((200, g.size))  # 26 MB
    tracemalloc.start()
    try:
        write_snapshots(tmp_path / "phi.bin", g, frames)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("layout", ["contiguous", "strided", "float32", "big-endian", "1-d", "empty",
                                    "streamed", "streamed-1-d", "streamed-empty"])
def test_snapshot_bytes_match_the_little_endian_buffer(tmp_path, layout):
    g = Grid(6, 4, 1.0)
    base = RNG.standard_normal((10, 2 * g.size))
    frames = {
        "contiguous": base[:, :g.size].copy(),
        "strided": base[::3, ::2],
        "float32": base[:, :g.size].astype(np.float32),
        "big-endian": base[:, :g.size].astype(">f8"),
        "1-d": base[0, :g.size],
        "empty": base[:0, :g.size],
        "streamed": base[::3, ::2],
        "streamed-1-d": base[0, :g.size],
        "streamed-empty": base[:0, :g.size],
    }[layout]
    path = tmp_path / "phi.bin"
    if layout.startswith("streamed"):
        # one write per frame, as the forward run makes them
        rows = np.atleast_2d(frames)
        with SnapshotWriter(path, g, len(rows)) as writer:
            for row in rows:
                writer.write(row)
    else:
        write_snapshots(path, g, frames)
    raw = path.read_bytes()
    assert struct.unpack("<III", raw[4:16]) == (6, 4, np.atleast_2d(frames).shape[0])
    assert raw[16:] == np.ascontiguousarray(frames, "<f8").tobytes()


@pytest.mark.parametrize("frames", [2, 4])
def test_snapshot_writer_refuses_a_wrong_frame_count(tmp_path, frames):
    # too few frames fail at close, too many at the write that exceeds the
    # header; either way the target keeps its old bytes and no temporary stays
    g = Grid(4, 4, 1.0)
    path = tmp_path / "phi.bin"
    path.write_bytes(b"old")
    with pytest.raises(ShapeMismatch):
        with SnapshotWriter(path, g, 3) as writer:
            for _ in range(frames):
                writer.write(np.ones(g.size))
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phi.bin"]


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ParseError):
        read_snapshots(path)


def test_snapshot_rejects_truncation(tmp_path):
    g = Grid(4, 4, 1.0)
    path = tmp_path / "phi.bin"
    write_snapshots(path, g, np.ones((3, g.size)))
    data = path.read_bytes()
    for bad in (data[:-8], data + b"\x00" * 8, data[:10]):  # short, over-long, cut header
        path.write_bytes(bad)
        with pytest.raises(ParseError):
            read_snapshots(path)


def test_snapshot_read_holds_one_copy(tmp_path):
    g = Grid(128, 128, 1.0)
    path = tmp_path / "phi.bin"
    write_snapshots(path, g, np.zeros((200, g.size)))  # 26 MB
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, _, frames = read_snapshots(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frames.shape == (200, g.size)
    assert peak < 1.1 * size


# ---------------------------------------------------------------------------
# CSV files

def test_format_value_round_trips_exactly():
    for v in (0.1, 1.0 / 3.0, np.pi, 1e-300, -7.25):
        assert float(format_value(v)) == v
    assert format_value(3) == "3"
    assert format_value(True) == "1"
    assert format_value("ok") == "ok"


def test_csv_is_byte_deterministic(tmp_path):
    rows = [[i, np.sin(i) * 1e-7, "tag"] for i in range(20)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["n", "value", "label"], rows)
    write_csv(p2, ["n", "value", "label"], rows)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b"\r" not in b1
    assert b1.startswith(b"n,value,label\n")


# ---------------------------------------------------------------------------
# verification registry

EXPECTED_CHECKS = {
    "spectral": {"parseval", "inverse-laplacian-symmetry", "poincare-bound",
                 "laplacian-closed-form"},
    "potentials": {"beta-monotone", "yosida-lipschitz", "yosida-sandwich",
                   "pi-derivative-constant", "log-derivative-exp-bound"},
    "state": {"mean-implicit-euler", "mean-closed-form-consistency", "mean-drift-bound",
              "separation-log-2d", "xi-bound", "continuous-dependence",
              "energy-balance", "energy-dissipation-nonnegative"},
    "galerkin": {"constant-mode-law", "constant-mode-bounds"},
    "sensitivity": {"adjoint-transpose-identity", "tangent-linearity",
                    "frechet-order", "tangent-continuity", "gradient-fd-match"},
    "control": {"cost-nonnegative", "cost-perfect-tracking", "monotone-descent",
                "feasible-descent", "cost-decrease", "projection-kkt",
                "optimizer-converged", "final-stationarity"},
}


def test_registry_covers_expected_invariants():
    for module, names in EXPECTED_CHECKS.items():
        for short in names:
            full = f"{module}.{short}"
            assert full in REGISTRY, full
            assert REGISTRY[full][0] == module
    assert len(REGISTRY) == sum(len(names) for names in EXPECTED_CHECKS.values())


def test_run_checks_unknown_name():
    with pytest.raises(ValidationError, match="spectral.no-such-check"):
        run_checks(["spectral.no-such-check"], seed=0)


@pytest.fixture(scope="module")
def run_at_seed_3():
    """Every row from one run_checks call at seed 3, and the calls of the two shared scenarios."""
    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        for helper in ("_inverse_crime_run", "_separation_run"):
            def counted(seed, helper=helper, original=getattr(verify, helper)):
                calls[helper] += 1
                return original(seed)

            mp.setattr(verify, helper, counted)
        rows = {r.name: r for r in run_checks(["all"], seed=3)}
    return rows, calls


@pytest.mark.parametrize("name", registered_checks())
def test_registered_check_passes(run_at_seed_3, name):
    result = run_at_seed_3[0][name]
    assert result.passed, f"{name}: {result.measured} {result.sense} {result.bound} ({result.details})"


def test_shared_scenarios_run_once_per_run_checks(run_at_seed_3):
    # five control.* rows read one optimize run, two state.* rows one 32^2 x 500 solve
    assert run_at_seed_3[1] == {"_inverse_crime_run": 1, "_separation_run": 1}


@pytest.mark.parametrize(
    "name", [n for n in registered_checks() if n.split(".")[0] in ("spectral", "potentials")]
    + ["state.mean-implicit-euler", "state.energy-balance", "sensitivity.tangent-linearity",
       "sensitivity.adjoint-transpose-identity", "control.projection-kkt"]
)
def test_roundoff_check_passes_at_twelve_seeds(name):
    # these bounds sit a few thousand ulps above roundoff and the scenarios
    # draw from the seed, so one seed says little; every row of the scenario
    # is read from its one run (energy-balance also gates the least D)
    rows = [n for n in registered_checks() if REGISTRY[n][1] is REGISTRY[name][1]]
    failed = [r for seed in range(12) for r in run_checks(rows, seed) if not r.passed]
    assert not failed, [(r.name, r.measured, r.details) for r in failed]


def _passing_seeds(row):
    """Seeds 0-11 at which `row` passes; each must have measured, not raised."""
    results = [run_checks([row], seed)[0] for seed in range(12)]
    assert all(math.isfinite(r.measured) for r in results), [r.details for r in results]
    return [seed for seed, r in enumerate(results) if r.passed]


@pytest.mark.parametrize("slip", ["mu^n in ||grad mu||^2", "no source term", "S = 0"])
def test_energy_balance_fails_on_a_slipped_residual(monkeypatch, slip):
    def slipped(traj):
        grid, phi, mu = traj.grid, traj.phi, traj.mu
        r = state.energy_balance_residual(traj)
        if slip == "no source term":
            return r + grid.cell * np.sum(mu[1:] * (traj.u.slices[:-1] - phi[1:]), axis=1)
        return r - grad_sq(grid, mu[1:]) + grad_sq(grid, mu[:-1])

    if slip == "S = 0":
        # the identity still holds; the dissipation D turns negative near +1
        monkeypatch.setattr(verify, "_stabilized", lambda spec, interval=None:
                            dataclasses.replace(spec, stabilization=0.0))
    else:
        monkeypatch.setattr(verify, "energy_balance_residual", slipped)
    row = "state.energy-dissipation-nonnegative" if slip == "S = 0" else "state.energy-balance"
    assert not _passing_seeds(row)


@pytest.mark.parametrize("name", ["_pihat", "pi_d1"])
def test_pi_derivative_constant_fails_on_a_slipped_pi(monkeypatch, name):
    # a 1e-9 relative slip in the energy's pihat or in the step's pi'
    original = getattr(potentials, name)
    monkeypatch.setattr(potentials, name, lambda *a: original(*a) * (1.0 + 1e-9))
    assert not _passing_seeds("potentials.pi-derivative-constant")


@pytest.mark.parametrize("centre", ["time mean", "zero"])
def test_projection_kkt_fails_on_a_radial_retraction(monkeypatch, centre):
    # the clip x, then c + (M'/||d_t x||)(x - c), is admissible but not the projection
    def retract(grid, tg, slices, M, Mprime):
        x = np.clip(slices, -M, M)
        norm = state._dt_norm(grid, tg, np.diff(x, axis=0))
        c = x.mean(axis=0) if centre == "time mean" else 0.0
        return state.ControlFunction(grid, tg, x if norm <= Mprime else c + (Mprime / norm) * (x - c))

    monkeypatch.setattr(verify, "project_Uad", retract)
    assert not _passing_seeds("control.projection-kkt")


def test_adjoint_transpose_identity_fails_on_a_slipped_source_cotangent(monkeypatch):
    # a 1e-9 relative slip in the cotangent of the adjoint's control source
    original = sensitivity._source_cotangent
    monkeypatch.setattr(sensitivity, "_source_cotangent", lambda *a: original(*a) * (1.0 + 1e-9))
    assert not _passing_seeds("sensitivity.adjoint-transpose-identity")


# ---------------------------------------------------------------------------
# command-line interface

def test_cli_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", "stationary", "--out", str(out)])
    assert code == 0
    assert (out / "phi.bin").exists()
    assert (out / "mu.bin").exists()
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,mean,energy,min_phi,max_phi,grad_mu_norm"
    assert len(diag) == 52  # header + nt+1 rows


def test_cli_refuses_incompatible_preset(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", "remark22", "--out", str(out)])
    assert code == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ValidationError"
    assert "compatib" in failure["message"].lower()


def test_cli_optimize_refuses_incompatible_preset_despite_override(tmp_path):
    # the override reaches the parser; optimize keeps its own check on (phi0, u0)
    out = tmp_path / "out"
    code = main(["optimize", "--config", "remark22", "--out", str(out),
                 "--override-compatibility"])
    assert code == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ConfigurationError"
    assert "incompatible" in failure["message"]


@pytest.mark.parametrize("command, section", [
    ("oracle-compare", "[oracle]\nsubsteps = 0"),
    ("oracle-compare", "[oracle]\nsubsteps = -1"),
    ("oracle-compare", "[oracle]\nmodes = 8.5"),
    ("verify", "[verify]\nchecks = spectral.parseval, spectral.no-such-check"),
    ("simulate", "[run]\nseed = -1"),
    ("simulate", "[control]\nM = nan"),
    ("simulate", "[potential]\nstabilization = nan"),
    ("simulate", "[potential]\nreg_kind = yosida\neps = 1e-9"),
    ("simulate", "[control]\nM = 0.2\n[potential]\nvariant = logarithmic\n"
                 "stabilization = 17\nc1 = inf"),
    ("simulate", "[control]\nM = 0.2\n[potential]\nvariant = double_obstacle\n"
                 "reg_kind = yosida\nstabilization = 17\nc2 = inf"),
    ("simulate", "[control]\nM = 0.2\n[potential]\nvariant = double_obstacle\n"
                 "reg_kind = none\nstabilization = 17"),
    ("optimize", "[control]\nM = 0.2\n[potential]\nvariant = double_obstacle\n"
                 "reg_kind = none\nstabilization = auto"),
    ("optimize", "[optimizer]\ntol = nan"),
    ("optimize", "[cost]\nalpha1 = nan"),
], ids=["substeps-zero", "substeps-negative", "modes-fraction", "unknown-check",
        "seed-negative", "M-nan", "stabilization-nan", "eps-below-1e-8", "c1-inf", "c2-inf",
        "bare-obstacle", "bare-obstacle-auto", "tol-nan", "alpha1-nan"])
def test_cli_bad_config_writes_failure(tmp_path, command, section):
    cfg = write_cfg(tmp_path, MINIMAL + "\n" + section + "\n")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ValidationError"
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]


# phi blows up at step 2 after row 1's energy has already overflowed
BLOW_UP = MINIMAL + """
[control]
M = 1e300
initial = constant:1e300

[run]
out = results
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_source_transform_overflow_is_a_blow_up_without_a_warning(tmp_path):
    # the constant control's one transform overflows before the first step
    cfg = write_cfg(tmp_path, MINIMAL + "\n[control]\ninitial = constant:1e308\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure == {"error": "NonFinite", "message": "blow-up at step 1"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key", ["lx", "ly"])
def test_cli_refuses_side_lengths_whose_eigenvalues_overflow(tmp_path, key):
    cfg = write_cfg_with(tmp_path, "grid", key, "1e-300")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ValidationError"
    assert f"{key} = 1e-300" in failure["message"]
    assert not (out / "phi.bin").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "optimize"])
@pytest.mark.parametrize("n, steps", [(64, 1), (128, 100)])
def test_cli_refuses_a_step_whose_tau_lambda_squared_overflows(tmp_path, command, n, steps):
    cfg = write_cfg(tmp_path, f"[grid]\nnx = {n}\nny = {n}\n[time]\nfinal = 1e300\nsteps = {steps}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ConfigurationError"
    assert "[time] final" in failure["message"] and "[time] steps" in failure["message"]
    assert not (out / "phi.bin").exists()


def test_cli_failure_lands_in_the_configured_output_directory(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    cfg = write_cfg(tmp_path, BLOW_UP)
    assert main(["simulate", "--config", str(cfg)]) == 2
    failure = json.loads((cwd / "results" / "failure.json").read_text())
    assert failure["error"] == "NonFinite"
    assert sorted(p.name for p in cwd.iterdir()) == ["results"]


@pytest.mark.parametrize("spelling", ["run-out", "--out"])
def test_cli_output_directory_that_cannot_be_created(tmp_path, monkeypatch, capsys, spelling):
    # a path under a regular file: mkdir raises NotADirectoryError
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    bad = tmp_path / "blocker" / "out"
    bad.parent.write_text("")
    if spelling == "run-out":
        argv = ["simulate", "--config", str(write_cfg_with(tmp_path, "run", "out", str(bad)))]
    else:
        argv = ["simulate", "--config", str(write_cfg(tmp_path, MINIMAL)), "--out", str(bad)]
    assert main(argv) == 2
    assert f"error (ConfigurationError): output directory {str(bad)!r}" in capsys.readouterr().err
    # failure.json goes where an unreadable config's would: --out (which
    # cannot take it, so nothing is written) or the working directory
    written = sorted(p.name for p in cwd.iterdir())
    assert written == (["failure.json"] if spelling == "run-out" else [])
    if written:
        assert json.loads((cwd / "failure.json").read_text())["error"] == "ConfigurationError"


def test_cli_simulate_failure_leaves_no_partial_snapshots(tmp_path):
    cfg = write_cfg(tmp_path, BLOW_UP)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure == {"error": "NonFinite", "message": "blow-up at step 2"}
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]
    # an earlier run's artifacts stay as they were
    assert main(["simulate", "--config", "stationary", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "failure.json"}
    assert after == {name: data for name, data in before.items() if name != "failure.json"}
    assert set(after) == {"phi.bin", "mu.bin", "diagnostics.csv"}


@pytest.mark.parametrize("body", [
    "[grid]\nnx = 32\nny = 32\n[time]\nfinal = 0.3\nsteps = 60\n"
    "[potential]\nvariant = logarithmic\nc1 = 2.0\neps = 1e-4\nreg_kind = piecewise_log\n"
    "stabilization = 17.0\n[control]\nM = 0.2\ninitial = constant:0.1\n"
    "[initial]\nphi0 = smooth:-0.6:0.6\n",
    "[grid]\nnx = 16\nny = 16\n[time]\nfinal = 0.5\nsteps = 50\n"
    "[control]\nM = 0.5\ninitial = random:0.15\n[initial]\nphi0 = band_limited:0.4:6\n",
    "[grid]\nnx = 8\nny = 8\n[time]\nfinal = 0.1\nsteps = 1\n"
    "[control]\ninitial = constant:0.3\n[initial]\nphi0 = band_limited:0.4:4\n",
], ids=["piecewise-log-32", "regular-random-16", "one-step"])
def test_cli_simulate_streams_the_bytes_of_an_in_memory_run(tmp_path, body):
    cfg = parse_config(write_cfg(tmp_path, body))
    streamed, held = tmp_path / "streamed", tmp_path / "held"
    streamed.mkdir()
    held.mkdir()
    assert run_simulate(cfg, streamed) == 0
    traj = state.simulate(cfg.phi0, cfg.u0, cfg.spec, cfg.timegrid, check_compatibility=False)
    write_snapshots(held / "phi.bin", cfg.grid, traj.phi)
    write_snapshots(held / "mu.bin", cfg.grid, traj.mu)
    write_csv(held / "diagnostics.csv", state._DIAG_COLUMNS,
              zip(*(traj.diagnostics[c] for c in state._DIAG_COLUMNS)))
    for name in ("phi.bin", "mu.bin", "diagnostics.csv"):
        assert (streamed / name).read_bytes() == (held / name).read_bytes()
    assert sorted(p.name for p in streamed.iterdir()) == ["diagnostics.csv", "mu.bin", "phi.bin"]


def test_cli_simulate_holds_a_few_snapshots_not_the_trajectory(tmp_path):
    body = ("[grid]\nnx = 64\nny = 64\n[time]\nfinal = 0.2\nsteps = 200\n"
            "[potential]\nvariant = logarithmic\nc1 = 2.0\neps = 1e-2\n"
            "reg_kind = piecewise_log\nstabilization = 17.0\n"
            "[control]\nM = 0.2\ninitial = constant:0.1\n"
            "[initial]\nphi0 = band_limited:0.6:8\n")
    cfg = parse_config(write_cfg(tmp_path, body))
    trajectory = 2 * (cfg.timegrid.nt + 1) * cfg.grid.size * 8  # phi and mu, 13.2 MB
    tracemalloc.start()
    try:
        run_simulate(cfg, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * trajectory


def test_cli_verify_gradient_preset(tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--config", "gradient-check", "--out", str(out)])
    assert code == 0
    lines = (out / "verification.csv").read_text().splitlines()
    assert lines[0] == "name,module,passed,measured,sense,bound,details"
    assert len(lines) >= 4


def test_cli_verify_reports_a_raising_scenario_as_failed_rows(tmp_path, monkeypatch):
    def broken(seed):
        raise KeyError("no run")

    monkeypatch.setattr(verify, "_separation_run", broken)
    cfg = write_cfg(tmp_path, MINIMAL + "[verify]\nchecks = state.separation-log-2d, "
                    "spectral.parseval, state.xi-bound\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    with open(out / "verification.csv") as fh:
        rows = {r["name"]: r for r in csv.DictReader(fh)}
    assert list(rows) == ["state.separation-log-2d", "spectral.parseval", "state.xi-bound"]
    for name in ("state.separation-log-2d", "state.xi-bound"):
        assert (rows[name]["passed"], rows[name]["measured"]) == ("0", "nan")
        assert rows[name]["details"] == "KeyError: 'no run'"
    assert rows["spectral.parseval"]["passed"] == "1"
    assert rows["spectral.parseval"]["details"] == "max relative Parseval defect over four grids"


def test_cli_oracle_compare(tmp_path):
    out = tmp_path / "out"
    code = main(["oracle-compare", "--config", "stationary", "--out", str(out)])
    assert code == 0
    lines = (out / "oracle_errors.csv").read_text().splitlines()
    assert lines[0] == "step,t,phi_error,mu_error"


def test_cli_oracle_compare_mu_error_is_finite_on_stationary(tmp_path):
    # mu vanishes at this fixed point; the trajectory-wide scale keeps the
    # mu column an absolute roundoff-sized error instead of 0/0
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", "stationary", "--out", str(out)]) == 0
    lines = (out / "oracle_errors.csv").read_text().splitlines()[1:]
    mu_errors = [float(line.split(",")[3]) for line in lines]
    assert len(mu_errors) == 51
    assert all(np.isfinite(e) and e <= 1e-9 for e in mu_errors)


def test_cli_oracle_compare_refuses_too_many_modes_before_the_forward_solve(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: calls.append(a) or state.simulate(*a, **k))
    cfg = write_cfg(tmp_path, "[grid]\nnx = 3\nny = 3\n[time]\nfinal = 0.03\nsteps = 3\n"
                              "[oracle]\nmodes = 10\n")
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads((out / "failure.json").read_text())["error"] == "BadModeCount"
    assert calls == []


def test_cli_optimize_artifacts_match_a_fresh_forward_run(tmp_path):
    # optimize writes phi.bin and diagnostics.csv from a simulate of u_star
    # with diagnostics; they must equal a separate run byte for byte
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    fresh.mkdir()
    assert main(["optimize", "--config", "inverse-crime", "--out", str(out)]) == 0
    path = resources.files("chopt").joinpath("presets").joinpath("inverse-crime.cfg")
    cfg = parse_config(path)
    _, _, u_star = read_snapshots(out / "u_star.bin")
    u = state.ControlFunction(cfg.grid, cfg.timegrid, u_star)
    traj = state.simulate(cfg.phi0, u, cfg.spec, cfg.timegrid, check_compatibility=False)
    write_csv(fresh / "diagnostics.csv", state._DIAG_COLUMNS,
              zip(*(traj.diagnostics[c] for c in state._DIAG_COLUMNS)))
    write_snapshots(fresh / "phi.bin", cfg.grid, traj.phi)
    for name in ("phi.bin", "diagnostics.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_cli_optimize_reports_a_missed_derivative_bound(tmp_path, monkeypatch):
    # the inverse-crime preset with an active M' = 0.05; a projection that misjudges the
    # derivative norm returns the clip, which misses that bound
    preset = resources.files("chopt").joinpath("presets").joinpath("inverse-crime.cfg").read_text()
    assert "Mprime = 10.0\n" in preset
    cfg = write_cfg(tmp_path, preset.replace("Mprime = 10.0\n", "Mprime = 0.05\n"))
    monkeypatch.setattr(control, "_dt_norm", lambda grid, tg, d: 0.0)
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    record = json.loads((out / "failure.json").read_text())
    assert record["error"] == "ConvergenceFailure"
    assert record["message"].startswith("control violates the derivative bound")


def test_cli_optimize_smoke(tmp_path):
    out = tmp_path / "out"
    code = main(["optimize", "--config", "inverse-crime", "--out", str(out)])
    assert code == 0
    assert (out / "u_star.bin").exists()
    result = json.loads((out / "result.json").read_text())
    assert result["J"] >= 0.0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0].startswith("iter,J,step,stationarity")


# ---------------------------------------------------------------------------
# the command-line contract over drawn configs: exit 0, or exit 2 with a
# typed error, and never a traceback or a numpy warning

CONTRACT_BASE = ("[grid]\nnx = 3\nny = 3\n[time]\nfinal = 0.03\nsteps = 3\n"
                 "[optimizer]\nmax_iters = 3\n[oracle]\nmodes = 4\nsubsteps = 2\n"
                 "[verify]\nchecks = spectral.poincare-bound\n")
# values that mean something for the key, then values hostile to any key
CONTRACT_VALUES = {
    "nx": ["2", "4"], "ny": ["1", "2", "4"], "lx": ["0.5", "1e3"], "ly": ["0.5", "1e3"],
    "final": ["0.01", "1", "100"], "steps": ["1", "5"],
    "variant": ["regular", "logarithmic", "double_obstacle"], "c1": ["1.5", "3"],
    "c2": ["0.5", "2"], "eps": ["0.5", "1e-8", "1e-4"], "reg_kind": ["none", "yosida", "piecewise_log"],
    "stabilization": ["auto", "17", "1e6"], "M": ["0.2", "1e3"], "Mprime": ["0.1", "1e-300"],
    "initial": ["zero", "constant:0.3", "random:0.5", "random"],
    "phi0": ["constant:0.5", "constant:0.999", "band_limited:0.4:3", "smooth:-0.9:0.9"],
    "alpha1": ["1e3"], "alpha2": ["1"], "alpha3": ["1"], "alpha4": ["1"],
    "target": ["inverse_crime"], "u_true": ["constant:0.3", "random:0.5"],
    "max_iters": ["1", "5"], "tol": ["1e-12", "1"], "initial_step": ["1e-6", "1e3"],
    "checks": ["potentials.pi-derivative-constant, spectral.poincare-bound"],
    "modes": ["1", "9", "10"], "substeps": ["1", "3"], "seed": ["7"],
    "out": ["sub/dir", "blocker/out"],  # the second under a regular file
}
HOSTILE = [
    "0", "-1", "2.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "abc", "",
    "constant:", "constant:abc", "constant:nan", "constant:inf", "constant:1e300",
    "band_limited:", "band_limited:1:", "band_limited:1:2.5", "band_limited:1:-1",
    "band_limited:inf:2", "smooth:1", "smooth:nan:1", "smooth:-1e300:1e300",
    "random:", "random:abc", "random:nan", "random:1e300", "file:", "file:missing.bin",
]
CONTRACT_ENTRY = st.sampled_from([(section, key) for section, keys in config._DEFAULTS.items()
                                  for key in keys]).flatmap(
    lambda sk: st.tuples(st.just(sk), st.sampled_from(CONTRACT_VALUES[sk[1]]) | st.sampled_from(HOSTILE)))


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(entries=st.lists(CONTRACT_ENTRY, min_size=1, max_size=4, unique_by=lambda e: e[0]),
       command=st.sampled_from(["simulate", "optimize", "verify", "oracle-compare"]),
       out=st.sampled_from([None, "out", "blocker/out"]))
# the oracle's explicit predictor overflows on a step of 3e299
@example(entries=[(("time", "final"), "1e300"), (("control", "initial"), "constant:0.3")],
         command="oracle-compare", out=None)
def test_cli_contract_over_drawn_configs(entries, command, out):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(CONTRACT_BASE)
    for (section, key), value in entries:
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("blocker").write_text("")
            with open("run.cfg", "w") as fh:
                cp.write(fh)
            argv = [command, "--config", "run.cfg"] + (["--out", out] if out else [])
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
        finally:
            os.chdir(cwd)
    if code != 0:
        assert code == 2, err.getvalue()
        typed = re.match(r"error \((\w+)\): ", err.getvalue())
        assert typed and issubclass(getattr(errors, typed.group(1)), errors.ChoptError), err.getvalue()
