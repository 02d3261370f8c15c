import configparser
import json
import struct
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from chopt import state
from chopt.cli import _write_diagnostics, main
from chopt.config import build_field, parse_config
from chopt.errors import ParseError, ValidationError
from chopt.runio import format_value, read_snapshots, write_csv, write_snapshots
from chopt.spectral import Grid
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


@pytest.mark.parametrize("layout", ["contiguous", "strided", "float32", "big-endian", "1-d", "empty"])
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
    }[layout]
    path = tmp_path / "phi.bin"
    write_snapshots(path, g, frames)
    assert path.read_bytes()[16:] == np.ascontiguousarray(frames, "<f8").tobytes()


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
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError):
        read_snapshots(path)


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
    "spectral": {"parseval", "inverse-laplacian-symmetry", "dual-norm-bound",
                 "laplacian-inverse-identity"},
    "potentials": {"beta-monotone", "yosida-lipschitz", "yosida-sandwich",
                   "pi-derivative-constant", "log-derivative-exp-bound",
                   "young-exp-inequality"},
    "state": {"mean-implicit-euler", "mean-closed-form-consistency",
              "separation-log-2d", "xi-bound", "continuous-dependence"},
    "galerkin": {"constant-mode-law", "refinement-convergence"},
    "sensitivity": {"adjoint-transpose-identity", "tangent-linearity",
                    "frechet-order", "tangent-continuity", "gradient-fd-match"},
    "control": {"cost-nonnegative", "projection-idempotent",
                "projection-nonexpansive", "monotone-descent",
                "feasible-descent", "variational-inequality"},
}


def test_registry_covers_expected_invariants():
    for module, names in EXPECTED_CHECKS.items():
        for short in names:
            full = f"{module}.{short}"
            assert full in REGISTRY, full
            assert REGISTRY[full][0] == module


def test_run_checks_unknown_name():
    with pytest.raises(ValidationError, match="spectral.no-such-check"):
        run_checks(["spectral.no-such-check"], seed=0)


@pytest.mark.parametrize("name", registered_checks())
def test_registered_check_passes(name):
    (result,) = run_checks([name], seed=3)
    assert result.passed, f"{name}: {result.measured} ({result.details})"


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
    ("simulate", "[control]\nM = 0.2\n[potential]\nvariant = logarithmic\n"
                 "stabilization = 17\nc1 = inf"),
    ("simulate", "[control]\nM = 0.2\n[potential]\nvariant = double_obstacle\n"
                 "reg_kind = yosida\nstabilization = 17\nc2 = inf"),
    ("optimize", "[optimizer]\ntol = nan"),
    ("optimize", "[cost]\nalpha1 = nan"),
], ids=["substeps-zero", "substeps-negative", "modes-fraction", "unknown-check",
        "seed-negative", "M-nan", "stabilization-nan", "c1-inf", "c2-inf", "tol-nan",
        "alpha1-nan"])
def test_cli_bad_config_writes_failure(tmp_path, command, section):
    cfg = write_cfg(tmp_path, MINIMAL + "\n" + section + "\n")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "ValidationError"
    assert not (out / "oracle_errors.csv").exists()
    assert not (out / "verification.csv").exists()
    assert not (out / "phi.bin").exists()


def test_cli_verify_gradient_preset(tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--config", "gradient-check", "--out", str(out)])
    assert code == 0
    lines = (out / "verification.csv").read_text().splitlines()
    assert lines[0] == "name,module,passed,measured,details"
    assert len(lines) >= 4


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
    _write_diagnostics(fresh, traj.diagnostics)
    write_snapshots(fresh / "phi.bin", cfg.grid, traj.phi)
    for name in ("phi.bin", "diagnostics.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_cli_optimize_smoke(tmp_path):
    out = tmp_path / "out"
    code = main(["optimize", "--config", "inverse-crime", "--out", str(out)])
    assert code == 0
    assert (out / "u_star.bin").exists()
    result = json.loads((out / "result.json").read_text())
    assert result["J"] >= 0.0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0].startswith("iter,J,step,stationarity")
