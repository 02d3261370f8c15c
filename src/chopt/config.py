"""Flat key=value run configuration: parsing, validation, field builders.

Config files are INI-style with flat ``key = value`` entries grouped in
sections.  Recognized sections and keys (all optional unless noted):

[grid]      nx, ny (1 encodes d=1), lx, ly
[time]      final, steps
[potential] variant (regular|logarithmic|double_obstacle), c1, c2, eps,
            reg_kind (none|yosida|piecewise_log), stabilization (auto|float)
[control]   M, Mprime, initial  -- descriptor, see below
[initial]   phi0                -- descriptor, see below
[cost]      alpha1..alpha4, target (zero|inverse_crime), u_true (descriptor)
[optimizer] max_iters, tol, initial_step (the first iteration's trial step
            only; later line searches start at the Barzilai-Borwein step)
[verify]    checks (all | comma-separated invariant names)
[oracle]    modes, substeps
[run]       seed, out

Field descriptors:
    zero | constant:V | band_limited:AMP:NMODES | smooth:LO:HI | file:PATH
    (NMODES in 1..nx*ny, default min(8, nx*ny); file: reads the first frame)
Control descriptors (file: holds one frame per time level):
    zero | constant:V | random[:AMP] (smooth random slices) | file:PATH
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import OptimizerConfig
from .errors import ParseError, ValidationError
from .potentials import PotentialSpec
from .runio import read_snapshots
from .spectral import Field, Grid, SpectralField, from_spectral, lowest_modes
from .state import ControlFunction, TimeGrid, default_stabilization, validate_compatibility

__all__ = ["RunConfig", "parse_config", "build_field", "band_limited_field", "build_control"]

_DEFAULTS = {
    "grid": {"nx": "16", "ny": "16", "lx": "1.0", "ly": "1.0"},
    "time": {"final": "1.0", "steps": "100"},
    "potential": {
        "variant": "regular",
        "c1": "2.0",
        "c2": "1.0",
        "eps": "0.01",
        "reg_kind": "none",
        "stabilization": "auto",
    },
    "control": {"M": "1.0", "Mprime": "inf", "initial": "zero"},
    "initial": {"phi0": "zero"},
    "cost": {
        "alpha1": "1.0",
        "alpha2": "0.0",
        "alpha3": "0.0",
        "alpha4": "0.0",
        "target": "zero",
        "u_true": "zero",
    },
    "optimizer": {
        "max_iters": "200",
        "tol": "1e-6",
        "initial_step": "1.0",
    },
    "verify": {"checks": "all"},
    "oracle": {"modes": "8", "substeps": "10"},
    "run": {"seed": "0", "out": "out"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; construction implies validity."""

    grid: Grid
    timegrid: TimeGrid
    spec: PotentialSpec
    M: float
    Mprime: float
    phi0: Field
    u0: ControlFunction
    alpha: tuple
    cost_target: str
    u_true: ControlFunction | None
    optimizer: OptimizerConfig
    checks: tuple
    oracle_modes: int
    oracle_substeps: int
    seed: int
    out_dir: str


def _band_limited_values(grid: Grid, nmodes: int, rng: np.random.Generator) -> np.ndarray:
    """Random field supported on the min(nmodes, nx*ny) lowest-eigenvalue cosine modes."""
    j, k = lowest_modes(grid, nmodes)
    coeffs = np.zeros((grid.nx, grid.ny))
    coeffs[j, k] = rng.standard_normal(len(j))
    return from_spectral(SpectralField(grid, coeffs)).values


def band_limited_field(grid: Grid, amp: float, nmodes: int, rng: np.random.Generator) -> Field:
    """The ``band_limited:AMP:NMODES`` field: random lowest modes, peak |amp|."""
    if not 1 <= nmodes <= grid.size:
        raise ValidationError(f"mode count {nmodes} outside 1..{grid.size}")
    v = _band_limited_values(grid, nmodes, rng)
    peak = np.max(np.abs(v))
    if peak > 0:
        v = v * (amp / peak)
    return Field(grid, v)


def _read_frames(grid: Grid, path: str) -> np.ndarray:
    """The frames of a snapshot file written on this grid."""
    nx, ny, frames = read_snapshots(path)
    if (nx, ny) != (grid.nx, grid.ny):
        raise ValidationError(f"snapshot {path} is {nx}x{ny}, grid is {grid.nx}x{grid.ny}")
    return frames


def build_field(grid: Grid, descriptor: str, rng: np.random.Generator) -> Field:
    """Resolve a field descriptor (see module docstring) to nodal values."""
    desc = descriptor.strip()
    if desc == "zero":
        return Field(grid, np.zeros(grid.size))
    kind, _, rest = desc.partition(":")
    if kind == "constant":
        return Field(grid, np.full(grid.size, float(rest)))
    if kind == "band_limited":
        amp_s, _, n_s = rest.partition(":")
        return band_limited_field(grid, float(amp_s), int(n_s) if n_s else min(8, grid.size), rng)
    if kind == "smooth":
        lo_s, _, hi_s = rest.partition(":")
        lo, hi = float(lo_s), float(hi_s)
        v = _band_limited_values(grid, 6, rng)
        vmin, vmax = np.min(v), np.max(v)
        if vmax > vmin:
            v = lo + (hi - lo) * (v - vmin) / (vmax - vmin)
        else:
            v = np.full_like(v, 0.5 * (lo + hi))
        return Field(grid, v)
    if kind == "file":
        return Field(grid, _read_frames(grid, rest)[0])
    raise ValidationError(f"unknown field descriptor {descriptor!r}")


def build_control(
    grid: Grid,
    timegrid: TimeGrid,
    descriptor: str,
    M: float,
    rng: np.random.Generator,
) -> ControlFunction:
    """Resolve a control descriptor; ``random`` defaults to amplitude min(M, 1)."""
    desc = descriptor.strip()
    nt1 = timegrid.nt + 1
    kind, _, rest = desc.partition(":")
    if desc == "zero":
        return ControlFunction.constant(grid, timegrid, 0.0)
    if kind == "constant":
        return ControlFunction.constant(grid, timegrid, float(rest))
    if kind == "random":
        amp = float(rest) if rest else min(M, 1.0)
        slices = np.empty((nt1, grid.size))
        base = _band_limited_values(grid, 4, rng)
        drift = _band_limited_values(grid, 4, rng)
        ts = timegrid.times() / max(timegrid.T, 1.0)
        for n in range(nt1):
            slices[n] = base + ts[n] * drift
        peak = np.max(np.abs(slices))
        if peak > 0:
            slices *= amp / peak
    elif kind == "file":
        slices = _read_frames(grid, rest)
        if slices.shape[0] != nt1:
            raise ValidationError(f"control snapshot {rest} has {slices.shape[0]} frames, need {nt1}")
    else:
        raise ValidationError(f"unknown control descriptor {descriptor!r}")
    return ControlFunction(grid, timegrid, slices)


def _get(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if cp.has_option(section, key):
        return cp.get(section, key)
    return _DEFAULTS[section][key]


def parse_config(path, override_compatibility: bool = False, seed: int | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    Collects every violated invariant and raises a single ValidationError
    carrying the full message list.  ``seed`` overrides the file's seed.
    """
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (M vs Mprime)
    try:
        cp.read_string(p.read_text())
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for section in cp.sections():
        if section not in _DEFAULTS:
            raise ParseError(f"{path}: unknown section [{section}]")
        for key in cp.options(section):
            if key not in _DEFAULTS[section]:
                raise ParseError(f"{path}: unknown key {key!r} in [{section}]")

    errors: list[str] = []

    def number(section, key, cast=float):
        raw = _get(cp, section, key)
        try:
            return cast(raw)
        except ValueError:
            errors.append(f"[{section}] {key} = {raw!r} is not a number")
            return None

    nx = number("grid", "nx", int)
    ny = number("grid", "ny", int)
    lx = number("grid", "lx")
    ly = number("grid", "ly")
    T = number("time", "final")
    nt = number("time", "steps", int)
    c1 = number("potential", "c1")
    c2 = number("potential", "c2")
    eps = number("potential", "eps")
    M = number("control", "M")
    Mprime = number("control", "Mprime")
    alpha = tuple(number("cost", f"alpha{i}") for i in (1, 2, 3, 4))
    oracle_modes = number("oracle", "modes", int)
    oracle_substeps = number("oracle", "substeps", int)
    max_iters = number("optimizer", "max_iters", int)
    initial_step = number("optimizer", "initial_step")
    tol = number("optimizer", "tol")
    seed_val = seed if seed is not None else number("run", "seed", int)
    if errors:
        raise ValidationError(errors)

    grid = timegrid = spec = opt = None
    try:
        grid = Grid(nx, ny, lx, ly)
    except ValueError as exc:
        errors.append(f"grid: {exc}")
    try:
        timegrid = TimeGrid(T, nt)
    except ValueError as exc:
        errors.append(f"time: {exc}")

    variant = _get(cp, "potential", "variant").strip()
    reg_kind_s = _get(cp, "potential", "reg_kind").strip()
    reg_kind = None if reg_kind_s in ("none", "") else reg_kind_s
    stab_s = _get(cp, "potential", "stabilization").strip()
    try:
        probe = PotentialSpec(variant, c1, c2, eps, reg_kind, 0.0)
        stab = default_stabilization(probe) if stab_s == "auto" else float(stab_s)
        spec = PotentialSpec(variant, c1, c2, eps, reg_kind, stab)
    except Exception as exc:
        errors.append(f"potential: {exc}")

    # M and M' may be inf (no bound), never NaN
    if not M >= 0:
        errors.append(f"control: M = {M} must be nonnegative")
    if not Mprime >= 0:
        errors.append(f"control: Mprime = {Mprime} must be nonnegative")
    if not all(0 <= a < math.inf for a in alpha):
        errors.append("cost: alpha weights must be nonnegative and finite")
    elif all(a == 0 for a in alpha):
        errors.append("cost: alpha weights must not all vanish")
    for key, value in (("modes", oracle_modes), ("substeps", oracle_substeps)):
        if value < 1:
            errors.append(f"oracle: {key} = {value} must be at least 1")
    if seed_val < 0:
        errors.append(f"[run] seed = {seed_val} must be nonnegative")
    try:
        opt = OptimizerConfig(max_iters, initial_step, tol)
    except ValueError as exc:
        errors.append(f"optimizer: {exc}")
    target = _get(cp, "cost", "target").strip()
    if target not in ("zero", "inverse_crime"):
        errors.append(f"cost: unknown target {target!r}")
    if errors:
        raise ValidationError(errors)

    rng = np.random.default_rng(seed_val)

    def built(section, key, build):
        raw = _get(cp, section, key)
        try:
            return build(raw)
        except Exception as exc:
            messages = exc.messages if isinstance(exc, ValidationError) else [str(exc)]
            raise ValidationError([f"[{section}] {key} = {raw!r}: {m}" for m in messages]) from exc

    phi0 = built("initial", "phi0", lambda raw: build_field(grid, raw, rng))
    u0 = built("control", "initial", lambda raw: build_control(grid, timegrid, raw, M, rng))
    u_true = None
    if target == "inverse_crime":
        u_true = built("cost", "u_true", lambda raw: build_control(grid, timegrid, raw, M, rng))

    if spec.singular and not override_compatibility:
        # the admissible set and the initial control: phibar0 +/- M inside D(beta)
        report = validate_compatibility(phi0, max(M, u0.linf()), spec)
        if not report.passed:
            errors.append(
                f"compatibility: phi0 and the control bound M = {M:g} leave the "
                f"potential domain (margin {report.margin:g}); the run is refused "
                "without the override flag"
            )
    if errors:
        raise ValidationError(errors)

    checks_s = _get(cp, "verify", "checks").strip()
    checks = ("all",) if checks_s == "all" else tuple(
        c.strip() for c in checks_s.split(",") if c.strip()
    )
    return RunConfig(
        grid=grid,
        timegrid=timegrid,
        spec=spec,
        M=M,
        Mprime=Mprime,
        phi0=phi0,
        u0=u0,
        alpha=alpha,
        cost_target=target,
        u_true=u_true,
        optimizer=opt,
        checks=checks,
        oracle_modes=oracle_modes,
        oracle_substeps=oracle_substeps,
        seed=seed_val,
        out_dir=_get(cp, "run", "out"),
    )
