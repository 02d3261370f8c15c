"""Command-line entry point: simulate, optimize, verify, oracle-compare.

Each subcommand reads one config file (or a named packaged preset), writes
its artifacts into the output directory, and exits 0 on success.  Failures
leave a machine-readable ``failure.json`` in the output directory and exit
nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path


from .config import RunConfig, parse_config
from .control import ControlProblem, optimize
from .cost import CostSpec
from .errors import ChoptError, ValidationError
from .galerkin import build_system, compare_to_pde, integrate, project_initial
from .runio import write_csv, write_snapshots
from .state import simulate
from .verify import run_checks

__all__ = ["main", "run_simulate", "run_optimize", "run_verify", "run_oracle_compare"]

_DIAG_COLUMNS = ("t", "mean", "energy", "min_phi", "max_phi", "grad_mu_norm")


def _resolve_config(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.is_file():
        return p
    base = resources.files("chopt").joinpath("presets")
    for candidate in (name_or_path, name_or_path + ".cfg"):
        preset = base.joinpath(candidate)
        if preset.is_file():
            return Path(str(preset))
    return p  # parse_config reports the missing file


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_diagnostics(out: Path, diagnostics: dict) -> None:
    rows = zip(*(diagnostics[c] for c in _DIAG_COLUMNS))
    write_csv(out / "diagnostics.csv", _DIAG_COLUMNS, rows)


def _build_cost(cfg: RunConfig) -> CostSpec:
    phi_q = phi_omega = mu_q = None
    if cfg.cost_target == "inverse_crime":
        traj = simulate(cfg.phi0, cfg.u_true, cfg.spec, cfg.timegrid,
                        check_compatibility=False, with_diagnostics=False)
        phi_q = traj.phi.copy()
        phi_omega = traj.phi[-1].copy()
        if cfg.alpha[2] > 0:
            mu_q = traj.mu.copy()
    return CostSpec(cfg.grid, cfg.timegrid, cfg.alpha, phi_q, phi_omega, mu_q)


def run_simulate(cfg: RunConfig, out: Path) -> int:
    # parse_config has checked (phi0, max(M, ||u0||_inf)) unless overridden
    traj = simulate(cfg.phi0, cfg.u0, cfg.spec, cfg.timegrid, check_compatibility=False)
    _write_diagnostics(out, traj.diagnostics)
    write_snapshots(out / "phi.bin", cfg.grid, traj.phi)
    write_snapshots(out / "mu.bin", cfg.grid, traj.mu)
    print(f"simulate: {cfg.timegrid.nt} steps, final mean {traj.means()[-1]:.6g}, "
          f"artifacts in {out}")
    return 0


def run_optimize(cfg: RunConfig, out: Path) -> int:
    cost = _build_cost(cfg)
    problem = ControlProblem(cfg.phi0, cfg.spec, cfg.timegrid, cfg.M, cfg.Mprime)
    result = optimize(cfg.u0, problem, cost, cfg.optimizer)
    header = ("iter", "J", "step", "stationarity", "feasibility_linf", "feasibility_h1")
    write_csv(out / "history.csv", header,
              ([row[c] for c in header] for row in result.history))
    write_snapshots(out / "u_star.bin", cfg.grid, result.u.slices)
    traj = simulate(cfg.phi0, result.u, cfg.spec, cfg.timegrid)
    _write_diagnostics(out, traj.diagnostics)
    write_snapshots(out / "phi.bin", cfg.grid, traj.phi)
    summary = {
        "converged": result.converged,
        "stalled": result.stalled,
        "iterations": result.iterations,
        "J": result.J,
    }
    (out / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"optimize: J = {result.J:.6g} after {result.iterations} iterations "
          f"(converged={result.converged}, stalled={result.stalled})")
    return 0


def run_verify(cfg: RunConfig, out: Path) -> int:
    results = run_checks(cfg.checks, cfg.seed)
    rows = [
        (r.name, r.module, r.passed, r.measured, r.details.replace(",", ";"))
        for r in results
    ]
    write_csv(out / "verification.csv", ("name", "module", "passed", "measured", "details"), rows)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.measured:.3e} ({r.details})")
    print(f"verify: {len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def run_oracle_compare(cfg: RunConfig, out: Path) -> int:
    pde = simulate(cfg.phi0, cfg.u0, cfg.spec, cfg.timegrid,
                   check_compatibility=False, with_diagnostics=False)
    system = build_system(cfg.grid, cfg.oracle_modes)
    y0 = project_initial(cfg.phi0, cfg.oracle_modes)
    oracle = integrate(system, y0, cfg.u0, cfg.spec, cfg.timegrid,
                       substeps=cfg.oracle_substeps)
    report = compare_to_pde(oracle, pde)
    ts = cfg.timegrid.times()
    rows = ((n, ts[n], report.phi_errors[n], report.mu_errors[n])
            for n in range(cfg.timegrid.nt + 1))
    write_csv(out / "oracle_errors.csv", ("step", "t", "phi_error", "mu_error"), rows)
    print(f"oracle-compare: n = {cfg.oracle_modes}, max relative phi error "
          f"{report.max_phi_error:.3e}, max scaled mu error {report.max_mu_error:.3e} "
          f"(against max(max_n |mu^n|, |1|))")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chopt",
        description="Phase-field simulation and optimal control toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "optimize", "verify", "oracle-compare"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="config file path or packaged preset name")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--override-compatibility", action="store_true",
                        help="parse and simulate (phi0, M) that leave the potential domain; "
                             "optimize still refuses them (exit 2, ConfigurationError)")
    args = parser.parse_args(argv)

    out_for_failure = Path(args.out) if args.out else Path(".")
    try:
        cfg = parse_config(
            _resolve_config(args.config),
            override_compatibility=args.override_compatibility,
            seed=args.seed,
        )
        out = _out_dir(cfg, args.out)
        if args.command == "simulate":
            return run_simulate(cfg, out)
        if args.command == "optimize":
            return run_optimize(cfg, out)
        if args.command == "verify":
            return run_verify(cfg, out)
        return run_oracle_compare(cfg, out)
    except ChoptError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ValidationError):
            record["messages"] = exc.messages
        try:
            out_for_failure.mkdir(parents=True, exist_ok=True)
            (out_for_failure / "failure.json").write_text(json.dumps(record, indent=2) + "\n")
        except OSError:
            pass
        print(f"error ({record['error']}): {record['message']}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
