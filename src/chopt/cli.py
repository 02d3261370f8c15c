"""Command-line entry point: simulate, optimize, verify, oracle-compare.

Each subcommand reads one config file (or a named packaged preset), writes
its artifacts into the output directory, and exits 0 on success.  Failures
leave a machine-readable ``failure.json`` in the output directory (``--out``,
else the config's ``[run] out``; ``--out`` or the working directory when the
config cannot be read or the directory cannot be made) and exit nonzero.

``simulate`` writes phi.bin and mu.bin as the forward steps produce their
rows, so its memory does not grow with the number of steps; ``optimize``
writes the phi.bin and diagnostics.csv of u* the same way.  The files
appear, replacing any earlier ones, only when the run succeeds; a failed run
leaves the output directory's earlier artifacts as they were.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from importlib import resources
from pathlib import Path

from .config import RunConfig, parse_config
from .control import ControlProblem, optimize
from .cost import CostSpec
from .errors import ChoptError, ConfigurationError, ValidationError
from .galerkin import build_system, compare_to_pde, integrate, project_initial
from .runio import SnapshotWriter, write_csv, write_snapshots
from .state import _DIAG_COLUMNS, _forward_rows, simulate
from .verify import run_checks

__all__ = ["main", "run_simulate", "run_optimize", "run_verify", "run_oracle_compare"]


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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output directory {str(out)!r} cannot be created: {exc}") from exc
    return out


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


def _write_forward(out: Path, cfg: RunConfig, u, with_mu: bool) -> list:
    """Stream the forward run of u to phi.bin (and mu.bin) step by step, then diagnostics.csv; return its rows."""
    count = cfg.timegrid.nt + 1
    rows = []
    with (SnapshotWriter(out / "phi.bin", cfg.grid, count) as phi,
          SnapshotWriter(out / "mu.bin", cfg.grid, count) if with_mu else nullcontext() as mu):
        # parse_config has checked (phi0, max(M, ||u0||_inf)) unless overridden,
        # and optimize has checked (phi0, M) and returns an admissible u*
        for phi_n, mu_n, row in _forward_rows(cfg.phi0, u, cfg.spec, cfg.timegrid,
                                              check_compatibility=False):
            phi.write(phi_n)
            if mu is not None:
                mu.write(mu_n)
            rows.append(row)
    write_csv(out / "diagnostics.csv", _DIAG_COLUMNS, rows)
    return rows


def run_simulate(cfg: RunConfig, out: Path) -> int:
    rows = _write_forward(out, cfg, cfg.u0, with_mu=True)
    final_mean = rows[-1][_DIAG_COLUMNS.index("mean")]
    print(f"simulate: {cfg.timegrid.nt} steps, final mean {final_mean:.6g}, "
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
    _write_forward(out, cfg, result.u, with_mu=False)
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
    rows = ((r.name, r.module, r.passed, r.measured, r.sense, r.bound, r.details.replace(",", ";"))
            for r in results)
    write_csv(out / "verification.csv",
              ("name", "module", "passed", "measured", "sense", "bound", "details"), rows)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.measured:.3e} {r.sense} {r.bound:.3g} "
              f"({r.details})")
    print(f"verify: {len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def run_oracle_compare(cfg: RunConfig, out: Path) -> int:
    # the mode count is checked against the grid before the forward solve
    system = build_system(cfg.grid, cfg.oracle_modes)
    y0 = project_initial(cfg.phi0, cfg.oracle_modes)
    pde = simulate(cfg.phi0, cfg.u0, cfg.spec, cfg.timegrid,
                   check_compatibility=False, with_diagnostics=False)
    oracle = integrate(system, y0, cfg.u0, cfg.spec, substeps=cfg.oracle_substeps)
    report = compare_to_pde(oracle, pde)
    ts = cfg.timegrid.times()
    rows = ((n, ts[n], report.phi_errors[n], report.mu_errors[n])
            for n in range(cfg.timegrid.nt + 1))
    write_csv(out / "oracle_errors.csv", ("step", "t", "phi_error", "mu_error"), rows)
    print(f"oracle-compare: n = {cfg.oracle_modes}, max relative phi error "
          f"{report.max_phi_error:.3e}, max scaled mu error {report.max_mu_error:.3e} "
          f"(against max(max_n |mu^n|, |1|)); Newton iterations "
          f"{oracle.newton_iterations}, Jacobians built {oracle.jacobians}")
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
        out = out_for_failure = _out_dir(cfg, args.out)
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
