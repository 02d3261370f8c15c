"""chopt benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 bench/run.py --workload optimize-16 --seed 0 --seconds 35 --trace 0

Closed loop: one request at a time, back to back, until ``--seconds`` have
passed.  Each request is a fresh ``python3 bench/child.py`` process that
imports chopt from ``src/``, generates its inputs from (workload, seed,
request index), calls the workload's ``chopt.cli.run_*`` entry point and
checks the artifacts.  BLAS/OpenMP pools are limited to one thread.

``--trace 0`` reports the end-to-end metrics; solve and wall times are
given as ratios to a reference kernel timed in the same process (see
``child._reference_s``).  ``--trace 1`` runs each input
twice, untraced and traced, and reports the per-layer metrics, the tracing
overhead and the transform round-trip table.  The last line of standard
output is the JSON result; the lines before it are a readable summary, the
environment stamp and per-metric sample statistics, also written to
``.bench_build/chopt-bench/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_REQUESTS = 3
ROUNDTRIP_SIZES = (16, 32, 64, 128)
# Requests still running this long after the run started are killed and
# counted as failed, so that a run always ends within three minutes.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _input_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _spawn(request: dict, env: dict, deadline: float):
    """Run one child; returns (reply or None, wall seconds, error text)."""
    request["t_spawn"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, 0.0, "request timed out"
    wall = time.monotonic() - request["t_spawn"]
    if proc.returncode != 0:
        return None, wall, err.strip()[-2000:] or f"exit code {proc.returncode}"
    return json.loads(out.strip().splitlines()[-1]), wall, ""


def _upper(values):
    """Highest of p99/p90/p75/p50 with at least ten samples above it, else the max."""
    n = len(values)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}", q
    return "max", max(values)


def _describe(values) -> dict:
    label, value = _upper(values)
    return {"median": statistics.median(values), label: value, "n": len(values)}


def _env_stamp(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # numpy's build report varies by version
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "chopt").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: "1" for var in THREAD_VARS},
        "scipy_fft_workers": 1,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(traced, untraced, roundtrip) -> dict:
    """Per-layer metrics: means over traced requests, ratios from sums."""
    layers = [r["layers"] for r in traced]
    k = len(layers)

    def total(key):
        return sum(l.get(key, 0) for l in layers)

    def mean(key):
        return total(key) / k

    m = {}
    for key in ("spectral.fft_calls", "spectral.fft_s", "potentials.calls",
                "potentials.points", "potentials.s", "state.simulate_calls",
                "state.simulate_self_s", "sensitivity.adjoint_calls",
                "sensitivity.adjoint_self_s", "sensitivity.gradient_s",
                "cost.cost_J_calls", "cost.cost_J_s", "control.project_calls",
                "control.project_s", "control.iterations", "control.forward_solves",
                "galerkin.integrate_self_s", "galerkin.newton_jacobians",
                "galerkin.build_s", "runio.write_s", "runio.bytes_written",
                "trace.spans"):
        m[key] = mean(key)
    m["potentials.ns_per_point"] = 1e9 * _ratio(total("potentials.s"), total("potentials.points"))
    m["state.step_us"] = 1e6 * _ratio(total("state.simulate_s"), total("state.steps"))
    m["state.cell_steps_per_s"] = _ratio(total("state.cell_steps"), total("state.simulate_s"))
    m["control.project_ms_per_call"] = 1e3 * _ratio(total("control.project_s"),
                                                    total("control.project_calls"))
    m["control.backtracks"] = (total("control.candidates") - total("control.accepted")) / k
    m["control.accept_ratio"] = _ratio(total("control.accepted"), total("control.candidates"))
    m["control.converged"] = mean("control.converged")
    opt = [r["facts"] for r in traced if "stationarity_final" in r["facts"]]
    m["control.stationarity_final"] = (
        statistics.median(f["stationarity_final"] for f in opt) if opt else 0.0)
    m["control.J_final"] = statistics.median(f["J_final"] for f in opt) if opt else 0.0
    everyone = traced + untraced
    m["cli.import_s"] = statistics.median(r["import_s"] for r in everyone)
    m["config.parse_s"] = statistics.median(r["parse_s"] for r in everyone)
    # each input runs untraced and then traced, back to back: compare in pairs
    plain = {r["input_seed"]: r["solve_s"] for r in untraced}
    m["trace.overhead_s"] = statistics.median(
        r["solve_s"] - plain[r["input_seed"]] for r in traced if r["input_seed"] in plain)
    for n in ROUNDTRIP_SIZES:
        m[f"spectral.roundtrip_us.{n}"] = roundtrip[str(n)]
    return m


def _recorded(replies) -> dict:
    """Values reported without gating them."""
    facts = [r["facts"] for r in replies]
    rec = {}
    if facts and "converged" in facts[0]:
        rec["converged"] = sum(f["converged"] for f in facts)
        rec["stalled"] = sum(f["stalled"] for f in facts)
        rec["of"] = len(facts)
        rec["iterations"] = _describe([f["iterations"] for f in facts])
    if facts and "max_phi_error" in facts[0]:
        rec["max_phi_error"] = _describe([f["max_phi_error"] for f in facts])
        rec["max_mu_error"] = _describe([f["max_mu_error"] for f in facts])
        rec["final_phi_error"] = _describe([f["final_phi_error"] for f in facts])
        rec["final_phi_error_scaled"] = _describe([f["final_phi_error_scaled"] for f in facts])
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ENTRY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chopt" / "__init__.py").is_file():
        print(f"error: no chopt sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / "chopt-bench" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    roundtrip = None
    if args.trace:
        reply, _, err = _spawn({"kind": "roundtrip", "src": str(SRC),
                                "sizes": list(ROUNDTRIP_SIZES), "budget_s": 0.2},
                               env, deadline)
        if reply is None:
            print(f"error: transform round-trip measurement failed: {err}", file=sys.stderr)
            return 1
        roundtrip = reply["roundtrip_us"]

    untraced, traced, errors = [], [], []
    attempted = failed = index = 0
    while index < MIN_REQUESTS or time.monotonic() - start < args.seconds:
        modes = (False, True) if args.trace else (False,)
        for traced_mode in modes:
            request = {
                "src": str(SRC),
                "workload": args.workload,
                "input_seed": _input_seed(args.workload, args.seed, index),
                "run_id": f"{args.seed}-{index}",
                "out": str(out_dir / "out"),
                "trace": traced_mode,
            }
            attempted += 1
            reply, wall, err = _spawn(request, env, deadline)
            if reply is None:
                failed += 1
                errors.append(err)
                continue
            reply["wall_s"] = wall - reply["post_s"] - reply["reference_s"]
            reply["input_seed"] = request["input_seed"]
            if not reply["passed"]:
                failed += 1
                errors.append(f"input seed {request['input_seed']}: checks failed: "
                              f"{json.dumps(reply['facts'])}")
            (traced if traced_mode else untraced).append(reply)
        index += 1
    for err in errors:
        print(f"request failed: {err}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no request completed", file=sys.stderr)
        return 1

    samples = {
        "setup_s": [r["setup_s"] for r in untraced],
        "solve_s": [r["solve_s"] for r in untraced],
        "wall_s": [r["wall_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "reference_s": [r["reference_s"] for r in untraced],
    }
    if args.trace:
        metrics = _layer_metrics(traced, untraced, roundtrip)
    else:
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            # means, not medians: each request has its own input, and the
            # mean averages out how much work an input takes
            "solve_ref": statistics.mean(r["solve_s"] / r["reference_s"] for r in untraced),
            "wall_ref": statistics.mean(r["wall_s"] / r["reference_s"] for r in untraced),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "pass_rate": (attempted - failed) / attempted,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    detail = {
        "env": _env_stamp(args),
        "samples": {k: _describe(v) for k, v in samples.items()},
        "fail_rate": failed / attempted,
        "recorded_not_gated": _recorded(untraced + traced),
        "requests": [{k: r[k] for k in ("input_seed", "passed", "setup_s", "solve_s", "reference_s",
                                        "wall_s", "peak_rss_mb", "facts")}
                     for r in untraced + traced],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} requests, "
          f"{failed} failed, fail_rate {failed / attempted:g}")
    for k, u in units.items():
        print(f"  {k:32s} {metrics[k]:>14.6g} {u}")
    for k, d in detail["samples"].items():
        print(f"  sample {k:25s} " + ", ".join(f"{a} {b:.6g}" for a, b in d.items()))
    if detail["recorded_not_gated"]:
        print("  recorded, not gated: " + json.dumps(detail["recorded_not_gated"]))
    print("env: " + json.dumps(detail["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
