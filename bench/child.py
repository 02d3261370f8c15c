"""One benchmark request, run in a fresh interpreter by ``run.py``.

Usage: python3 child.py '<json request>'

The request names the workload, the input seed, the output directory, the
parent's ``time.monotonic()`` at spawn and whether to trace.  The child
imports chopt from the checkout's ``src``, generates and parses the config,
times the workload's ``chopt.cli`` entry point, checks the artifacts and
prints one JSON line with its timings, checks and (when traced) per-layer
metrics.  ``time.monotonic`` is the system-wide monotonic clock on Linux,
so the parent's spawn time and the child's readings share one time base.

With ``"kind": "roundtrip"`` it instead measures one ``to_spectral`` +
``from_spectral`` round trip per grid size: the fastest of repeated ~10 ms
batches, which on a shared machine is the least disturbed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _import_chopt(src: Path):
    t0 = time.monotonic()
    import chopt
    import chopt.cli  # noqa: F401  (the entry points)

    import_s = time.monotonic() - t0
    origin = Path(chopt.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"chopt imported from {origin}, not from {src}")
    return import_s


def _roundtrip(sizes, budget_s: float) -> dict:
    import numpy as np

    from chopt.spectral import Field, Grid, from_spectral, to_spectral

    rng = np.random.default_rng(0)
    out = {}
    for n in sizes:
        f = Field(Grid(n, n, 1.0), rng.standard_normal(n * n))
        batch = 1
        while True:  # size a batch to ~10 ms
            t0 = time.perf_counter()
            for _ in range(batch):
                from_spectral(to_spectral(f))
            if time.perf_counter() - t0 >= 0.01:
                break
            batch *= 2
        per_call = []
        end = time.perf_counter() + budget_s
        while time.perf_counter() < end or len(per_call) < 5:
            t0 = time.perf_counter()
            for _ in range(batch):
                from_spectral(to_spectral(f))
            per_call.append((time.perf_counter() - t0) / batch)
        out[str(n)] = min(per_call) * 1e6
    return out


def _reference_s() -> float:
    """Time a fixed mix of small transforms, large transforms, array streaming
    and interpreted Python; the mix does not use chopt.

    On a shared machine a process can run up to 1.8x slower for phases of
    seconds to minutes, differently on each CPU.  Timed in the request's own
    process right after the solve, this kernel slows down with it, so the
    ratio of the two cancels most of that drift; and the kernel cannot
    change with the program under test.
    """
    import numpy as np
    from scipy.fft import dctn, idctn

    # four parts of about 40 ms each on a 2-vCPU Xeon VM
    t0 = time.perf_counter()
    small = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)
    for _ in range(1000):
        small = idctn(dctn(small, norm="ortho"), norm="ortho")
    large = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
    for _ in range(80):
        large = np.tanh(idctn(dctn(large, norm="ortho"), norm="ortho") + 0.5 * large)
    stream = np.linspace(-1.0, 1.0, 2_000_000)
    for _ in range(3):
        stream = np.tanh(0.5 * stream + 0.1)
    total = 0
    for i in range(600_000):
        total += i % 7
    return time.perf_counter() - t0


def main(request: dict) -> dict:
    src = Path(request["src"])
    import_s = _import_chopt(src)
    if request.get("kind") == "roundtrip":
        return {"roundtrip_us": _roundtrip(request["sizes"], request["budget_s"])}

    import chopt.cli
    import workloads  # from this script's directory, first on sys.path

    name = request["workload"]
    out = Path(request["out"])
    out.mkdir(parents=True, exist_ok=True)
    cfg, parse_s = workloads.build_config(name, request["input_seed"], out)
    setup_end = time.monotonic()

    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer(request["run_id"])
        tracer.install()

    entry = getattr(chopt.cli, workloads.ENTRY[name])
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        code = entry(cfg, out)
    solve_s = time.monotonic() - t0
    n_spans = len(tracer.spans) if tracer is not None else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # everything below is excluded from the request's wall time
    reference_s = _reference_s()

    t_check = time.monotonic()
    passed, facts = workloads.check_outputs(name, cfg, out)
    reply = {
        "code": code,
        "passed": bool(passed and code == 0),
        "facts": facts,
        "import_s": import_s,
        "parse_s": parse_s,
        "setup_s": setup_end - request["t_spawn"],
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "reference_s": reference_s,
    }
    if tracer is not None:
        from spans import layer_metrics

        result = None
        if workloads.ENTRY[name] == "run_optimize":
            result = json.loads((out / "result.json").read_text())
        del tracer.spans[n_spans:]  # the checks' own calls into chopt
        reply["layers"] = layer_metrics(tracer.spans, result)
        tracer.write(out / f"spans-{request['run_id']}.csv")
    reply["post_s"] = time.monotonic() - t_check
    return reply


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
