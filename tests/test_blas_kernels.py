"""Artifacts under two BLAS kernels differ by no more than roundoff.

Every cosine transform is a matrix product, and numpy's bundled OpenBLAS
picks its kernel from the CPU at run time; different kernels sum in
different orders, so the bytes of an artifact hold per kernel only.  This
runs a small ``simulate`` and ``optimize --config inverse-crime`` in two
child processes, one under the default kernel and one with
``OPENBLAS_CORETYPE`` set for that child alone, and bounds every gap at
1e-10 max(1, |.|_inf), one derived column excepted.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chopt
from chopt.runio import read_snapshots

# an odd rectangle with a band-limited datum and a random control
SIMULATE = """\
[grid]
nx = 17
ny = 9
lx = 1.3
ly = 0.7
[time]
final = 0.25
steps = 50
[potential]
variant = regular
[control]
M = 0.2
initial = random:0.1
[initial]
phi0 = band_limited:0.4:12
[run]
seed = 7
"""

# prints the running kernel's name (or "unknown": no switchable OpenBLAS),
# then writes both runs' artifacts under argv[1]
CHILD = """\
import ctypes, glob, os, sys
import numpy
from chopt.cli import main

libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
try:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
except (IndexError, OSError, AttributeError):
    print("unknown")
    sys.exit(0)
corename.restype = ctypes.c_char_p
print(corename().decode(), flush=True)
out = sys.argv[1]
sys.exit(main(["simulate", "--config", sys.argv[2], "--out", out + "/simulate"])
         or main(["optimize", "--config", "inverse-crime", "--out", out + "/optimize"]))
"""


# The Barzilai-Borwein step in history.csv is a quotient of iterate
# differences, which cancel as the iterates converge: it carries the kernels'
# roundoff gap amplified, 1.5e-6 at a largest step of 68 (SkylakeX against
# Haswell, iteration 12 of 14), while u_star.bin agrees to 5.5e-12.  Every
# other column and file is held to 1e-10.
RELATIVE_GAP = {("history.csv", "step"): 1e-6}


def run_child(tmp_path, name, cfg, coretype):
    src = str(Path(chopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    run = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / name), str(cfg)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[0]


def artifact_arrays(path):
    """An artifact's numbers, one array per snapshot file, CSV column or JSON value."""
    if path.suffix == ".bin":
        return {"": read_snapshots(path)[2]}
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return {col: np.array([float(r[i]) for r in rows[1:]]) for i, col in enumerate(rows[0])}
    return {key: np.array(float(v)) for key, v in json.loads(path.read_text()).items()}


def test_artifacts_agree_across_blas_kernels(tmp_path):
    cfg = tmp_path / "simulate.cfg"
    cfg.write_text(SIMULATE)
    default = run_child(tmp_path, "default", cfg, None)
    if default == "unknown":
        pytest.skip("the BLAS does not report a switchable kernel")
    # Haswell's kernel needs only AVX2; Sandybridge's, only AVX
    other = "Sandybridge" if default == "Haswell" else "Haswell"
    if run_child(tmp_path, "other", cfg, other) == default:
        pytest.skip(f"the CPU runs {default} under OPENBLAS_CORETYPE={other} too")
    compared = 0
    for a in sorted((tmp_path / "default").rglob("*")):
        if a.suffix not in (".bin", ".csv", ".json"):
            continue
        b = tmp_path / "other" / a.relative_to(tmp_path / "default")
        ours, theirs = artifact_arrays(a), artifact_arrays(b)
        assert ours.keys() == theirs.keys(), a
        for key, x in ours.items():
            y = theirs[key]
            assert x.shape == y.shape, (a, key)
            gap = float(np.max(np.abs(x - y), initial=0.0))
            bound = RELATIVE_GAP.get((a.name, key), 1e-10)
            assert gap <= bound * max(1.0, float(np.max(np.abs(x), initial=0.0))), (a, key, gap)
            compared += 1
    assert compared > 20
