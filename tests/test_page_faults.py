"""A 128 x 128 forward step takes no page faults once the solve is under way.

Every step temporary of a 128 x 128 grid is one 128 KiB field.  Unless glibc's
trim threshold is held above that, each free hands the top of the heap back
to the kernel and the next step faults it in again: about 55 minor faults a
step.  ``state._pin_trim_threshold`` holds it; this test counts the faults of
steps 20 to 120 of a forward solve in a fresh process, whose heap no earlier
work has shaped.  Off glibc there is no such threshold, and the test skips.

Run as a script with a config path, the module makes the same count through
the command line: ``python -m chopt.cli simulate`` at 20 and at 120 steps of
the config's time step, the faults of each child read from
``RUSAGE_CHILDREN``.
"""

import configparser
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import chopt

# minor faults per step allowed; with the pin a step takes none, without it 53 to 58
MAX_FAULTS_PER_STEP = 5
# the counted steps: from FIRST_STEP, past the solve's setup, to LAST_STEP
FIRST_STEP, LAST_STEP = 20, 120

# a constant control built directly, no parse_config: the first frees of the
# process are the solve's own; prints the faults per counted step
CHILD = f"""\
import resource
import numpy as np
from chopt.config import build_field
from chopt.potentials import PotentialSpec
from chopt.spectral import Grid
from chopt.state import ControlFunction, TimeGrid, _forward_rows

grid, tg = Grid(128, 128, 1.0), TimeGrid({LAST_STEP} * 1e-3, {LAST_STEP})
spec = PotentialSpec("logarithmic", 2.0, 1.0, 1e-4, "piecewise_log", 17.0)
phi0 = build_field(grid, "smooth:-0.6:0.6", np.random.default_rng(7))
faults = {{}}
for n, _ in enumerate(_forward_rows(phi0, ControlFunction.constant(grid, tg, 0.1), spec, tg)):
    faults[n] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((faults[{LAST_STEP}] - faults[{FIRST_STEP}]) / {LAST_STEP - FIRST_STEP})
"""


def _env():
    src = str(Path(chopt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's trim threshold only")
def test_a_128_forward_step_takes_no_page_faults():
    run = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                         env=_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) <= MAX_FAULTS_PER_STEP


def cli_faults_per_step(path: Path) -> float:
    """Minor faults per step of ``chopt simulate`` on the config at ``path``, from the
    difference of runs of FIRST_STEP and LAST_STEP steps of its time step."""
    from resource import RUSAGE_CHILDREN, getrusage

    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path)
    tau = float(cp["time"]["final"]) / int(cp["time"]["steps"])
    faults = []
    with tempfile.TemporaryDirectory() as d:
        for steps in (FIRST_STEP, LAST_STEP):
            cp["time"]["final"], cp["time"]["steps"] = repr(steps * tau), str(steps)
            cfg = Path(d) / f"steps{steps}.cfg"
            with open(cfg, "w") as fh:
                cp.write(fh)
            before = getrusage(RUSAGE_CHILDREN).ru_minflt
            subprocess.run([sys.executable, "-m", "chopt.cli", "simulate", "--config", str(cfg),
                            "--out", str(Path(d) / f"out{steps}")], env=_env(), check=True)
            faults.append(getrusage(RUSAGE_CHILDREN).ru_minflt - before)
    return (faults[1] - faults[0]) / (LAST_STEP - FIRST_STEP)


if __name__ == "__main__":
    per_step = cli_faults_per_step(Path(sys.argv[1]))
    print(f"simulate {sys.argv[1]}: {per_step:g} minor faults per step "
          f"(steps {FIRST_STEP} to {LAST_STEP}; at most {MAX_FAULTS_PER_STEP})")
    sys.exit(per_step > MAX_FAULTS_PER_STEP)
