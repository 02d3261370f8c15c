"""Span tracing of chopt from outside the package.

``Tracer.install`` rebinds every public chopt function at each module-level
name that holds it (``control.solve_adjoint`` as well as
``sensitivity.solve_adjoint``), and the ``scipy.fft`` transforms at the names
the chopt modules import them under, to wrappers that record one span per
call.  In ``potentials`` only the array (``*_vec``) functions are wrapped:
the scalar functions run once per grid point inside them, and a span per
point would cost more than the work it measures.

Spans stay in memory as tuples (name, start, end, parent, extra) and are
written once, by ``write``, after the measured call.  ``layer_metrics``
derives the per-layer counts and times; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

_FFT = "fft.transform"


def _points(args, kwargs):
    values = args[1] if len(args) > 1 else kwargs["values"]
    return int(getattr(values, "size", 1))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cell_steps(args, kwargs):
    phi0 = _arg(args, kwargs, 0, "phi0")
    timegrid = _arg(args, kwargs, 3, "timegrid")
    return (timegrid.nt, phi0.grid.size * timegrid.nt)


def _file_bytes(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# What a span records besides its times, by span name.
_EXTRA = {
    "state.simulate": _cell_steps,
    "runio.write_snapshots": _file_bytes,
    "runio.write_csv": _file_bytes,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra = _points if name.startswith("potentials.") else _EXTRA.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                extra(args, kwargs) if extra else None)

        return traced

    def install(self) -> None:
        """Wrap chopt's public functions and its FFT bindings."""
        import scipy.fft

        import chopt

        modules = [chopt] + [importlib.import_module(f"chopt.{m.name}")
                             for m in pkgutil.iter_modules(chopt.__path__)]
        fft = {id(scipy.fft.dctn), id(scipy.fft.idctn)}
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in fft:
                    name = _FFT
                elif _traced_function(attr, obj):
                    name = f"{obj.__module__.removeprefix('chopt.')}.{obj.__name__}"
                else:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(name, obj)
                setattr(mod, attr, wrapped[id(obj)])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,index,name,start,end,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{name},{start!r},{end!r},{parent}\n")


def _traced_function(attr: str, obj) -> bool:
    if attr.startswith("_") or not inspect.isfunction(obj):
        return False
    module = obj.__module__ or ""
    if not module.startswith("chopt."):
        return False
    if module == "chopt.potentials":
        return obj.__name__.endswith("_vec")
    return True


def layer_metrics(spans, result: dict | None) -> dict:
    """Per-layer counts and times of one traced request.

    ``result`` is the optimizer summary (``result.json``) when the request
    ran ``run_optimize``.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def inside(target):
        # parents precede children, so one forward pass resolves ancestry
        flag = [False] * n
        for i, s in enumerate(spans):
            p = s[3]
            flag[i] = p >= 0 and (names[p] == target or flag[p])
        return flag

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, name in enumerate(names):
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        calls[name] += 1

    pot_calls = pot_points = 0
    pot_s = 0.0
    for i, s in enumerate(spans):
        if names[i].startswith("potentials.") and not (
                s[3] >= 0 and names[s[3]].startswith("potentials.")):
            pot_calls += 1
            pot_points += s[4]
            pot_s += dur[i]

    steps = sum(s[4][0] for s in spans if s[0] == "state.simulate")
    cell_steps = sum(s[4][1] for s in spans if s[0] == "state.simulate")
    sim_s = total["state.simulate"]

    in_opt = inside("control.optimize")
    forward = sum(1 for i in range(n) if in_opt[i] and names[i] == "state.simulate")
    in_int = inside("galerkin.integrate")
    jacobians = sum(1 for i in range(n) if in_int[i] and names[i] == "potentials.f_d2_vec")

    m = {
        "spectral.fft_calls": calls[_FFT],
        "spectral.fft_s": total[_FFT],
        "potentials.calls": pot_calls,
        "potentials.points": pot_points,
        "potentials.s": pot_s,
        "state.simulate_calls": calls["state.simulate"],
        "state.simulate_self_s": self_time["state.simulate"],
        "state.steps": steps,
        "state.simulate_s": sim_s,
        "state.cell_steps": cell_steps,
        "sensitivity.adjoint_calls": calls["sensitivity.solve_adjoint"],
        "sensitivity.adjoint_self_s": self_time["sensitivity.solve_adjoint"],
        "sensitivity.gradient_s": total["sensitivity.reduced_gradient"],
        "cost.cost_J_calls": calls["cost.cost_J"],
        "cost.cost_J_s": total["cost.cost_J"],
        "control.project_calls": calls["control.project_Uad"],
        "control.project_s": total["control.project_Uad"],
        "control.forward_solves": forward,
        "galerkin.integrate_self_s": self_time["galerkin.integrate"],
        "galerkin.newton_jacobians": jacobians,
        "galerkin.build_s": total["galerkin.build_system"],
        "runio.write_s": total["runio.write_snapshots"] + total["runio.write_csv"],
        "runio.bytes_written": sum(s[4] for s in spans if s[0].startswith("runio.write_")),
        "trace.spans": n,
    }
    if result is not None:
        it = int(result["iterations"])
        # every iteration accepts one candidate, except a final one that
        # converged (evaluates none) or stalled (accepts none)
        accepted = it - 1 if (result["converged"] or result["stalled"]) else it
        candidates = max(forward - 1, 0)
        m.update({
            "control.iterations": it,
            "control.accepted": accepted,
            "control.candidates": candidates,
            "control.converged": 1.0 if result["converged"] else 0.0,
            "control.J_final": float(result["J"]),
        })
    return m
