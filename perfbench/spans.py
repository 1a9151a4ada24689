"""Spans around calls into the layers of the ``dbc`` package.

The benchmark wraps public functions and methods of ``dbc`` from outside the
package.  A wrapper records one span per call (name, start, end, parent span,
run id) and may attach a count taken from the call's arguments or result; it
never changes an argument, a result or an exception.  Spans stay in memory
and are written out when the run ends.

A span's name is ``<layer>.<what>``; the layer is the ``dbc`` module the
call belongs to.  ``PHASES`` are the five calls that the end-to-end metrics
time, and they are wrapped in every run.  ``LAYERS`` are wrapped only in the
traced run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def current_rss_mib():
    """Resident memory of this process now, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MIB


def _pdas_counts(span, args, result):
    diag = result.diagnostics
    span["outer_iterations"] = diag.outer_iterations
    span["active_upper"] = diag.num_upper_active
    span["active_lower"] = diag.num_lower_active


def _cg_iterations(span, args, result):
    span["iterations"] = result[1]


def _output_bytes(span, args, result):
    span["bytes"] = os.path.getsize(args[1])


# (module, attribute, span name, hook on the result, record memory growth)
PHASES = [
    ("dbc.manufactured", "setup_problem", "manufactured.setup", None, False),
    ("dbc.optimizer", "pdas_solve", "optimizer.pdas", _pdas_counts, False),
    ("dbc.manufactured", "energy_error_state", "manufactured.state_norm", None, False),
    ("dbc.manufactured", "energy_error_adjoint", "manufactured.adjoint_norm", None, False),
    ("dbc.manufactured", "control_error", "manufactured.control_norm", None, False),
]

LAYERS = [
    ("dbc.mesh", "unit_square_mesh", "mesh.build", None, False),
    ("dbc.mesh", "uniform_time_partition", "mesh.build", None, False),
    ("dbc.assembly", "Discretization.__init__", "assembly.discretization", None, True),
    ("dbc.assembly", "Discretization.slab_solver", "assembly.slab_solver", None, False),
    ("dbc.assembly", "Discretization.coupling_all", "assembly.coupling", None, False),
    ("dbc.assembly", "Discretization.coupling_transpose", "assembly.coupling", None, False),
    ("dbc.assembly", "Discretization.misfit_quadrature", "assembly.misfit_quadrature", None, False),
    ("dbc.assembly", "EnergyExtension.__init__", "assembly.extension_factor", None, True),
    ("dbc.assembly", "EnergyExtension.solve", "assembly.extension_solve", None, False),
    ("dbc.assembly", "spatial_load_vector", "assembly.load_vector", None, False),
    # Every sparse LU in dbc goes through this name (``spla.splu``).
    ("scipy.sparse.linalg", "splu", "assembly.splu", None, False),
    ("dbc.forward", "sweep_forward", "forward.sweep", None, False),
    ("dbc.adjoint", "sweep_backward", "adjoint.sweep", None, False),
    ("dbc.adjoint", "tracking_slabs", "adjoint.tracking_load", None, False),
    ("dbc.optimizer", "ReducedProblem.__init__", "optimizer.reduced_problem", None, False),
    ("dbc.optimizer", "ReducedProblem.trace_hessian", "optimizer.hessian", None, False),
    ("dbc.optimizer", "_pcg", "optimizer.cg", _cg_iterations, False),
    ("dbc.manufactured", "run_study", "manufactured.study", None, False),
    ("dbc.manufactured", "StudyReport.write_csv", "cli.write", _output_bytes, False),
    ("dbc.manufactured", "StudyReport.write_json", "cli.write", _output_bytes, False),
    ("dbc.cli", "main", "cli.main", None, False),
]

LAYER_NAMES = ["mesh", "assembly", "forward", "adjoint", "optimizer",
               "manufactured", "cli"]


class Recorder:
    """Collects the spans of one run, in call order."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def wrap(self, name, fn, hook=None, rss=False):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(recorder.spans),
                "name": name,
                "parent": recorder._open[-1] if recorder._open else None,
                "run": recorder.run_id,
            }
            recorder.spans.append(span)
            recorder._open.append(span["id"])
            rss_before = current_rss_mib() if rss else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                recorder._open.pop()
            if rss:
                span["rss_mib"] = current_rss_mib() - rss_before
            if hook is not None:
                hook(span, args, result)
            return result

        return wrapper


def install(recorder, targets):
    """Replace every target by its wrapper, in its own module or class and in
    every ``dbc`` module that imported the same object under any name."""
    importlib.import_module("dbc")
    for module_name, attr, name, hook, rss in targets:
        owner = importlib.import_module(module_name)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        wrapped = recorder.wrap(name, original, hook, rss)
        setattr(owner, path[-1], wrapped)
        if len(path) > 1:
            # Methods are looked up on the class by every caller.
            continue
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dbc" and not mod_name.startswith("dbc."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _children(spans):
    kids = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def self_times(spans):
    """Span id -> the part of its interval that no child span covers.

    Children of one span are sequential (one thread), so the uncovered part
    is the sum of the gaps between them; each gap is a difference of two
    ordered clock readings and so never negative."""
    kids = _children(spans)
    out = {}
    for s in spans:
        t = s["start"]
        own = 0.0
        for c in kids[s["id"]]:
            own += c["start"] - t
            t = c["end"]
        out[s["id"]] = own + (s["end"] - t)
    return out


def _ancestors(spans):
    by_id = {s["id"]: s for s in spans}

    def chain(s):
        out = []
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            out.append(s)
        return out

    return chain


def _duration(s):
    return s["end"] - s["start"]


def phase_seconds(spans):
    """The end-to-end phase times from the PHASES spans."""
    def total(*names):
        return sum(_duration(s) for s in spans if s["name"] in names)

    return {
        "setup_s": total("manufactured.setup"),
        "solve_s": total("optimizer.pdas"),
        "norms_s": total("manufactured.state_norm", "manufactured.adjoint_norm",
                         "manufactured.control_norm"),
    }


def layer_metrics(spans):
    """Per-layer metrics of one traced run, by their BENCHMARK.json names."""
    chain = _ancestors(spans)
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        # Outermost spans of this name only, so recursion is not counted twice.
        return sum(_duration(s) for s in named(name)
                   if all(a["name"] != name for a in chain(s)))

    def total(name, key):
        return sum(s.get(key, 0) for s in named(name))

    hessian_s = seconds("optimizer.hessian")
    pdas_hessian_s = sum(
        _duration(s) for s in named("optimizer.hessian")
        if any(a["name"] == "optimizer.pdas" for a in chain(s))
        and all(a["name"] != "optimizer.hessian" for a in chain(s))
    )
    hessian_actions = len(named("optimizer.hessian"))
    cg_iterations = total("optimizer.cg", "iterations")
    metrics = {
        "forward.sweep_s": seconds("forward.sweep"),
        "forward.sweeps": len(named("forward.sweep")),
        "adjoint.sweep_s": seconds("adjoint.sweep"),
        "adjoint.sweeps": len(named("adjoint.sweep")),
        "adjoint.tracking_load_s": seconds("adjoint.tracking_load"),
        "assembly.slab_solves": len(named("assembly.slab_solver")),
        "assembly.extension_solve_s": seconds("assembly.extension_solve"),
        "assembly.extension_solves": len(named("assembly.extension_solve")),
        "assembly.extension_factor_s": seconds("assembly.extension_factor"),
        "assembly.extension_factors": sum(
            1 for s in named("assembly.splu")
            if any(a["name"] == "assembly.extension_factor" for a in chain(s))
        ),
        "assembly.extension_rss_mib": total("assembly.extension_factor", "rss_mib"),
        "assembly.discretization_s": seconds("assembly.discretization"),
        "assembly.discretization_rss_mib": total("assembly.discretization", "rss_mib"),
        "assembly.load_quadrature_s": seconds("assembly.load_vector"),
        "assembly.load_vectors": len(named("assembly.load_vector")),
        "assembly.coupling_s": seconds("assembly.coupling"),
        "assembly.misfit_quadrature_s": seconds("assembly.misfit_quadrature"),
        "optimizer.hessian_s": hessian_s,
        "optimizer.hessian_actions": hessian_actions,
        "optimizer.cg_s": seconds("optimizer.cg"),
        "optimizer.cg_iterations": cg_iterations,
        "optimizer.outer_iterations": total("optimizer.pdas", "outer_iterations"),
        "optimizer.active_upper": total("optimizer.pdas", "active_upper"),
        "optimizer.active_lower": total("optimizer.pdas", "active_lower"),
        "optimizer.pdas_self_s": seconds("optimizer.pdas") - pdas_hessian_s,
        "optimizer.hessian_per_cg": (
            hessian_actions / cg_iterations if cg_iterations else 0.0
        ),
        "optimizer.reduced_problem_s": seconds("optimizer.reduced_problem"),
        "manufactured.state_norm_s": seconds("manufactured.state_norm"),
        "manufactured.adjoint_norm_s": seconds("manufactured.adjoint_norm"),
        "manufactured.control_norm_s": seconds("manufactured.control_norm"),
        "mesh.build_s": seconds("mesh.build"),
        "cli.write_s": seconds("cli.write"),
        "cli.output_bytes": total("cli.write", "bytes"),
    }
    for layer in LAYER_NAMES:
        mine = [s for s in spans if s["name"].split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = sum(own[s["id"]] for s in mine)
        metrics[f"{layer}.total_s"] = sum(
            _duration(s) for s in mine
            if all(a["name"].split(".")[0] != layer for a in chain(s))
        )
    return metrics
