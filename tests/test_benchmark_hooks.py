"""The benchmark's trace hooks name functions that exist.

``perfbench/spans.py`` wraps ``dbc`` functions and methods by module and
attribute name from outside the package.  A rename inside ``dbc`` would
only show when a traced benchmark run crashes; this test catches it first.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from dbc import adjoint, forward, kernels, optimizer
from dbc.assembly import Discretization
from dbc.manufactured import bump_case, setup_problem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    targets = spans.PHASES + spans.LAYERS
    assert targets
    for module_name, attr, *_ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            if not hasattr(owner, part):
                pytest.fail(f"{module_name}.{attr} does not resolve at {part!r}")
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_every_factor_goes_through_dpbtrf(monkeypatch):
    """Every factor in ``dbc`` is made by ``dbc.kernels.dpbtrf``, the
    GIL-free LAPACK kernel; at 8x6 that is one call per extension time
    mode and one for the slab system."""
    calls = []
    dpbtrf = kernels.dpbtrf

    def counted(band):
        calls.append(band.shape)
        return dpbtrf(band)

    monkeypatch.setattr(kernels, "dpbtrf", counted)
    problem = setup_problem(8, 6, bump_case())
    assert problem.disc.mesh.num_control_levels == 5
    assert len(calls) == 5 + 1


def test_setup_sweeps_once_each_way_and_evaluates_the_data_once(monkeypatch):
    """Set-up at 8x6 marches the slabs once forward, for the state at the
    anchor, and once in reverse, for the adjoint there.  It evaluates f and
    u_d once each, by ``time_loads``, and the objective at the anchor comes
    from their loads, with no ``misfit_quadrature``."""
    marches = []
    march = forward.march

    def counted_march(disc, slab_rhs, start=None, reverse=False):
        marches.append(reverse)
        return march(disc, slab_rhs, start, reverse)

    loads = []
    time_loads = Discretization.time_loads

    def counted_loads(self, g):
        loads.append(g)
        return time_loads(self, g)

    misfits = []
    misfit_quadrature = Discretization.misfit_quadrature

    def counted_misfit(self, *args):
        misfits.append(args)
        return misfit_quadrature(self, *args)

    monkeypatch.setattr(forward, "march", counted_march)
    monkeypatch.setattr(adjoint, "march", counted_march)
    monkeypatch.setattr(Discretization, "time_loads", counted_loads)
    monkeypatch.setattr(Discretization, "misfit_quadrature", counted_misfit)
    case = bump_case()
    setup_problem(8, 6, case)
    assert marches == [False, True]
    assert loads == [case.source, case.target]
    assert not misfits


def test_cg_spans_count_the_outer_steps_and_cg_iterations(monkeypatch):
    """The benchmark's ``optimizer.cg`` spans read the iterations from
    ``_pcg``'s result: on an 8x6 solve with active bounds there is one span
    per outer step, and their iterations sum to the solve's CG count."""
    spans = _load_spans()
    recorder = spans.Recorder(0)
    wrapped = recorder.wrap("optimizer.cg", optimizer._pcg, spans._cg_iterations)
    monkeypatch.setattr(optimizer, "_pcg", wrapped)
    problem = setup_problem(8, 6, dataclasses.replace(bump_case(), q_b=0.045))
    diagnostics = optimizer.pdas_solve(problem, tol=1e-9).diagnostics
    assert diagnostics.num_upper_active > 0
    cg = [span for span in recorder.spans if span["name"] == "optimizer.cg"]
    assert len(cg) == diagnostics.outer_iterations
    assert sum(span["iterations"] for span in cg) == diagnostics.cg_iterations
