"""Manufactured benchmark with a known optimal triple, energy-norm errors,
and the convergence-study driver.

The built-in case optimizes a tracking objective whose exact optimal state,
adjoint and boundary control are closed-form polynomials-times-exponentials
on the unit square with T = 1.  The shifted regularizer |q - q_d| with
q_d equal to the exact control makes that triple optimal.  The bounds are
inactive at that optimum (the exact control lies in [0, 1/16], the box is
[0, 0.8]), so the study never makes a bound active.  Errors are measured in
the norms the estimates are stated in: spatial energy norm for state and
adjoint, full space-time H1 seminorm for the control, against the combined
parameter sigma = sqrt(h^2 + k^2).
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .assembly import Discretization, difference
from .mesh import SpaceTimeMesh, uniform_time_partition, unit_square_mesh
from .optimizer import CGBreakdownError, PdasNonconvergence, ReducedProblem, pdas_solve
from .forward import SolverError
from .kernels import AssemblyError
from .spaces import BoundSet, pad_levels

log = logging.getLogger("dbc.study")


class MeshMismatchError(ValueError):
    """Fields passed to an error norm live on a different mesh."""


@dataclass
class ManufacturedCase:
    """Closed-form optimal triple plus the data that produces it.

    All callables broadcast over x, y and t as numpy arrays.  The loads
    of ``source`` and ``target``, the error norms and the misfit evaluate
    the data and the exact solution on the blocks of
    ``Quadrature.integrate``, in the calling thread: x and y of shape
    (points, triangles) on a slice of the triangles, C-contiguous float64
    arrays that the slice keeps and that are read-only, and t of shape (c,
    1, 1) for c Gauss times; the values have shape (c, points, triangles),
    so the factors that do not depend on t are made once per block.  The
    norms subtract the discrete part in place from the arrays that
    ``state_grad``, ``adjoint_grad``, ``control_grad`` and ``control_t``
    return, and ``misfit_quadrature`` from those of ``target``, so these
    must return new arrays; a scalar or a read-only result is not written
    but costs a new array.  The interpolants of ``dbc.spaces`` pass a
    scalar t.  Gradients return (d/dx, d/dy) tuples.  ``initial`` takes x
    and y only, and may be None when the exact initial state vanishes."""

    name: str
    lam: float
    q_a: float
    q_b: float
    state: Callable
    state_grad: Callable
    adjoint: Callable
    adjoint_grad: Callable
    control: Callable
    control_t: Callable
    control_grad: Callable
    source: Callable
    target: Callable
    control_shift: Callable
    control_boundary: Callable
    """Predicate (x, y) -> bool mask selecting the boundary vertices that
    carry the box constraints; the other boundary vertices are held at zero."""
    initial: Optional[Callable]


def _u(x, y, t):
    return x * (1.0 - x) * np.exp(y) * (1.0 - y) * t * (1.0 - t)


def _u_t(x, y, t):
    return x * (1.0 - x) * np.exp(y) * (1.0 - y) * (1.0 - 2.0 * t)


def _u_grad(x, y, t):
    tau = t * (1.0 - t)
    ux = (1.0 - 2.0 * x) * np.exp(y) * (1.0 - y) * tau
    uy = -x * (1.0 - x) * y * np.exp(y) * tau
    return ux, uy


def _f(x, y, t):
    # du/dt - Laplace u for _u; d2/dy2 of exp(y)(1-y) is -(1+y)exp(y).
    tau = t * (1.0 - t)
    ey = np.exp(y)
    return ey * (
        x * (1.0 - x) * (1.0 - y) * (1.0 - 2.0 * t)
        + (2.0 * (1.0 - y) + x * (1.0 - x) * (1.0 + y)) * tau
    )


def _phi(x, y, t):
    return (x * x - x * x * x) * (y * y - y * y * y) * t * (1.0 - t)


def _phi_grad(x, y, t):
    tau = t * (1.0 - t)
    px = (2.0 * x - 3.0 * x * x) * (y * y - y * y * y) * tau
    py = (x * x - x * x * x) * (2.0 * y - 3.0 * y * y) * tau
    return px, py


def _u_target(x, y, t):
    # u + d(phi)/dt + Laplace(phi): the adjoint equation then holds exactly.
    tau = t * (1.0 - t)
    a = x * x - x * x * x
    b = y * y - y * y * y
    lap = (2.0 - 6.0 * x) * b + a * (2.0 - 6.0 * y)
    return _u(x, y, t) + a * b * (1.0 - 2.0 * t) + lap * tau


def _bottom_edge(x, y):
    # Open bottom edge of the unit square: corners belong to the
    # homogeneous part of the boundary.
    return (y == 0.0) & (x > 0.0) & (x < 1.0)


def bump_case():
    """The bundled benchmark: lam = 1e-3, bounds [0, 0.8], exact control
    equal to the exact state (a smooth bump vanishing on three sides),
    controlled from the bottom edge of the square."""
    return ManufacturedCase(
        name="bump",
        lam=1e-3,
        q_a=0.0,
        q_b=0.8,
        state=_u,
        state_grad=_u_grad,
        adjoint=_phi,
        adjoint_grad=_phi_grad,
        control=_u,
        control_t=_u_t,
        control_grad=_u_grad,
        source=_f,
        target=_u_target,
        control_shift=_u,
        control_boundary=_bottom_edge,
        initial=None,  # _u(x, y, 0) = 0
    )


CASES = {"bump": bump_case}


# -- energy-norm errors ------------------------------------------------------


def _check_same_mesh(disc, *fields):
    for f in fields:
        if f.mesh is not disc.mesh:
            raise MeshMismatchError("field mesh differs from the discretization")


def _sum_of_squares(first, *rest):
    """first**2 + rest[0]**2 + ..., added in that order; squares the
    arguments, fresh arrays of one shape, in place and returns ``first``."""
    first *= first
    for diff in rest:
        diff *= diff
        first += diff
    return first


def energy_error_state(disc, case, state, control):
    """|| grad(u_exact - (w + q)) || over the space-time cylinder."""
    _check_same_mesh(disc, state, control)
    return _grad_error(disc, case.state_grad, state.full_values(),
                       pad_levels(control.values))


def energy_error_adjoint(disc, case, adjoint):
    """|| grad(z_exact - z_kh) || over the space-time cylinder."""
    _check_same_mesh(disc, adjoint)
    return _grad_error(disc, case.adjoint_grad, adjoint.full_values(), None)


def _grad_error(disc, grad_exact, slab_full, control_pad):
    q = disc.quad

    def squared_error(m, j, t, part):
        grad = q.gradients(q.gather(slab_full, m, part), part)[m - m[0]]
        if control_pad is not None:
            ends = q.gather(control_pad, m, part, levels=True)
            grad += q.in_time(q.gradients(ends, part), m, j)
        shape = t.shape[:1] + part.x.shape
        ex, ey = grad_exact(part.x, part.y, t)
        return _sum_of_squares(
            difference(ex, grad[:, :1], shape), difference(ey, grad[:, 1:], shape)
        )

    return math.sqrt(q.integrate(squared_error))


def control_error(disc, case, control):
    """Space-time H1 seminorm of q_exact - q_sigma."""
    _check_same_mesh(disc, control)
    q = disc.quad
    pad = pad_levels(control.values)
    k = disc.mesh.time_partition.k

    def squared_error(m, j, t, part):
        x, y = part.x, part.y
        shape = t.shape[:1] + x.shape
        ends = q.gather(pad, m, part, levels=True)
        slopes = np.diff(ends, axis=0)
        slopes /= k
        dt_err = difference(
            case.control_t(x, y, t), q.at_points(slopes)[m - m[0]], shape
        )
        grad = q.in_time(q.gradients(ends, part), m, j)
        ex, ey = case.control_grad(x, y, t)
        return _sum_of_squares(
            dt_err,
            difference(ex, grad[:, :1], shape),
            difference(ey, grad[:, 1:], shape),
        )

    return math.sqrt(q.integrate(squared_error))


# -- convergence study -------------------------------------------------------


def eoc(errors, parameters):
    """Experimental order of convergence between consecutive levels.

    rate_l = log(e_l / e_{l-1}) / log(p_l / p_{l-1}); the first entry is None.
    """
    out = [None]
    for i in range(1, len(errors)):
        out.append(
            math.log(errors[i] / errors[i - 1])
            / math.log(parameters[i] / parameters[i - 1])
        )
    return out


@dataclass
class LevelRecord:
    n: int
    M: int
    h: float
    k: float
    sigma: float
    err_state: float
    err_adjoint: float
    err_control: float
    kkt: dict


@dataclass
class StudyReport:
    """Errors, rates and diagnostics per level.  ``failure`` names the level
    that stopped the study and its error, which ``error`` holds; only
    ``failure`` is written to ``report.json``."""

    case_name: str
    records: list
    rate_state_h: list = field(default_factory=list)
    rate_adjoint_h: list = field(default_factory=list)
    rate_state_k: list = field(default_factory=list)
    rate_adjoint_k: list = field(default_factory=list)
    rate_control_sigma: list = field(default_factory=list)
    failure: Optional[str] = None
    error: Optional[Exception] = None

    def compute_rates(self):
        hs = [r.h for r in self.records]
        ks = [r.k for r in self.records]
        sig = [r.sigma for r in self.records]
        es = [r.err_state for r in self.records]
        ea = [r.err_adjoint for r in self.records]
        ec = [r.err_control for r in self.records]
        if self.records:
            self.rate_state_h = eoc(es, hs)
            self.rate_adjoint_h = eoc(ea, hs)
            self.rate_state_k = eoc(es, ks)
            self.rate_adjoint_k = eoc(ea, ks)
            self.rate_control_sigma = eoc(ec, sig)

    def write_csv(self, path):
        def num(x):
            return f"{x:.8g}"

        def rate(x):
            return "" if x is None else f"{x:.8g}"

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n", "M", "h", "k", "sigma", "err_state", "rate_state",
                 "err_adjoint", "rate_adjoint", "err_control", "rate_control"]
            )
            for i, r in enumerate(self.records):
                writer.writerow(
                    [r.n, r.M, num(r.h), num(r.k), num(r.sigma),
                     num(r.err_state), rate(self.rate_state_h[i]),
                     num(r.err_adjoint), rate(self.rate_adjoint_h[i]),
                     num(r.err_control), rate(self.rate_control_sigma[i])]
                )

    def as_dict(self):
        return {
            "case": self.case_name,
            "failure": self.failure,
            "levels": [asdict(r) for r in self.records],
            "rates": {
                "state_h": self.rate_state_h,
                "adjoint_h": self.rate_adjoint_h,
                "state_k": self.rate_state_k,
                "adjoint_k": self.rate_adjoint_k,
                "control_sigma": self.rate_control_sigma,
            },
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_space_time_mesh(n, M):
    return SpaceTimeMesh(unit_square_mesh(n), uniform_time_partition(M))


def setup_problem(n, M, case):
    """Discretization + reduced problem for one level of a case."""
    mesh = build_space_time_mesh(n, M)
    disc = Discretization(mesh)
    bounds = BoundSet(mesh, case.q_a, case.q_b, case.control_boundary)
    return ReducedProblem(
        disc,
        case.lam,
        bounds,
        f=case.source,
        u0=case.initial,
        u_d=case.target,
        q_d=case.control_shift,
    )


def _study_level(n, M, case, tol, max_outer):
    problem = setup_problem(n, M, case)
    disc = problem.disc
    result = pdas_solve(problem, tol=tol, max_outer=max_outer)
    # The extension's mode factors are the largest arrays of a level, and
    # only the solve needs them: free them before the error norms.
    del problem
    record = LevelRecord(
        n=n,
        M=M,
        h=disc.mesh.width,
        k=disc.mesh.time_partition.k,
        sigma=disc.mesh.sigma,
        err_state=energy_error_state(disc, case, result.state, result.control),
        err_adjoint=energy_error_adjoint(disc, case, result.adjoint),
        err_control=control_error(disc, case, result.control),
        kkt=result.diagnostics.as_dict(),
    )
    return record


def run_study(levels, case, tol, max_outer):
    """Solve every (n, M) level in turn with ``pdas_solve``'s ``tol`` and
    ``max_outer``, and collect errors, rates and diagnostics.

    A data error (``AssemblyError``) or a solver failure stops the study;
    the report keeps the completed levels and carries the failure message,
    which names the level that failed, and the error itself."""
    report = StudyReport(case_name=case.name, records=[])
    for n, M in levels:
        try:
            record = _study_level(n, M, case, tol, max_outer)
        except (
            AssemblyError, CGBreakdownError, PdasNonconvergence, SolverError
        ) as err:
            report.failure = f"level (n={n}, M={M}): {err}"
            report.error = err
            log.error("study aborted: %s", report.failure)
            break
        report.records.append(record)
        log.info("level n=%d M=%d done", n, M)
    report.compute_rates()
    return report
