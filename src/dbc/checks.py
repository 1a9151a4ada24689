"""Verification checks: derivative consistency, duality, coercivity.

Each check builds its own small problem, measures a discrepancy that exact
arithmetic would send to zero (or a margin that must stay nonnegative), and
compares against a fixed threshold.  The CLI exposes them via the ``check``
subcommand; the test suite asserts the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint_identity_check
from .assembly import Discretization, coercivity_gap
from .manufactured import build_space_time_mesh, bump_case, setup_problem


@dataclass
class CheckResult:
    name: str
    passed: bool
    discrepancy: float
    threshold: float

    def line(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: discrepancy {self.discrepancy:.3e} "
            f"(threshold {self.threshold:.1e})"
        )


def check_gradient(seed):
    """Adjoint trace gradient against central finite differences of the
    objective composed with the interior extension, at 2x2 in 20 random
    directions with step 1e-4.

    The quadrature evaluates every product of discrete functions exactly and
    the extension is linear, so the adjoint-based trace gradient is the
    exact derivative of the evaluated objective; the discrepancy is pure
    finite-difference truncation and rounding."""
    step = 1e-4
    rng = np.random.default_rng(seed)
    problem = setup_problem(2, 2, bump_case())
    v = 0.1 * rng.standard_normal(problem.trace_dim)
    g, _, _ = problem.trace_gradient(v)
    worst = 0.0
    for _ in range(20):
        direction = rng.standard_normal(problem.trace_dim)
        direction /= np.linalg.norm(direction)
        fd = (
            problem.objective(problem.extend(v + step * direction))
            - problem.objective(problem.extend(v - step * direction))
        ) / (2.0 * step)
        exact = float(g @ direction)
        rel = abs(fd - exact) / max(abs(exact), 1e-12)
        worst = max(worst, rel)
    return CheckResult("gradient", worst < 1e-6, worst, 1e-6)


def check_hessian(seed):
    """Symmetry of the reduced Hessians and their curvature lower bounds, on
    10 random pairs at 4x3.

    Both the full-space Hessian and its trace reduction E^T H E must be
    symmetric to rounding, and <H d, d> must dominate lam <A d, d> (with
    A reduced the same way) because the extra terms sum to ||du||^2 >= 0."""
    rng = np.random.default_rng(seed)
    problem = setup_problem(4, 3, bump_case())
    lam = problem.lam
    A = problem.disc.seminorm
    sym = 0.0
    margin = np.inf
    for _ in range(10):
        d1 = rng.standard_normal(problem.dim)
        d2 = rng.standard_normal(problem.dim)
        h1 = problem.hessian_apply(d1)
        h2 = problem.hessian_apply(d2)
        scale = max(np.linalg.norm(h1) * np.linalg.norm(d2), 1e-30)
        sym = max(sym, abs(float(h1 @ d2) - float(d1 @ h2)) / scale)
        margin = min(margin, float(d1 @ h1) - lam * float(d1 @ (A @ d1)))
        t1 = rng.standard_normal(problem.trace_dim)
        t2 = rng.standard_normal(problem.trace_dim)
        ht1 = problem.trace_hessian(t1)
        ht2 = problem.trace_hessian(t2)
        scale = max(np.linalg.norm(ht1) * np.linalg.norm(t2), 1e-30)
        sym = max(sym, abs(float(ht1 @ t2) - float(t1 @ ht2)) / scale)
        margin = min(
            margin, float(t1 @ ht1) - lam * float(t1 @ problem.trace_seminorm(t1))
        )
    passed = sym < 1e-10 and margin >= -1e-12
    return CheckResult("hessian", passed, max(sym, max(0.0, -margin)), 1e-10)


def check_adjoint(seed):
    """Forward/backward duality identity for 10 random data sets at 3x3."""
    disc = Discretization(build_space_time_mesh(3, 3))
    worst = max(adjoint_identity_check(disc, seed + i) for i in range(10))
    return CheckResult("adjoint", worst < 1e-10, worst, 1e-10)


def check_coercivity(seed):
    """B(v, v) >= k sum_m |grad v_m|^2 over 33 random discrete states at
    each of 2x2, 3x3 and 4x4.

    The gap equals the telescoped jump terms plus boundary values, all
    squares, so it must be nonnegative up to rounding."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for n in (2, 3, 4):
        disc = Discretization(build_space_time_mesh(n, n))
        for _ in range(33):
            v = rng.standard_normal((disc.mesh.num_slabs, disc.mesh.num_interior))
            worst = min(worst, coercivity_gap(disc, v) / max(1.0, np.sum(v * v)))
    return CheckResult("coercivity", worst >= -1e-12, max(0.0, -worst), 1e-12)


CHECKS = {
    "gradient": check_gradient,
    "hessian": check_hessian,
    "adjoint": check_adjoint,
    "coercivity": check_coercivity,
}


def run_checks(names, seed):
    results = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(
                f"unknown check '{name}'; available: {', '.join(sorted(CHECKS))}"
            )
        results.append(CHECKS[name](seed=seed))
    return results
