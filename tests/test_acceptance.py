"""Acceptance gate.

One test per numbered criterion, each asserted at its stated tolerance and
recorded as a single PASS/FAIL line in the terminal summary (see conftest).
Reference values are frozen; they are not recomputed by the suite.

Known honest failure: criterion 4c.  The converged control error sits at the
level of the control-space best-approximation error and undercuts the frozen
reference by a mesh-independent factor (the reference equals ~2.65x the
interpolation error of the exact control on every level of the sequence,
while the optimizer lands at ~1.09x).  Criteria 3 and 4a/4b confirm the rate
and the other two absolute errors, so the discrepancy is a constant, not a
convergence defect.  The criterion is asserted as stated rather than widened.
"""

import numpy as np
import pytest

import _symbolic
from dbc.adjoint import adjoint_identity_check
from dbc.assembly import (
    Discretization,
    assemble_mass_stiffness,
    coercivity_gap,
    time_mass_stiffness,
)
from dbc.checks import check_gradient
from dbc.manufactured import build_space_time_mesh, bump_case, setup_problem
from dbc.mesh import Triangulation

# Frozen benchmark references at the middle level (n, M) = (16, 12).
REF_STATE_N12 = 0.00707057
REF_ADJOINT_N12 = 0.00165730
REF_CONTROL_N12 = 0.02631136
ABS_TOL = 0.20  # +-20 percent

RUNTIME_BUDGET_SECONDS = 600.0


def _within(rates, lo, hi):
    return all(lo <= r <= hi for r in rates)


def test_criterion_01_state_energy_eoc(study, criterion):
    rates = study.report.rate_state_h[-2:]
    ok = _within(rates, 0.85, 1.15) and study.seconds < RUNTIME_BUDGET_SECONDS
    criterion(
        "1 state energy EOC",
        ok,
        f"last rates vs h = {rates[0]:.4f}, {rates[1]:.4f} (window [0.85, 1.15]); "
        f"study runtime {study.seconds:.1f}s (budget {RUNTIME_BUDGET_SECONDS:.0f}s)",
    )


def test_criterion_02_adjoint_energy_eoc(study, criterion):
    rates = study.report.rate_adjoint_h[-2:]
    criterion(
        "2 adjoint energy EOC",
        _within(rates, 0.9, 1.2),
        f"last rates vs h = {rates[0]:.4f}, {rates[1]:.4f} (window [0.9, 1.2])",
    )


def test_criterion_03_control_eoc(study, criterion):
    rates = study.report.rate_control_sigma[-2:]
    criterion(
        "3 control seminorm EOC",
        _within(rates, 0.9, 1.1),
        f"last rates vs sigma = {rates[0]:.4f}, {rates[1]:.4f} (window [0.9, 1.1])",
    )


def _middle_record(study):
    record = study.report.records[2]
    assert (record.n, record.M) == (16, 12)
    return record


def test_criterion_04a_state_absolute_error(study, criterion):
    err = _middle_record(study).err_state
    dev = err / REF_STATE_N12 - 1.0
    criterion(
        "4a state absolute error at (16, 12)",
        abs(dev) <= ABS_TOL,
        f"measured {err:.8f}, reference {REF_STATE_N12:.8f}, "
        f"deviation {dev:+.1%} (allowed +-20%)",
    )


def test_criterion_04b_adjoint_absolute_error(study, criterion):
    err = _middle_record(study).err_adjoint
    dev = err / REF_ADJOINT_N12 - 1.0
    criterion(
        "4b adjoint absolute error at (16, 12)",
        abs(dev) <= ABS_TOL,
        f"measured {err:.8f}, reference {REF_ADJOINT_N12:.8f}, "
        f"deviation {dev:+.1%} (allowed +-20%)",
    )


def test_criterion_04c_control_absolute_error(study, criterion):
    """Known honest failure; see the module docstring."""
    err = _middle_record(study).err_control
    dev = err / REF_CONTROL_N12 - 1.0
    criterion(
        "4c control absolute error at (16, 12)",
        abs(dev) <= ABS_TOL,
        f"measured {err:.8f}, reference {REF_CONTROL_N12:.8f}, "
        f"deviation {dev:+.1%} (allowed +-20%) — KNOWN DEVIATION: the "
        f"converged optimum tracks the best-approximation error; the "
        f"reference sits a mesh-independent ~2.4x above it on every level "
        f"while rates (criterion 3) and the other absolutes (4a, 4b) pass",
    )


def test_criterion_05_gradient_vs_finite_differences(criterion):
    result = check_gradient(seed=0)  # n=2, M=2, 20 directions, step 1e-4
    criterion(
        "5 adjoint gradient vs finite differences",
        result.passed,
        f"worst relative error {result.discrepancy:.3e} over 20 directions "
        f"on n=2, M=2 (threshold 1e-6)",
    )


def test_criterion_06_duality_identity(criterion):
    disc = Discretization(build_space_time_mesh(3, 3))
    worst = max(adjoint_identity_check(disc, seed=s) for s in range(10))
    criterion(
        "6 forward/backward duality identity",
        worst < 1e-10,
        f"worst discrepancy {worst:.3e} over 10 random instances "
        f"(threshold 1e-10)",
    )


def test_criterion_07_coercivity(criterion):
    rng = np.random.default_rng(0)
    worst = np.inf
    samples = 0
    for n in (2, 3, 4):
        disc = Discretization(build_space_time_mesh(n, n))
        for _ in range(34 if n == 2 else 33):
            v = rng.standard_normal(
                (disc.mesh.num_slabs, disc.mesh.num_interior)
            )
            worst = min(worst, coercivity_gap(disc, v) / float(np.sum(v * v)))
            samples += 1
    criterion(
        "7 coercivity of the space-time form",
        samples == 100 and worst >= -1e-12,
        f"min normalized gap {worst:.3e} over {samples} random states on "
        f"n=2..4 (must be >= -1e-12)",
    )


def test_criterion_08_kkt_residuals_every_level(study, criterion):
    worst = max(
        max(
            r.kkt["stationarity"],
            r.kkt["complementarity"],
            r.kkt["infeasibility"],
        )
        for r in study.report.records
    )
    criterion(
        "8 KKT residuals on every study level",
        worst < 1e-8,
        f"worst residual {worst:.3e} over {len(study.report.records)} levels "
        f"(threshold 1e-8)",
    )


def test_criterion_09_hessian_symmetry_and_curvature(criterion):
    problem = setup_problem(3, 3, bump_case())
    dim = problem.dim
    H = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        H[:, j] = problem.hessian_apply(e)
    scale = np.abs(H).max()
    rng = np.random.default_rng(0)
    sym = max(
        abs(
            float(d1 @ (H @ d2)) - float(d2 @ (H @ d1))
        )
        for d1, d2 in (
            rng.standard_normal((2, dim)) for _ in range(20)
        )
    ) / scale
    A = problem.disc.seminorm.tocsr().toarray()
    min_gap = float(np.linalg.eigvalsh(H - problem.lam * A).min())
    ok = sym < 1e-10 and min_gap >= -1e-12 * scale
    criterion(
        "9 Hessian symmetry and curvature",
        ok,
        f"symmetry defect {sym:.3e} (threshold 1e-10); "
        f"min eig of H - lam*A = {min_gap:.3e} (dense oracle, n=3, M=3)",
    )


def test_criterion_10_element_matrix_oracles(criterion):
    coords = [("0", "0"), ("1", "0"), ("0", "1")]
    tri = Triangulation(np.array(coords, dtype=float), [[0, 1, 2]])
    mass, stiff = assemble_mass_stiffness(tri)
    mass_ref, stiff_ref = _symbolic.triangle_matrices(coords)
    worst = max(
        np.abs(mass.toarray() - mass_ref).max(),
        np.abs(stiff.toarray() - stiff_ref).max(),
    )
    points = ["0", "0.25", "0.75", "1.5"]
    tmass, tstiff = time_mass_stiffness(np.array(points, dtype=float))
    tmass_ref, tstiff_ref = _symbolic.time_matrices(points)
    worst = max(
        worst,
        np.abs(tmass.toarray() - tmass_ref).max(),
        np.abs(tstiff.toarray() - tstiff_ref).max(),
    )
    criterion(
        "10 element matrices vs symbolic integration",
        worst < 1e-14,
        f"worst entrywise deviation {worst:.3e} across spatial and temporal "
        f"P1 matrices (threshold 1e-14)",
    )
