"""Reduced problem, trace elimination, and the active-set solver."""

import dataclasses
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import lsq_linear

import _oracles
from _oracles import (
    extend_direction,
    full_gradient,
    full_hessian,
    restrict_gradient,
    solve_adjoint,
    solve_state,
    whole_boundary,
    zero_control,
    zero_data,
)
from dbc import assembly
from dbc.adjoint import tracking_slabs
from dbc.assembly import Discretization, EnergyExtension
from dbc.forward import SolverError
from dbc.kernels import AssemblyError
from dbc.manufactured import bump_case, setup_problem
from dbc.optimizer import (
    CGBreakdownError,
    PdasNonconvergence,
    ReducedProblem,
    _pcg,
    _probed_symbol,
    _sine_matrix,
    _trace_preconditioner,
    pdas_solve,
)
from dbc.spaces import BoundSet, ControlField


@pytest.fixture(scope="module")
def problem33():
    return setup_problem(3, 3, bump_case())


def wide_case(**overrides):
    """The benchmark case with bounds pushed out of reach."""
    return dataclasses.replace(
        bump_case(), q_a=-1e6, q_b=1e6, **overrides
    )


def dense_trace_hessian(problem):
    d = problem.trace_dim
    H = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        H[:, j] = problem.trace_hessian(e)
    return H


def dense_full_hessian(problem):
    d = problem.dim
    H = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        H[:, j] = problem.hessian_apply(e)
    return H


def pinned_indices(problem):
    """Control DOFs on the boundary vertices outside the control boundary,
    which the trace layer holds at zero; level-major."""
    mesh = problem.disc.mesh
    pinned = mesh.triangulation.boundary_vertex_flags.copy()
    pinned[problem.bounds.boxed_vertices] = False
    return np.flatnonzero(np.tile(pinned, mesh.num_control_levels))


def dense_box_oracle(problem):
    """``lsq_linear``'s BVLS result for the box-constrained trace quadratic.
    With H = L L^T the objective 1/2 v.Hv - b.v is 1/2 |L^T v - L^-1 b|^2
    up to a constant, which BVLS minimizes over the box."""
    factor = np.linalg.cholesky(dense_trace_hessian(problem))
    rhs = sla.solve_triangular(factor, problem.trace_b, lower=True)
    bounds = (problem.bounds.lower, problem.bounds.upper)
    return lsq_linear(factor.T, rhs, bounds=bounds, method="bvls")


def assert_matches_dense_box_oracle(problem, result):
    """The PDAS trace has the oracle's active sets and its value."""
    oracle = dense_box_oracle(problem)
    v = result.control.ravel()[problem.trace_indices]
    assert np.array_equal(v == problem.bounds.upper, oracle.active_mask == 1)
    assert np.array_equal(v == problem.bounds.lower, oracle.active_mask == -1)
    assert np.linalg.norm(v - oracle.x) <= 1e-10 * np.linalg.norm(oracle.x)


def projected_gradient_oracle(problem, iterations=300_000):
    """Brute-force projected gradient on the dense trace quadratic, run to
    stagnation of the fixed-point residual."""
    H = dense_trace_hessian(problem)
    b = problem.trace_b
    qa, qb = problem.bounds.lower, problem.bounds.upper
    step = 1.0 / np.linalg.eigvalsh(H).max()
    v = np.zeros(problem.trace_dim)
    for _ in range(iterations):
        nxt = np.clip(v - step * (H @ v - b), qa, qb)
        if np.abs(nxt - v).max() < 1e-15:
            return nxt
        v = nxt
    return v


# -- construction and invariants -------------------------------------------------


def test_requires_positive_regularization(problem33):
    disc = problem33.disc
    bounds = BoundSet(disc.mesh, -1.0, 1.0, whole_boundary)
    for lam in (0.0, -1e-3):
        with pytest.raises(ValueError, match="must be positive"):
            ReducedProblem(disc, lam, bounds, zero_data, None, zero_data, zero_data)


def _not_finite_after(g, t0):
    """g with NaN values at every time past t0."""
    return lambda x, y, t: np.where(np.asarray(t) > t0, np.nan, g(x, y, t))


@pytest.mark.parametrize(
    "datum,name,time",
    [
        ("source", "source", "0.535221"),
        ("target", "target", "0.535221"),
        ("control_shift", "control shift", "0.666667"),
    ],
)
def test_data_that_is_not_finite_is_a_data_error(datum, name, time):
    """A NaN in f, u_d or q_d from t = 1/2 on stops set-up at 8x6 with an
    ``AssemblyError`` that names the datum and its first Gauss time, or
    control level, past 1/2, before any slab solve can fail on it."""
    case = bump_case()
    case = dataclasses.replace(
        case, **{datum: _not_finite_after(getattr(case, datum), 0.5)}
    )
    with pytest.raises(AssemblyError, match=f"the {name} is not finite at t = {time}"):
        setup_problem(8, 6, case)


def test_initial_state_that_is_not_finite_is_a_data_error():
    case = dataclasses.replace(bump_case(), initial=lambda x, y: x / 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(AssemblyError, match="initial state is not finite at t = 0"):
            setup_problem(8, 6, case)


def test_dimensions(problem33):
    mesh = problem33.disc.mesh
    assert problem33.dim == mesh.num_control_levels * mesh.num_nodes
    # Open bottom edge: n - 1 constrained vertices per interior level.
    assert problem33.trace_dim == (3 - 1) * (3 - 1)
    split = np.concatenate(
        [
            problem33.trace_indices,
            pinned_indices(problem33),
            problem33.interior_indices,
        ]
    )
    assert np.array_equal(np.sort(split), np.arange(problem33.dim))


def test_objective_rejects_bad_trace_length(problem33):
    """``objective`` takes the full control vector: a trace vector, or a
    vector one entry too long, is rejected."""
    for length in (problem33.trace_dim, problem33.dim + 1):
        with pytest.raises(ValueError):
            problem33.objective(np.zeros(length))


# -- extension and restriction ----------------------------------------------------


def test_extension_values_and_stationarity(problem33):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(problem33.trace_dim)
    q = problem33.extend(v)
    assert np.allclose(q[problem33.trace_indices], v)
    assert not q[pinned_indices(problem33)].any()
    # Minimal-seminorm extension about q_d: the shifted field is
    # A-stationary on interior-vertex DOFs.
    residual = problem33.disc.seminorm @ (q - problem33.q_shift)
    interior = residual[problem33.interior_indices]
    assert np.abs(interior).max() < 1e-10 * max(1.0, np.abs(residual).max())


def test_extension_is_affine(problem33):
    rng = np.random.default_rng(1)
    v1 = rng.standard_normal(problem33.trace_dim)
    v2 = rng.standard_normal(problem33.trace_dim)
    lhs = problem33.extend(v1 + 0.5 * v2)
    rhs = problem33.extend(v1) + 0.5 * extend_direction(problem33, v2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)
    assert np.allclose(
        problem33.extend(np.zeros(problem33.trace_dim)), problem33.anchor
    )


def test_restrict_gradient_is_extension_transpose(problem33):
    """The oracles' restriction, by which the tests check set-up's trace
    gradient and the trace actions, is the transpose of their extension."""
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = rng.standard_normal(problem33.trace_dim)
        w = rng.standard_normal(problem33.dim)
        lhs = float(extend_direction(problem33, v) @ w)
        rhs = float(v @ restrict_gradient(problem33, w))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


@pytest.fixture(scope="module")
def active16():
    return setup_problem(16, 12, dataclasses.replace(bump_case(), q_b=0.045))


def test_trace_hessian_is_the_restricted_full_hessian(active16):
    """The trace action, whose regularization term comes from the trace
    rows, equals E^T H E v composed from the full-space ``hessian_apply``."""
    rng = np.random.default_rng(31)
    for _ in range(3):
        v = rng.standard_normal(active16.trace_dim)
        full = restrict_gradient(
            active16, active16.hessian_apply(extend_direction(active16, v))
        )
        action = active16.trace_hessian(v)
        assert np.linalg.norm(action - full) <= 1e-13 * np.linalg.norm(full)


def test_trace_seminorm_is_the_restricted_seminorm(active16):
    rng = np.random.default_rng(32)
    seminorm = active16.disc.seminorm
    for _ in range(3):
        v = rng.standard_normal(active16.trace_dim)
        full = restrict_gradient(active16, seminorm @ extend_direction(active16, v))
        reduced = active16.trace_seminorm(v)
        assert np.linalg.norm(reduced - full) <= 1e-13 * np.linalg.norm(full)


class _CountedProducts:
    """An operator that counts its ``@`` products."""

    def __init__(self, operator):
        self.operator = operator
        self.products = 0

    def __matmul__(self, flat):
        self.products += 1
        return self.operator @ flat


def test_trace_hessian_is_the_restricted_oracle_hessian(active16):
    """The trace action equals E^T H E v with H v composed by the oracle from
    the helpers on all vertices and one seminorm product."""
    rng = np.random.default_rng(34)
    for _ in range(3):
        v = rng.standard_normal(active16.trace_dim)
        full = restrict_gradient(
            active16, full_hessian(active16, extend_direction(active16, v))
        )
        action = active16.trace_hessian(v)
        assert np.linalg.norm(action - full) <= 1e-13 * np.linalg.norm(full)


def test_a_trace_hessian_action_makes_no_seminorm_product(active16, monkeypatch):
    """Neither form of the trace action, nor the reduced seminorm, nor the
    full-space action applies the space-time seminorm: each reads A q from
    its own spatial products."""
    v = np.random.default_rng(33).standard_normal(active16.trace_dim)
    q = extend_direction(active16, v)
    spy = _CountedProducts(active16.disc.seminorm)
    monkeypatch.setattr(active16.disc, "seminorm", spy)
    active16.trace_hessian(v)
    active16.trace_hessian(v, want_fields=True)
    active16.trace_seminorm(v)
    active16.hessian_apply(q)
    assert spy.products == 0


def _spy_on_all_vertex_helpers(monkeypatch):
    """Record the calls of the helpers that act on all vertices: the
    ``Discretization`` methods ``coupling_all`` and ``coupling_transpose``,
    ``tracking_slabs`` wherever a module of ``dbc`` or the oracles binds it,
    and the oracles' ``pair_state_control``.  Returns the list of the names
    called, in call order."""
    calls = []

    def spy(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)

        return counted

    for name in ("coupling_all", "coupling_transpose"):
        function = getattr(Discretization, name)
        monkeypatch.setattr(Discretization, name, spy(name, function))
    for key, module in list(sys.modules.items()):
        if key == "_oracles" or key == "dbc" or key.startswith("dbc."):
            if getattr(module, "tracking_slabs", None) is tracking_slabs:
                monkeypatch.setattr(
                    module, "tracking_slabs", spy("tracking_slabs", tracking_slabs)
                )
    monkeypatch.setattr(
        _oracles,
        "pair_state_control",
        spy("pair_state_control", _oracles.pair_state_control),
    )
    return calls


def test_hessian_actions_call_no_helper_on_all_vertices(active16, monkeypatch):
    """Both forms of the trace action, and the full-space action, run the
    one composition on their vertex layout: none of the helpers that act
    on all vertices, which the oracles use, is called."""
    calls = _spy_on_all_vertex_helpers(monkeypatch)
    v = np.random.default_rng(35).standard_normal(active16.trace_dim)
    active16.trace_hessian(v)
    active16.trace_hessian(v, want_fields=True)
    active16.hessian_apply(extend_direction(active16, v))
    assert calls == []
    # The spies see the oracle's calls of the helpers.
    full_hessian(active16, extend_direction(active16, v))
    assert sorted(calls) == [
        "coupling_all",
        "coupling_transpose",
        "pair_state_control",
        "tracking_slabs",
    ]


def test_setup_calls_no_helper_on_all_vertices(monkeypatch):
    """Set-up makes the anchor's state, adjoint and trace gradient by the
    trace action's composition on the movable vertices, with the data
    added: none of the helpers that act on all vertices is called."""
    calls = _spy_on_all_vertex_helpers(monkeypatch)
    setup_problem(8, 6, bump_case())
    assert calls == []


def test_trace_gradient_matches_full_composition(problem33):
    rng = np.random.default_rng(3)
    v = 0.1 * rng.standard_normal(problem33.trace_dim)
    g_trace, state, adjoint = problem33.trace_gradient(v)
    g_full, state_full, adjoint_full = full_gradient(
        problem33.disc, bump_case(), problem33.extend(v)
    )
    assert np.allclose(
        g_trace, restrict_gradient(problem33, g_full), rtol=1e-10, atol=1e-14
    )
    assert np.allclose(state, state_full, rtol=1e-12, atol=1e-14)
    assert np.allclose(adjoint, adjoint_full, rtol=1e-12, atol=1e-14)


# -- set-up at the anchor -----------------------------------------------------------


def _initial(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


@pytest.mark.parametrize(
    "n,M,case",
    [
        (4, 4, bump_case()),
        (8, 6, bump_case()),
        (4, 4, dataclasses.replace(bump_case(), initial=_initial)),
        (8, 6, dataclasses.replace(bump_case(), target=zero_data)),
        (8, 6, dataclasses.replace(bump_case(), control_boundary=whole_boundary)),
    ],
    ids=["bump-4x4", "bump-8x6", "initial-4x4", "no-target-8x6", "whole-boundary-8x6"],
)
def test_anchor_data_match_the_oracles(n, M, case):
    """Set-up's state, adjoint, trace gradient and objective at the anchor
    equal whole solves from the data, the full-space gradient oracle and
    ``objective``, to 1e-12 relative.  Nonzero initial data reaches
    ``project_initial`` and the start of the forward march.  With the whole
    boundary boxed no vertex is pinned, so set-up runs on every vertex, and
    the extension's tail is a ring."""
    problem = setup_problem(n, M, case)
    disc = problem.disc
    if case.initial is not None:
        assert disc.project_initial(case.initial).any()
    control = ControlField.from_flat(disc.mesh, problem.anchor)
    state = solve_state(disc, case.source, case.initial, control)
    adjoint = solve_adjoint(disc, state, control, case.target)
    gradient, _, _ = full_gradient(disc, case, problem.anchor)

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    assert_close(problem.state_anchor, state.values)
    assert_close(problem.adjoint_anchor, adjoint.values)
    assert_close(problem.trace_b, -restrict_gradient(problem, gradient))
    assert problem.objective_at_anchor == pytest.approx(
        problem.objective(problem.anchor), rel=1e-12
    )


# -- gradients and Hessians --------------------------------------------------------


def test_full_gradient_matches_finite_differences():
    problem = setup_problem(2, 2, bump_case())
    mesh = problem.disc.mesh
    rng = np.random.default_rng(4)
    shape = (mesh.num_control_levels, mesh.num_nodes)
    q = ControlField(mesh, 0.1 * rng.standard_normal(shape))
    g, _, _ = full_gradient(problem.disc, bump_case(), q.ravel())
    eps = 1e-4
    for _ in range(20):
        delta = rng.standard_normal(shape)
        delta /= np.linalg.norm(delta)
        jp = problem.objective(q.ravel() + eps * delta.ravel())
        jm = problem.objective(q.ravel() - eps * delta.ravel())
        fd = (jp - jm) / (2.0 * eps)
        exact = float(g @ delta.ravel())
        assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-12)


def test_gradient_is_affine_in_control(problem33):
    rng = np.random.default_rng(5)
    mesh = problem33.disc.mesh
    q = ControlField.from_flat(mesh, rng.standard_normal(problem33.dim))
    zero = zero_control(mesh)
    g_q, _, _ = full_gradient(problem33.disc, bump_case(), q.ravel())
    g_0, _, _ = full_gradient(problem33.disc, bump_case(), zero.ravel())
    hq = problem33.hessian_apply(q.ravel())
    assert np.allclose(g_q - g_0, hq, rtol=1e-11, atol=1e-13)
    assert not problem33.hessian_apply(zero.ravel()).any()


def test_dense_hessian_symmetry_and_curvature(problem33):
    H = dense_full_hessian(problem33)
    scale = np.abs(H).max()
    assert np.abs(H - H.T).max() < 1e-10 * scale
    A = problem33.disc.seminorm.tocsr().toarray()
    gap = np.linalg.eigvalsh(H - problem33.lam * A)
    assert gap.min() >= -1e-12 * scale

    Ht = dense_trace_hessian(problem33)
    scale_t = np.abs(Ht).max()
    assert np.abs(Ht - Ht.T).max() < 1e-10 * scale_t
    At = np.column_stack(
        [
            problem33.trace_seminorm(col)
            for col in np.eye(problem33.trace_dim)
        ]
    )
    gap_t = np.linalg.eigvalsh(Ht - problem33.lam * At)
    assert gap_t.min() >= -1e-12 * scale_t


# -- PDAS solver ---------------------------------------------------------------------


def test_unconstrained_equals_single_cg():
    problem = setup_problem(3, 3, wide_case())
    result = pdas_solve(problem, tol=1e-11)
    assert result.diagnostics.outer_iterations == 1
    assert result.diagnostics.num_lower_active == 0
    assert result.diagnostics.num_upper_active == 0
    v_pdas = result.control.ravel()[problem.trace_indices]
    precond = problem.lam * problem.disc.seminorm.diagonal()[
        problem.trace_indices
    ]
    target = 1e-13 * np.linalg.norm(problem.trace_b)
    v_cg, _, _ = _pcg(
        problem.trace_hessian,
        np.ones(problem.trace_dim, dtype=bool),
        problem.trace_b,
        lambda r: r / precond,
        target,
        10_000,
    )
    assert np.abs(v_pdas - v_cg).max() < 1e-10
    g, _, _ = problem.trace_gradient(v_pdas)
    assert np.abs(g).max() < 1e-9
    # The converged full-space control is trace-stationary as well.
    g_full, _, _ = full_gradient(
        problem.disc, wide_case(), result.control.ravel()
    )
    assert np.abs(restrict_gradient(problem, g_full)).max() < 1e-9


@pytest.mark.parametrize("n,M,q_b", [(2, 2, 0.02), (3, 3, 0.03), (4, 4, 0.045)])
def test_matches_projected_gradient_oracle(n, M, q_b):
    problem = setup_problem(n, M, dataclasses.replace(bump_case(), q_b=q_b))
    result = pdas_solve(problem, tol=1e-11)
    oracle = projected_gradient_oracle(problem)
    v = result.control.ravel()[problem.trace_indices]
    assert np.abs(v - oracle).max() < 1e-8
    assert result.diagnostics.num_upper_active > 0


@pytest.mark.parametrize(
    "n,M,q_b,trace_dim,num_upper,outer",
    [
        pytest.param(16, 12, 0.045, 165, 61, 4, id="0.045-61"),
        pytest.param(16, 12, 0.02, 165, 144, 3, id="0.02-144"),
        pytest.param(32, 23, 0.045, 682, 208, 3, id="32x23-0.045-208"),
    ],
)
def test_active_sets_at_16x12_match_a_dense_box_solver(
    n, M, q_b, trace_dim, num_upper, outer
):
    """With bounds active on 61 and 144 of the 165 trace DOFs at 16x12,
    and on 208 of the 682 at 32x23, a study level, PDAS finds in 4, 3 and
    3 outer steps the upper-active set and the trace of a dense solve of
    the box-constrained quadratic."""
    problem = setup_problem(n, M, dataclasses.replace(bump_case(), q_b=q_b))
    result = pdas_solve(problem, tol=1e-9)
    assert problem.trace_dim == trace_dim
    assert result.diagnostics.num_upper_active == num_upper
    assert result.diagnostics.outer_iterations == outer
    assert_matches_dense_box_oracle(problem, result)


@pytest.mark.parametrize("lam,raises", [(1e-4, 1), (1e-5, 2)])
def test_a_revisited_active_set_pair_raises_the_scale(caplog, lam, raises):
    """At 8x6 with q_b = 0.045 and a small lam the set update at the
    starting scale c = lam revisits an active-set pair, so PDAS raises c
    tenfold, once at 1e-4 and twice at 1e-5; it still ends at the dense
    box oracle's solution, with 16 of 35 trace DOFs upper-active."""
    case = dataclasses.replace(bump_case(), q_b=0.045, lam=lam)
    problem = setup_problem(8, 6, case)
    with caplog.at_level("INFO", logger="dbc.optimizer"):
        result = pdas_solve(problem, tol=1e-9)
    assert caplog.text.count("raising scale") == raises
    assert result.diagnostics.num_upper_active == 16
    assert_matches_dense_box_oracle(problem, result)


@pytest.mark.parametrize("q_b", [0.8, 0.045])
def test_small_regularization_at_16x12_matches_a_dense_box_solver(q_b):
    """At lam = 1e-5 the zero start's sets swing for several outer steps
    (with q_b = 0.8 none is active at the optimum); PDAS still ends at the
    dense box oracle's active sets and trace.  tol = 1e-10 puts the CG stop
    at 1e-12 of |trace_b|, which bounds the trace's relative error by
    cond(H) * 1e-12, about 4e-11, inside the oracle's 1e-10."""
    case = dataclasses.replace(bump_case(), q_b=q_b, lam=1e-5)
    problem = setup_problem(16, 12, case)
    result = pdas_solve(problem, tol=1e-10)
    assert result.diagnostics.outer_iterations > 1
    assert_matches_dense_box_oracle(problem, result)


def test_objective_converges_with_active_bounds():
    """J at the optimum with q_b = 0.045, bounds active on part of the
    bottom edge at every level, settles as the mesh is refined: each
    increment is at most half the one before (it is about a quarter)."""
    case = dataclasses.replace(bump_case(), q_b=0.045)
    values = []
    for n, M in ((8, 6), (16, 12), (32, 23)):
        problem = setup_problem(n, M, case)
        result = pdas_solve(problem, tol=1e-9)
        assert result.diagnostics.num_upper_active > 0
        values.append(problem.objective(result.control.ravel()))
    assert values == pytest.approx(
        [1.8692085704e-3, 1.8764906237e-3, 1.8783281757e-3], rel=1e-10
    )
    increments = np.diff(values)
    assert np.all(increments > 0)
    assert increments[1] <= 0.5 * increments[0]


def test_signorini_conditions_with_active_bounds():
    problem = setup_problem(4, 4, dataclasses.replace(bump_case(), q_b=0.045))
    tol = 1e-10
    result = pdas_solve(problem, tol=tol)
    qa, qb = problem.bounds.lower, problem.bounds.upper
    v = result.control.ravel()[problem.trace_indices]
    mu, _, _ = problem.trace_gradient(v)

    lower = v <= qa
    upper = v >= qb
    inactive = ~(lower | upper)
    assert upper.any() and inactive.any()
    # Feasibility is exact: active values are assigned, not approximated.
    assert (v[upper] == qb).all()
    assert v.min() >= qa and v.max() <= qb
    # Multiplier signs: zero where inactive, nonpositive on the upper set.
    assert np.abs(mu[inactive]).max() < tol
    assert mu[upper].max() < tol
    d = result.diagnostics
    assert d.stationarity < tol
    assert d.complementarity < tol
    assert d.infeasibility == 0.0
    assert d.num_upper_active == int(upper.sum())


def test_interior_gradient_is_not_stationary_and_decays():
    """The solver solves the variational inequality over the minimal-seminorm
    extension subspace, not over all prismatic control DOFs.  At the PDAS
    optimum of the bump study the reduced trace gradient vanishes, but the
    full-space gradient at the interior-vertex DOFs does not: the state
    w + q is cG(1) in time in q, so interior values of q reach the misfit.
    That gap decays faster than h^2 over the first four study levels."""
    measured = []
    for n, M in ((4, 4), (8, 6), (16, 12), (32, 23)):
        problem = setup_problem(n, M, bump_case())
        control = pdas_solve(problem, tol=1e-9).control.ravel()
        gradient, _, _ = full_gradient(problem.disc, bump_case(), control)
        assert np.abs(restrict_gradient(problem, gradient)).max() < 1e-14
        measured.append(np.abs(gradient[problem.interior_indices]).max())
    assert measured == pytest.approx([1.5e-4, 1.6e-5, 8.2e-7, 4.9e-8], rel=0.05)
    assert all(coarse > 4.0 * fine for coarse, fine in zip(measured, measured[1:]))


def test_objective_descends_to_convergence():
    """Fixing a DOF to its bound can raise the quadratic slightly before the
    next inactive-set solve recovers it, so the history need not fall at
    every step while the active sets are still moving.  What must hold: the
    first solve descends, the net change is a descent below every transient,
    and any uptick stays a small fraction of the total drop."""
    problem = setup_problem(4, 4, dataclasses.replace(bump_case(), q_b=0.045))
    result = pdas_solve(problem, tol=1e-10)
    history = np.asarray(result.diagnostics.objective_history)
    assert len(history) >= 3  # the sets actually moved
    assert history[1] < history[0]
    assert history[-1] <= history[1:].min() + 1e-15
    total_drop = history[0] - history[-1]
    assert total_drop > 0
    upticks = np.clip(np.diff(history), 0.0, None)
    assert upticks.max() <= 0.02 * total_drop
    # The history tracks the true objective: its last entry matches a direct
    # evaluation at the returned control.
    direct = problem.objective(result.control.ravel())
    assert history[-1] == pytest.approx(direct, rel=1e-9)


def test_unchanged_clamp_reuses_the_hessian_action(monkeypatch):
    """Without active bounds the clamp moves no DOF, so the solve needs one
    Hessian action per CG iteration, one that builds the preconditioner
    and one more, made fresh for the returned state and adjoint; the zero
    start needs none, as H 0 = 0."""
    problem = setup_problem(8, 6, bump_case())
    calls = []
    trace_hessian = ReducedProblem.trace_hessian

    def counted(self, *args, **kwargs):
        calls.append(1)
        return trace_hessian(self, *args, **kwargs)

    monkeypatch.setattr(ReducedProblem, "trace_hessian", counted)
    result = pdas_solve(problem, tol=1e-9)
    diagnostics = result.diagnostics
    assert diagnostics.num_lower_active == diagnostics.num_upper_active == 0
    assert diagnostics.outer_iterations == 1
    assert len(calls) == diagnostics.cg_iterations + 2


@pytest.mark.parametrize("seed", [None, 1])
def test_the_carried_hessian_action_is_the_fresh_one(monkeypatch, caplog, seed):
    """At 16x12 with q_b = 0.045 each outer step's H v, carried from the
    CG before it, equals a fresh ``trace_hessian(v)`` to 1e-12 relative.
    The solve makes one action per CG iteration, one per clamp that moved
    a DOF, one for a nonzero start, one that builds the preconditioner and
    one for the returned fields; the last ``pdas`` log line counts them."""
    case = dataclasses.replace(bump_case(), q_b=0.045)
    problem = setup_problem(16, 12, case)
    q_init = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        q_init = rng.uniform(case.q_a, case.q_b, problem.trace_dim)
    steps = []
    calls = []
    quadratic_objective = ReducedProblem._quadratic_objective
    trace_hessian = ReducedProblem.trace_hessian

    def recorded(self, v, hv):
        steps.append((v.copy(), hv.copy()))
        return quadratic_objective(self, v, hv)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return trace_hessian(self, *args, **kwargs)

    monkeypatch.setattr(ReducedProblem, "_quadratic_objective", recorded)
    monkeypatch.setattr(ReducedProblem, "trace_hessian", counted)
    with caplog.at_level("INFO", logger="dbc.optimizer"):
        diagnostics = pdas_solve(problem, tol=1e-9, q_init=q_init).diagnostics
    monkeypatch.undo()

    assert len(steps) == diagnostics.outer_iterations + 1 > 2
    for v, hv in steps:
        fresh = problem.trace_hessian(v)
        assert np.linalg.norm(hv - fresh) <= 1e-12 * np.linalg.norm(fresh)
    # A clamp that moved a DOF put it on a bound it was not on.
    qa, qb = problem.bounds.lower, problem.bounds.upper
    moved = sum(
        bool(np.any((after != before) & ((after == qa) | (after == qb))))
        for (before, _), (after, _) in zip(steps, steps[1:])
    )
    assert moved > 0
    start = int(q_init is not None)
    assert len(calls) == diagnostics.cg_iterations + moved + start + 2
    assert f" hessian={len(calls)} " in caplog.messages[-1]


def test_diagnostics_report_the_largest_slab_residual():
    problem = setup_problem(8, 6, bump_case())
    diagnostics = pdas_solve(problem, tol=1e-9).diagnostics
    assert 0.0 < diagnostics.max_slab_residual <= 1e-12
    assert diagnostics.max_slab_residual == problem.disc.max_slab_residual


def test_diagnostics_report_the_largest_extension_residual(monkeypatch):
    """At 16x12 ``EnergyExtension.check`` checks two ``solve`` calls, the
    set-up anchor's and the returned control's, whose relative residuals
    are recomputed here the same way, and the extension of every Hessian
    action; the diagnostics report the largest residual checked."""
    solves, checks, actions = [], [], []
    solve, check = EnergyExtension.solve, EnergyExtension.check
    trace_hessian = ReducedProblem.trace_hessian

    def recorded_solve(self, rhs):
        solved = solve(self, rhs)
        defect = self._interior_block @ solved.ravel()
        defect -= rhs.ravel()
        solves.append(float(np.linalg.norm(defect) / np.linalg.norm(rhs)))
        return solved

    def recorded_check(self, defect, rhs):
        check(self, defect, rhs)
        checks.append(float(np.linalg.norm(defect) / np.linalg.norm(rhs)))

    def counted_action(self, *args, **kwargs):
        actions.append(None)
        return trace_hessian(self, *args, **kwargs)

    monkeypatch.setattr(EnergyExtension, "solve", recorded_solve)
    monkeypatch.setattr(EnergyExtension, "check", recorded_check)
    monkeypatch.setattr(ReducedProblem, "trace_hessian", counted_action)
    diagnostics = pdas_solve(setup_problem(16, 12, bump_case()), tol=1e-9).diagnostics
    assert len(solves) == 2
    assert len(checks) == len(solves) + len(actions) > 2
    assert set(solves) <= set(checks)
    assert 0.0 < diagnostics.max_extension_residual <= 1e-12
    assert diagnostics.max_extension_residual == max(checks)


@pytest.mark.parametrize(
    "scale,modes,reading,named",
    [(1.5, slice(None), 0.1, r"\d+"), (1.01, 3, 1e-3, "3")],
    ids=["all-x1.5", "mode3-x1.01"],
)
def test_a_wrong_extension_factor_stops_the_solve(
    corrupt_extension, scale, modes, reading, named
):
    """With the extension's mode factors made wrong after set-up at 16x12,
    every diagonal 1.5 times too large or mode 3's 1% too large,
    ``pdas_solve`` raises ``SolverError`` from the extension check of its
    first Hessian action, naming mode 3 when it alone is wrong, instead of
    going on.  The check is relative to the small right-hand side, and on
    failure reads the named mode's own relative residual when it is the
    larger: 0.61 and 2.5e-2 on that action's direction, whose mode 3 part
    is small, so that the overall relative residual reads only 1.5e-4 for
    the wrong mode 3."""
    problem = setup_problem(16, 12, bump_case())
    corrupt_extension(scale, modes)
    with pytest.raises(
        SolverError, match=f"^extension solve failed in time mode {named}:"
    ) as info:
        pdas_solve(problem, tol=1e-9)
    assert info.value.slab is None
    assert info.value.residual > reading


@pytest.mark.parametrize(
    "scale,modes,reading,named",
    [(1.5, slice(None), 0.1, r"\d+"), (1.01, 3, 1e-3, "3")],
    ids=["all-x1.5", "mode3-x1.01"],
)
def test_a_wrong_extension_factor_stops_a_hessian_action(
    corrupt_extension, scale, modes, reading, named
):
    """The same corruptions make a trace Hessian action of a random
    direction raise ``SolverError`` naming the time mode, mode 3 when it
    alone is wrong, with the relative residual of its extension solve or
    the named mode's own, the larger, as the interior block and the time
    modes recompute them here."""
    problem = setup_problem(16, 12, bump_case())
    corrupt_extension(scale, modes)
    v = np.random.default_rng(36).standard_normal(problem.trace_dim)
    with pytest.raises(
        SolverError, match=f"^extension solve failed in time mode {named}:"
    ) as info:
        problem.trace_hessian(v)
    assert info.value.slab is None
    assert info.value.residual > reading

    extension = problem.extension
    q = np.zeros(problem.dim)
    q[problem.trace_indices] = v
    rhs = -(problem.disc.seminorm @ q)[problem.interior_indices]
    rhs = rhs.reshape(problem.disc.mesh.num_control_levels, -1)
    solved = extension.solve_from_tail(rhs[:, extension.tail])
    defect = extension._interior_block @ solved.ravel() - rhs.ravel()
    residual = np.linalg.norm(defect) / np.linalg.norm(rhs)
    modal = np.linalg.norm(extension.modes.T @ defect.reshape(rhs.shape), axis=1)
    mode = int(np.argmax(modal))
    assert str(info.value).startswith(f"extension solve failed in time mode {mode}:")
    own = modal[mode] / np.linalg.norm(extension.modes[:, mode] @ rhs)
    assert info.value.residual == pytest.approx(max(residual, own), rel=1e-9)


@pytest.mark.parametrize(
    "scale,modes,reading,named",
    [(1.5, slice(None), 0.1, r"\d+"), (1.01, 3, 1e-3, "3")],
    ids=["all-x1.5", "mode3-x1.01"],
)
def test_a_wrong_folded_factor_stops_the_solve(
    monkeypatch, corrupt_extension, scale, modes, reading, named
):
    """The same corruptions of the extension's mode factors in the folded
    layout, forced by the fold gate, stop the solve alike."""
    monkeypatch.setattr(assembly, "_FOLD_WORK", 0)
    test_a_wrong_extension_factor_stops_the_solve(
        corrupt_extension, scale, modes, reading, named
    )


@pytest.mark.parametrize(
    "scale,modes,reading,named",
    [(1.5, slice(None), 0.1, r"\d+"), (1.01, 3, 1e-3, "3")],
    ids=["all-x1.5", "mode3-x1.01"],
)
def test_a_wrong_folded_factor_stops_a_hessian_action(
    monkeypatch, corrupt_extension, scale, modes, reading, named
):
    """The same corruptions in the folded layout stop a trace Hessian
    action alike, naming the mode with the same residual reading."""
    monkeypatch.setattr(assembly, "_FOLD_WORK", 0)
    test_a_wrong_extension_factor_stops_a_hessian_action(
        corrupt_extension, scale, modes, reading, named
    )


def test_no_control_space_matrix_is_assembled(monkeypatch):
    """The seminorm and the control mass act from their Kronecker factors:
    no ``sp.kron`` product as wide as the control space is ever formed."""
    widths = []
    kron = sp.kron

    def recorded(*args, **kwargs):
        product = kron(*args, **kwargs)
        widths.append(product.shape[1])
        return product

    monkeypatch.setattr(sp, "kron", recorded)
    problem = setup_problem(8, 6, bump_case())
    pdas_solve(problem, tol=1e-9)
    assert widths
    assert problem.dim not in widths


def test_unshifted_regularizer_solves_to_tolerance():
    """With q_d zero the regularizer is |q|, not |q - q_d|: no shift, the
    anchor is the zero control, and PDAS still meets the KKT tolerance at
    8x6, at a control other than the shifted problem's."""
    tol = 1e-9
    problem = setup_problem(
        8, 6, dataclasses.replace(bump_case(), control_shift=zero_data)
    )
    assert not problem.q_shift.any()
    assert not problem.anchor.any()
    result = pdas_solve(problem, tol=tol)
    d = result.diagnostics
    assert d.stationarity <= tol
    assert d.complementarity <= tol
    assert d.infeasibility == 0.0
    shifted = pdas_solve(setup_problem(8, 6, bump_case()), tol=tol)
    assert np.abs(result.control.values - shifted.control.values).max() > 1e-3


def test_one_slab_has_no_control_levels(caplog):
    """With one slab the control space is empty, and so is every trace
    vector; set-up and the solve still go through, and CG, whose empty
    right-hand side meets its target, makes no iteration and builds no
    preconditioner."""
    problem = setup_problem(4, 1, bump_case())
    assert problem.disc.mesh.num_control_levels == 0
    assert problem.dim == problem.trace_dim == 0
    with caplog.at_level("INFO", logger="dbc.optimizer"):
        result = pdas_solve(problem, tol=1e-9)
    assert result.diagnostics.cg_iterations == 0
    assert not [m for m in caplog.messages if "pdas preconditioner=" in m]
    assert result.control.values.shape == (0, problem.disc.mesh.num_nodes)
    assert result.state.values.shape == (1, problem.disc.mesh.num_interior)


def test_objective_history_strictly_descends_without_set_changes():
    """With inactive bounds there is one solve and no set flips, so the
    two-entry history must descend outright."""
    problem = setup_problem(3, 3, wide_case())
    result = pdas_solve(problem, tol=1e-11)
    history = result.diagnostics.objective_history
    assert len(history) == 2
    assert history[1] < history[0]


def test_warm_start_converges_in_one_iteration():
    problem = setup_problem(3, 3, dataclasses.replace(bump_case(), q_b=0.03))
    cold = pdas_solve(problem, tol=1e-10)
    v0 = cold.control.ravel()[problem.trace_indices]
    warm = pdas_solve(problem, q_init=v0, tol=1e-10)
    assert warm.diagnostics.outer_iterations == 1
    assert np.allclose(
        warm.control.values, cold.control.values, rtol=0, atol=1e-9
    )


@pytest.mark.parametrize("length", [1, 5, 405])
def test_start_of_a_wrong_length_is_rejected(length):
    """At 8x6 a start must have length 35, the trace's; one on all 405
    control DOFs is rejected too."""
    problem = setup_problem(8, 6, bump_case())
    assert (problem.trace_dim, problem.dim) == (35, 405)
    with pytest.raises(ValueError, match=f"length 35, got length {length}"):
        pdas_solve(problem, tol=1e-9, q_init=np.zeros(length))


def test_infeasible_init_is_clipped():
    problem = setup_problem(3, 3, dataclasses.replace(bump_case(), q_b=0.03))
    v0 = np.full(problem.trace_dim, 5.0)  # far above the upper bound
    result = pdas_solve(problem, q_init=v0, tol=1e-10)
    assert result.diagnostics.infeasibility == 0.0


def test_nonconvergence_carries_diagnostics():
    problem = setup_problem(3, 3, bump_case())
    with pytest.raises(PdasNonconvergence) as excinfo:
        pdas_solve(problem, tol=1e-9, max_outer=0)
    diag = excinfo.value.diagnostics
    assert diag.outer_iterations == 0
    assert diag.stationarity > 0


def test_solution_state_and_adjoint_are_consistent(problem33):
    """Returned fields equal independent forward/adjoint solves at the
    returned control."""
    case = bump_case()
    result = pdas_solve(problem33, tol=1e-10)
    disc = problem33.disc
    w = solve_state(disc, f=case.source, u0=case.initial, control=result.control)
    assert np.allclose(result.state.values, w.values, rtol=1e-10, atol=1e-12)
    z = solve_adjoint(disc, w, control=result.control, u_d=case.target)
    assert np.allclose(result.adjoint.values, z.values, rtol=1e-10, atol=1e-12)


def test_kkt_diagnostics_as_dict(problem33):
    result = pdas_solve(problem33, tol=1e-10)
    payload = result.diagnostics.as_dict()
    assert set(payload) == {
        "stationarity",
        "complementarity",
        "infeasibility",
        "num_lower_active",
        "num_upper_active",
        "outer_iterations",
        "cg_iterations",
        "max_slab_residual",
        "max_extension_residual",
        "objective_history",
    }
    assert isinstance(payload["objective_history"], list)


# -- inner CG ---------------------------------------------------------------------


def test_pcg_solves_spd_system():
    """CG solves the system on the rows of a larger operator that a mask
    marks, with x exactly zero off the mask, and returns the operator's
    whole product for the solution alongside it."""
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((10, 10))
    spd = mat @ mat.T + 10.0 * np.eye(10)
    mask = np.arange(10) >= 2
    block = spd[np.ix_(mask, mask)]
    rhs = rng.standard_normal(10)
    jacobi = np.diag(spd)
    x, iters, product = _pcg(
        lambda p: spd @ p, mask, rhs, lambda r: r / jacobi, 1e-12, 100
    )
    assert iters <= 8 + 1
    assert not x[~mask].any()
    assert np.allclose(block @ x[mask], rhs[mask], rtol=1e-10, atol=1e-12)
    assert np.allclose(product, spd @ x, rtol=1e-12, atol=1e-12)


def test_pcg_below_its_target_makes_no_product():
    """A right-hand side already at or below the target returns the zero
    solution in 0 iterations, without one call to the operator or the
    preconditioner."""
    calls = []

    def op(p):
        calls.append(1)
        return p

    def identity(r):
        calls.append(1)
        return r

    rhs = np.array([3e-13, -4e-13])
    every = np.ones(2, dtype=bool)
    for target in (5e-13, 1e-12):
        x, iters, product = _pcg(op, every, rhs, identity, target, 100)
        assert iters == 0 and not x.any() and product == 0.0
    x0, it0, _ = _pcg(op, every, np.zeros(2), identity, 0.0, 100)
    assert it0 == 0 and not x0.any()
    assert not calls


def test_pcg_raises_on_indefinite_operator():
    ones = np.ones(4)
    with pytest.raises(CGBreakdownError) as excinfo:
        _pcg(lambda p: -p, ones > 0, ones, lambda r: r, 1e-12, 100)
    assert excinfo.value.iterations == 1


def test_pcg_raises_on_iteration_budget():
    diag = np.array([1.0, 1e6])
    with pytest.raises(CGBreakdownError):
        _pcg(lambda p: diag * p, diag > 0, np.ones(2), lambda r: r, 1e-14, 1)


# -- trace preconditioner -----------------------------------------------------


def built_preconditioner(problem):
    """``_trace_preconditioner`` of ``problem`` and the number of Hessian
    actions its build made."""
    actions = []

    def hessian(trace_values):
        actions.append(1)
        return problem.trace_hessian(trace_values)

    return _trace_preconditioner(problem, hessian), len(actions)


def jacobi_diagonal(problem):
    return problem.lam * problem.disc.seminorm.diagonal()[problem.trace_indices]


@pytest.mark.parametrize("n,M", [(8, 6), (16, 12)])
def test_sine_inverse_is_symmetric_positive_definite(n, M, caplog):
    """One action builds the sine preconditioner, and P^-1, applied to the
    identity's columns, is symmetric to 1e-12 relative and positive
    definite.  The preconditioner line's arguments, min sigma and max sigma,
    are the extreme eigenvalues of P, the inverse of that dense P^-1, to
    1e-10 relative."""
    problem = setup_problem(n, M, bump_case())
    with caplog.at_level("INFO", logger="dbc.optimizer"):
        inverse, actions = built_preconditioner(problem)
    assert actions == 1
    record = caplog.records[-1]
    assert record.getMessage().startswith("pdas preconditioner=sine lambda_min=")
    matrix = np.column_stack([inverse(col) for col in np.eye(problem.trace_dim)])
    assert np.abs(matrix - matrix.T).max() <= 1e-12 * np.abs(matrix).max()
    eigenvalues = np.linalg.eigvalsh(np.linalg.inv(0.5 * (matrix + matrix.T)))
    assert eigenvalues[0] > 0.0
    np.testing.assert_allclose(
        record.args, eigenvalues[[0, -1]], rtol=1e-10, atol=0.0
    )


def dirichlet_laplacian(size):
    return 2.0 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1)


@pytest.mark.parametrize("n,M,shape", [(8, 6, (5, 7)), (9, 7, (6, 8)), (9, 6, (5, 8))])
def test_sine_preconditioner_inverts_its_own_algebra(n, M, shape):
    """For A = I (x) T_x + T_t (x) I + c I, T_t and T_x the 1-D Dirichlet
    Laplacians over the levels and the boxed vertices, S A S is diagonal,
    so the probe's symbol has no leakage and is A's eigenvalues: P is A,
    and P^-1 inverts it to 1e-12; with odd and even counts of levels and of
    vertices."""
    problem = setup_problem(n, M, bump_case())
    levels = problem.disc.mesh.num_control_levels
    nb = len(problem.bounds.boxed_vertices)
    assert (levels, nb) == shape
    operator = (
        np.kron(np.eye(levels), dirichlet_laplacian(nb))
        + np.kron(dirichlet_laplacian(levels), np.eye(nb))
        + 0.3 * np.eye(levels * nb)
    )
    inverse = _trace_preconditioner(problem, lambda v: operator @ v)
    product = np.column_stack([inverse(col) for col in operator.T])
    assert np.abs(product - np.eye(levels * nb)).max() <= 1e-12


@pytest.mark.parametrize("n,M", [(8, 6), (16, 12)])
def test_probed_symbol_is_the_optimal_tau_symbol(n, M):
    """The probed symbol is diag(S H S), the symbol of the best tau-algebra
    approximation of the trace Hessian H, within 10% in every entry
    (measured at most 2.4% at 8x6 and 2.2% at 16x12): H built densely from
    trace Hessian actions, S = S_t (x) S_x the orthonormal sine matrices."""
    problem = setup_problem(n, M, bump_case())
    levels = problem.disc.mesh.num_control_levels
    nb = len(problem.bounds.boxed_vertices)
    sine = np.kron(_sine_matrix(levels), _sine_matrix(nb))
    optimal = np.diag(sine @ dense_trace_hessian(problem) @ sine)
    symbol = _probed_symbol(problem.trace_hessian, levels, nb).ravel()
    assert optimal.min() > 0.0
    assert np.abs(symbol / optimal - 1.0).max() <= 0.1


def test_preconditioner_falls_back_to_jacobi_with_no_action(caplog):
    """With the whole boundary boxed the boxed vertices are no evenly
    spaced run, so the preconditioner is Jacobi and its build makes no
    action."""
    case = dataclasses.replace(bump_case(), control_boundary=whole_boundary)
    problem = setup_problem(8, 6, case)
    with caplog.at_level("INFO", logger="dbc.optimizer"):
        inverse, actions = built_preconditioner(problem)
    assert actions == 0
    assert caplog.messages == [
        "pdas preconditioner=jacobi reason=boxed vertices not one evenly spaced run"
    ]
    residual = np.random.default_rng(2).standard_normal(problem.trace_dim)
    assert np.array_equal(inverse(residual), residual / jacobi_diagonal(problem))


def test_an_indefinite_symbol_falls_back_to_jacobi(monkeypatch, caplog):
    """A symbol that is not positive gives Jacobi, after the one build
    action; the solve still converges and counts that action."""
    monkeypatch.setattr(
        "dbc.optimizer._probed_symbol", lambda *args: -_probed_symbol(*args)
    )
    problem = setup_problem(8, 6, bump_case())
    inverse, actions = built_preconditioner(problem)
    assert actions == 1
    residual = np.random.default_rng(3).standard_normal(problem.trace_dim)
    assert np.array_equal(inverse(residual), residual / jacobi_diagonal(problem))
    with caplog.at_level("INFO", logger="dbc.optimizer"):
        diagnostics = pdas_solve(problem, tol=1e-9).diagnostics
    assert diagnostics.outer_iterations == 1
    assert "pdas preconditioner=jacobi reason=symbol not positive" in (
        caplog.messages
    )
    assert f" hessian={diagnostics.cg_iterations + 2} " in caplog.messages[-1]


def test_each_solve_logs_its_preconditioner_once(caplog):
    """A cold solve writes one preconditioner line; a warm start at the
    optimum makes no CG product, so it builds none: two actions, the start's
    and the returned fields'."""
    problem = setup_problem(8, 6, bump_case())
    with caplog.at_level("INFO", logger="dbc.optimizer"):
        cold = pdas_solve(problem, tol=1e-9)
    lines = [m for m in caplog.messages if "preconditioner=" in m]
    assert len(lines) == 1 and "preconditioner=sine" in lines[0]
    caplog.clear()
    v0 = cold.control.ravel()[problem.trace_indices]
    with caplog.at_level("INFO", logger="dbc.optimizer"):
        warm = pdas_solve(problem, tol=1e-9, q_init=v0)
    assert warm.diagnostics.cg_iterations == 0
    assert not [m for m in caplog.messages if "preconditioner=" in m]
    assert " hessian=2 " in caplog.messages[-1]


@pytest.mark.parametrize(
    "n,M,lam,most,outer",
    [
        (16, 12, 1e-5, 32, 5),
        (32, 23, 1e-4, 8, 1),
        (16, 12, 1e-3, 6, 1),
        (32, 23, 1e-3, 7, 1),
    ],
)
def test_sine_cg_counts_at_small_lambda(n, M, lam, most, outer):
    """The sine preconditioner sees the misfit as well as the
    regularization, so CG needs far fewer iterations than Jacobi's 80 and 36
    at lam = 1e-5 and 1e-4, with the same outer steps; at the bump's lam =
    1e-3 the probed symbol takes 6 and 7 CG, where a symbol read from the
    middle column's Toeplitz kernel took 9 at both levels."""
    problem = setup_problem(n, M, dataclasses.replace(bump_case(), lam=lam))
    diagnostics = pdas_solve(problem, tol=1e-9).diagnostics
    assert diagnostics.num_lower_active == diagnostics.num_upper_active == 0
    assert diagnostics.outer_iterations == outer
    assert diagnostics.cg_iterations <= most
