"""Benchmark case consistency, error norms, and the study driver."""

import dataclasses
import json

import numpy as np
import pytest

from _oracles import TRI_RULE_8, triangle_ranges, zero_control
from dbc.manufactured import (
    CASES,
    MeshMismatchError,
    build_space_time_mesh,
    bump_case,
    control_error,
    energy_error_adjoint,
    energy_error_state,
    eoc,
    run_study,
    setup_problem,
)
from dbc import assembly
from dbc.assembly import Discretization, Quadrature
from dbc.spaces import AdjointField, ControlField, StateField, interpolate_control


def _d1(f, x, e=1e-3):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e) + f(x - 2 * e)) / (12 * e)


def _d2(f, x, e=1e-2):
    """Fourth-order central second derivative."""
    return (
        -f(x + 2 * e)
        + 16 * f(x + e)
        - 30 * f(x)
        + 16 * f(x - e)
        - f(x - 2 * e)
    ) / (12 * e * e)


@pytest.fixture(scope="module")
def case():
    return bump_case()


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    return 0.15 + 0.7 * rng.random((20, 3))


# -- case self-consistency ------------------------------------------------------


def test_case_registry(case):
    assert "bump" in CASES
    assert CASES["bump"]().name == case.name
    assert case.lam == 1e-3
    assert (case.q_a, case.q_b) == (0.0, 0.8)


def test_source_is_heat_residual_of_state(case, points):
    for x, y, t in points:
        u_t = _d1(lambda s: case.state(x, y, s), t)
        u_xx = _d2(lambda s: case.state(s, y, t), x)
        u_yy = _d2(lambda s: case.state(x, s, t), y)
        expected = u_t - u_xx - u_yy
        assert case.source(x, y, t) == pytest.approx(expected, rel=1e-5, abs=1e-8)


def test_target_closes_the_adjoint_equation(case, points):
    """u_d = u + phi_t + Laplace(phi) makes the exact adjoint phi solve the
    backward equation with tracking data u - u_d."""
    for x, y, t in points:
        p_t = _d1(lambda s: case.adjoint(x, y, s), t)
        p_xx = _d2(lambda s: case.adjoint(s, y, t), x)
        p_yy = _d2(lambda s: case.adjoint(x, s, t), y)
        expected = case.state(x, y, t) + p_t + p_xx + p_yy
        assert case.target(x, y, t) == pytest.approx(expected, rel=1e-5, abs=1e-8)


def test_declared_derivatives_match_finite_differences(case, points):
    for x, y, t in points:
        assert case.control_t(x, y, t) == pytest.approx(
            _d1(lambda s: case.control(x, y, s), t), rel=1e-8, abs=1e-10
        )
        gx, gy = case.control_grad(x, y, t)
        assert gx == pytest.approx(
            _d1(lambda s: case.control(s, y, t), x), rel=1e-8, abs=1e-10
        )
        assert gy == pytest.approx(
            _d1(lambda s: case.control(x, s, t), y), rel=1e-8, abs=1e-10
        )
        ax, ay = case.adjoint_grad(x, y, t)
        assert ax == pytest.approx(
            _d1(lambda s: case.adjoint(s, y, t), x), rel=1e-8, abs=1e-10
        )
        assert ay == pytest.approx(
            _d1(lambda s: case.adjoint(x, s, t), y), rel=1e-8, abs=1e-10
        )


def test_case_boundary_structure(case):
    s = np.linspace(0.0, 1.0, 11)
    t = 0.37
    # The control (= state trace) vanishes on the three homogeneous sides
    # and at the time endpoints; the adjoint vanishes on the whole boundary.
    assert np.allclose(case.control(0.0 * s, s, t), 0.0)
    assert np.allclose(case.control(0.0 * s + 1.0, s, t), 0.0)
    assert np.allclose(case.control(s, 0.0 * s + 1.0, t), 0.0)
    assert np.allclose(case.control(s, 0.0 * s, 0.0), 0.0)
    assert np.allclose(case.control(s, 0.0 * s, 1.0), 0.0)
    assert not np.allclose(case.control(s, 0.0 * s, t), 0.0)
    for edge in (
        (0.0 * s, s),
        (0.0 * s + 1.0, s),
        (s, 0.0 * s),
        (s, 0.0 * s + 1.0),
    ):
        assert np.allclose(case.adjoint(edge[0], edge[1], t), 0.0)
    # The exact control respects the box constraints with slack.
    X, Y = np.meshgrid(s, s)
    vals = case.control(X, Y, 0.5)
    assert vals.min() >= case.q_a and vals.max() < case.q_b
    assert case.initial is None  # the exact state starts from zero
    assert case.control_shift is case.control  # regularizer anchored there


# -- error norms against closed-form integrals ------------------------------------


@pytest.fixture(scope="module")
def exact_norms():
    """Space-time energy norms of the exact triple by symbolic integration."""
    import sympy as sym

    x, y = sym.symbols("x y")
    u_xy = x * (1 - x) * sym.exp(y) * (1 - y)
    phi_xy = (x**2 - x**3) * (y**2 - y**3)

    def sq_grad(f):
        return sym.integrate(
            sym.integrate(f.diff(x) ** 2 + f.diff(y) ** 2, (x, 0, 1)), (y, 0, 1)
        )

    def sq(f):
        return sym.integrate(sym.integrate(f**2, (x, 0, 1)), (y, 0, 1))

    tau_sq = sym.Rational(1, 30)  # int_0^1 t^2 (1-t)^2 dt
    dtau_sq = sym.Rational(1, 3)  # int_0^1 (1-2t)^2 dt
    state = sym.sqrt(sq_grad(u_xy) * tau_sq)
    adjoint = sym.sqrt(sq_grad(phi_xy) * tau_sq)
    control = sym.sqrt(sq(u_xy) * dtau_sq + sq_grad(u_xy) * tau_sq)
    return {
        "state": float(state),
        "adjoint": float(adjoint),
        "control": float(control),
    }


def test_error_norms_of_zero_fields_are_exact_norms(case, exact_norms):
    disc = Discretization(build_space_time_mesh(6, 6))
    mesh = disc.mesh
    disc.quad = Quadrature(mesh, TRI_RULE_8, 4)
    slabs = np.zeros((mesh.num_slabs, mesh.num_interior))
    zero = zero_control(mesh)
    err_u = energy_error_state(disc, case, StateField(mesh, slabs), zero)
    assert err_u == pytest.approx(exact_norms["state"], rel=1e-6)
    err_p = energy_error_adjoint(disc, case, AdjointField(mesh, slabs))
    assert err_p == pytest.approx(exact_norms["adjoint"], rel=1e-5)
    err_q = control_error(disc, case, zero)
    assert err_q == pytest.approx(exact_norms["control"], rel=1e-6)


def test_interpolant_error_decays_at_first_order(case):
    errors = []
    for n, M in ((4, 4), (8, 8), (16, 16)):
        disc = Discretization(build_space_time_mesh(n, M))
        q = interpolate_control(disc.mesh, case.control)
        errors.append(control_error(disc, case, q))
    rates = eoc(errors, [1 / 4, 1 / 8, 1 / 16])
    assert rates[1] == pytest.approx(1.0, abs=0.15)
    assert rates[2] == pytest.approx(1.0, abs=0.1)


def test_error_norms_reject_foreign_mesh(case):
    disc = Discretization(build_space_time_mesh(3, 3))
    other = build_space_time_mesh(3, 3)
    slabs = np.zeros((other.num_slabs, other.num_interior))
    with pytest.raises(MeshMismatchError):
        energy_error_state(disc, case, StateField(other, slabs), zero_control(other))
    with pytest.raises(MeshMismatchError):
        energy_error_adjoint(disc, case, AdjointField(other, slabs))
    with pytest.raises(MeshMismatchError):
        control_error(disc, case, zero_control(other))


def _random_fields(mesh, seed):
    rng = np.random.default_rng(seed)
    slabs = (mesh.num_slabs, mesh.num_interior)
    return (
        StateField(mesh, rng.standard_normal(slabs)),
        AdjointField(mesh, rng.standard_normal(slabs)),
        ControlField(
            mesh, rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
        ),
    )


def _norms(disc, case, fields):
    state, adjoint, control = fields
    return (
        energy_error_state(disc, case, state, control),
        energy_error_adjoint(disc, case, adjoint),
        control_error(disc, case, control),
    )


_EXACT = ("state_grad", "adjoint_grad", "control_grad", "control_t")


def _constant(values):
    def exact(x, y, t):
        return values

    return exact


def _returned_as(form, g, kept):
    """g, whose values come as new arrays of the block's shape with
    ``form`` "array", and as read-only ``np.broadcast_to`` views of such
    arrays with "read-only"; each array that a view shows goes to
    ``kept``, with a copy."""

    def exact(x, y, t):
        values = g(x, y, t)
        parts = values if isinstance(values, tuple) else (values,)
        out = []
        for part in parts:
            full = np.array(np.broadcast_to(part, t.shape[:1] + x.shape))
            if form == "read-only":
                kept.append((full, full.copy()))
                full = np.broadcast_to(full, full.shape)
            out.append(full)
        return tuple(out) if isinstance(values, tuple) else out[0]

    return exact


@pytest.mark.parametrize("solution", ["bump", "constant"])
def test_norms_are_the_same_however_the_exact_values_come(case, solution):
    """The three norms of random fields at 8x6 are the same bits whether
    the exact derivatives come as the case returns them (new arrays for
    the bump, Python scalars for constant derivatives), as new arrays of
    the block's shape, or as read-only views of such arrays; the norms
    never write an array that a read-only view shows."""
    disc = Discretization(build_space_time_mesh(8, 6))
    fields = _random_fields(disc.mesh, 23)
    if solution == "constant":
        case = dataclasses.replace(
            case,
            state_grad=_constant((0.5, -1.0)),
            adjoint_grad=_constant((2.0, 0.25)),
            control_grad=_constant((-0.75, 1.5)),
            control_t=_constant(3.0),
        )
    kept = []
    norms = [_norms(disc, case, fields)]
    for form in ("array", "read-only"):
        returned = {name: _returned_as(form, getattr(case, name), kept)
                    for name in _EXACT}
        norms.append(_norms(disc, dataclasses.replace(case, **returned), fields))
    assert norms[0] == norms[1] == norms[2]
    assert kept
    for full, copy in kept:
        assert np.array_equal(full, copy)


def test_each_norm_calls_its_exact_derivatives_once_per_block(case, monkeypatch):
    """With blocks of 5 Gauss times, which straddle slabs, by slices of at
    most 100 triangles, each norm at 16x12 calls each of its exact
    callables once per block, on the slice's own points, so that together
    the calls cover every Gauss time and triangle exactly once; and the
    norms agree with those of the default blocks within 1e-14 relative."""
    disc = Discretization(build_space_time_mesh(16, 12))
    fields = _random_fields(disc.mesh, 29)
    expected = _norms(disc, case, fields)
    monkeypatch.setattr(assembly, "_BLOCK_TIMES", 5)
    nq = len(assembly._TRI_RULE_4[1])
    monkeypatch.setattr(assembly, "_BLOCK_VALUES", 5 * nq * 100)
    disc = Discretization(disc.mesh)
    q = disc.quad
    times = q.times.ravel()
    slice_of = {id(part.x): r for part, r in zip(q.slices, triangle_ranges(q))}
    assert len(slice_of) == 6
    blocks = -(-times.size // 5) * len(q.slices)
    seen, calls = {}, {}

    def recorded(name):
        g = getattr(case, name)

        def exact(x, y, t):
            calls[name] = calls.get(name, 0) + 1
            rows = np.searchsorted(times, t.ravel())
            assert np.array_equal(times[rows], t.ravel())
            covered = seen.setdefault(name, np.zeros((times.size, len(q.triangles))))
            covered[rows, slice_of[id(x)]] += 1
            return g(x, y, t)

        return exact

    recording = dataclasses.replace(case, **{name: recorded(name) for name in _EXACT})
    state, adjoint, control = fields
    for norm, names, args in (
        (energy_error_state, {"state_grad"}, (state, control)),
        (energy_error_adjoint, {"adjoint_grad"}, (adjoint,)),
        (control_error, {"control_grad", "control_t"}, (control,)),
    ):
        seen.clear()
        calls.clear()
        norm(disc, recording, *args)
        assert set(seen) == names
        assert calls == {name: blocks for name in names}
        for covered in seen.values():
            assert (covered == 1).all()
    got = _norms(disc, case, fields)
    for value, want in zip(got, expected):
        assert value == pytest.approx(want, rel=1e-14, abs=0)


# -- EOC helper --------------------------------------------------------------------


def test_eoc_recovers_synthetic_rates():
    params = [1.0, 0.5, 0.25]
    rates = eoc([1.0, 0.5, 0.25], params)
    assert rates[0] is None
    assert rates[1] == pytest.approx(1.0)
    assert rates[2] == pytest.approx(1.0)
    quad = eoc([1.0, 0.25, 0.0625], params)
    assert quad[1:] == pytest.approx([2.0, 2.0])


# -- study driver ------------------------------------------------------------------


def test_setup_problem_wires_the_case(case):
    problem = setup_problem(4, 3, case)
    assert problem.lam == case.lam
    assert problem.bounds.lower == case.q_a
    assert problem.bounds.upper == case.q_b
    # Open bottom edge: (n - 1) boxed vertices per interior level.
    assert problem.trace_dim == (3 - 1) * (4 - 1)


def test_run_study_small_levels(tmp_path, case):
    report = run_study([(3, 3), (6, 6)], case, tol=1e-9, max_outer=50)
    assert report.failure is None
    assert [
        (r.n, r.M) for r in report.records
    ] == [(3, 3), (6, 6)]
    r0, r1 = report.records
    assert r0.h == pytest.approx(1 / 3) and r0.k == pytest.approx(1 / 3)
    assert r1.sigma == pytest.approx(np.hypot(1 / 6, 1 / 6))
    assert r1.err_state < r0.err_state
    assert r1.err_adjoint < r0.err_adjoint
    assert r1.err_control < r0.err_control
    assert report.rate_state_h[0] is None
    assert report.rate_state_h[1] > 0.5
    for record in report.records:
        assert record.kkt["stationarity"] < 1e-9
        assert record.kkt["infeasibility"] == 0.0

    csv_path = tmp_path / "table.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",")[:5] == ["n", "M", "h", "k", "sigma"]
    report.write_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == csv_path.read_bytes()

    json_path = tmp_path / "report.json"
    report.write_json(json_path)
    payload = json.loads(json_path.read_text())
    assert payload["case"] == case.name
    assert payload["failure"] is None
    assert len(payload["levels"]) == 2
    assert len(payload["rates"]["control_sigma"]) == 2


def test_run_study_records_failure(case):
    report = run_study([(3, 3)], case, tol=1e-9, max_outer=0)
    assert report.failure is not None
    assert "(n=3, M=3)" in report.failure
    assert report.records == []
    assert report.rate_state_h == []


def test_run_study_stops_at_a_wrong_extension_solve(case, corrupt_extension):
    """Wrong mode factors fail the first level's set-up, at the extension
    solve of its anchor, and the report names the level."""
    corrupt_extension(1.5)
    report = run_study([(3, 3), (6, 6)], case, tol=1e-9, max_outer=50)
    assert report.failure.startswith("level (n=3, M=3): extension solve failed")
    assert report.records == []


def test_run_study_stops_at_a_wrong_folded_extension_solve(
    monkeypatch, case, corrupt_extension
):
    """The same with the extension in the folded layout, forced by the fold
    gate."""
    monkeypatch.setattr(assembly, "_FOLD_WORK", 0)
    test_run_study_stops_at_a_wrong_extension_solve(case, corrupt_extension)


def test_run_study_stops_at_a_corrupted_slab_solve(case, corrupt_slab_solve, tmp_path):
    """A wrong slab solve on the second level (6x6 has 25 interior vertices)
    fails the study there, and the table keeps the first level."""
    corrupt_slab_solve(1, size=25)
    report = run_study([(3, 3), (6, 6)], case, tol=1e-9, max_outer=50)
    assert report.failure.startswith("level (n=6, M=6): slab 1 solve failed")
    assert [(r.n, r.M) for r in report.records] == [(3, 3)]
    report.write_csv(tmp_path / "table.csv")
    rows = (tmp_path / "table.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("3,3,")
