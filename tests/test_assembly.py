"""Assembled operators against symbolic and quadrature oracles."""

import ctypes
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

import _oracles
import _symbolic
from _oracles import (
    TRI_RULE_8,
    control_mass,
    dtbsv,
    pair_state_control,
    whole_boundary,
    zero_data,
)
from dbc import assembly, kernels
from dbc.assembly import (
    Discretization,
    EnergyExtension,
    Quadrature,
    assemble_mass_stiffness,
    bilinear_form,
    coercivity_gap,
    export_matrix_market,
    gauss_interval,
    spatial_load_vector,
    time_mass_stiffness,
)
from dbc.kernels import AssemblyError, dpbtrf
from dbc.manufactured import (
    build_space_time_mesh,
    bump_case,
    control_error,
    energy_error_adjoint,
    energy_error_state,
    setup_problem,
)
from dbc.optimizer import pdas_solve
from dbc.mesh import (
    SpaceTimeMesh,
    Triangulation,
    uniform_time_partition,
    unit_square_mesh,
)
from dbc.spaces import (
    AdjointField,
    BoundSet,
    ControlField,
    StateField,
    interpolate_control,
    pad_levels,
)


@pytest.fixture
def disc():
    return Discretization(build_space_time_mesh(3, 3))


# -- element matrices vs symbolic integration ---------------------------------


@pytest.mark.parametrize(
    "coords",
    [
        [("0", "0"), ("1", "0"), ("0", "1")],
        [("0.25", "0.125"), ("1.5", "0.5"), ("0.375", "1.25")],
    ],
)
def test_triangle_matrices_match_symbolic(coords):
    tri = Triangulation(
        np.array(coords, dtype=float), [[0, 1, 2]]
    )
    mass, stiff = assemble_mass_stiffness(tri)
    mass_ref, stiff_ref = _symbolic.triangle_matrices(coords)
    assert np.abs(mass.toarray() - mass_ref).max() < 1e-14
    assert np.abs(stiff.toarray() - stiff_ref).max() < 1e-14


def test_global_matrices_structure():
    tri = unit_square_mesh(3)
    mass, stiff = assemble_mass_stiffness(tri)
    assert np.abs((mass - mass.T).toarray()).max() < 1e-15
    assert np.abs((stiff - stiff.T).toarray()).max() < 1e-15
    ones = np.ones(tri.num_vertices)
    # Constants lie in the stiffness kernel; mass row sums integrate to one.
    assert np.abs(stiff @ ones).max() < 1e-14
    assert float(ones @ (mass @ ones)) == pytest.approx(1.0, abs=1e-14)
    eigs = np.linalg.eigvalsh(mass.toarray())
    assert eigs.min() > 0


def test_time_matrices_match_symbolic():
    points = ["0", "0.25", "0.75", "1.5"]
    mass, stiff = time_mass_stiffness(np.array(points, dtype=float))
    mass_ref, stiff_ref = _symbolic.time_matrices(points)
    assert np.abs(mass.toarray() - mass_ref).max() < 1e-14
    assert np.abs(stiff.toarray() - stiff_ref).max() < 1e-14


# -- quadrature rules ----------------------------------------------------------


@pytest.mark.parametrize(
    "degree,rule", [(4, assembly._TRI_RULE_4), (8, TRI_RULE_8)], ids=["4", "8"]
)
def test_triangle_rule_integrates_monomials_exactly(degree, rule):
    bary, weights = rule
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    # Reference triangle (0,0)-(1,0)-(0,1): x = lambda_2, y = lambda_3.
    x, y = bary[:, 1], bary[:, 2]
    area = 0.5
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            approx = area * float(weights @ (x**p * y**q))
            exact = _symbolic.monomial_triangle_integral(p, q)
            assert approx == pytest.approx(exact, rel=1e-13, abs=1e-16)


def test_gauss_interval_exactness():
    pts, wts = gauss_interval(2, 0.25, 1.75)
    for p in range(4):  # two points integrate cubics exactly
        exact = (1.75 ** (p + 1) - 0.25 ** (p + 1)) / (p + 1)
        assert float(wts @ pts**p) == pytest.approx(exact, rel=1e-14)


# -- control-space operators ---------------------------------------------------


def zero_scalar(x, y, t):
    return np.zeros_like(x)


def zero_pair(x, y, t):
    return np.zeros_like(x), np.zeros_like(x)


def test_control_seminorm_matches_quadrature(disc):
    """q^T A q must equal the space-time H1 seminorm of the prismatic field."""
    from dbc.manufactured import bump_case, control_error
    import dataclasses

    mesh = disc.mesh
    q = interpolate_control(
        mesh, lambda x, y, t: np.sin(x + 0.3) * (y + 0.2) * (t + 0.1)
    )
    quad_form = float(q.ravel() @ (disc.seminorm @ q.ravel()))
    # control_error against a zero exact control returns |q|_{1, Omega x I};
    # the integrand is polynomial of low degree, so quadrature is exact.
    zero_case = dataclasses.replace(
        bump_case(), control_t=zero_scalar, control_grad=zero_pair
    )
    seminorm = control_error(disc, zero_case, q)
    assert seminorm**2 == pytest.approx(quad_form, rel=1e-12)


def test_control_mass_matches_constant_integral():
    mesh = build_space_time_mesh(2, 4)
    mass = control_mass(Discretization(mesh))
    # The field equal to 1 at every node of every interior level is the
    # standard time hat profile: integral of its square over the cylinder is
    # the 1-D mass quadratic form of (0, 1, 1, 1, 0) times |Omega| = 1.
    ones = np.ones(mesh.num_control_levels * mesh.num_nodes)
    tmass, _ = time_mass_stiffness(mesh.time_partition.points)
    profile = np.zeros(mesh.num_slabs + 1)
    profile[1:-1] = 1.0
    exact = float(profile @ (tmass @ profile))
    assert float(ones @ (mass @ ones)) == pytest.approx(exact, rel=1e-14)


def test_seminorm_positive_definite(disc):
    mesh = disc.mesh
    flat = np.random.default_rng(0).standard_normal(
        mesh.num_control_levels * mesh.num_nodes
    )
    assert float(flat @ (disc.seminorm @ flat)) > 0


def test_kronecker_operators_match_their_assembly():
    """Seminorm and control mass, applied from their factors, against the
    ``sp.kron`` assembly."""
    mesh = build_space_time_mesh(3, 4)
    disc = Discretization(mesh)
    M = mesh.num_slabs
    tmass, tstiff = time_mass_stiffness(mesh.time_partition.points)
    mt, st = tmass[1:M, 1:M], tstiff[1:M, 1:M]
    interior = disc.interior
    boxed = BoundSet(mesh, 0.0, 1.0, control_nodes=lambda x, y: y < 0.5).boxed_vertices
    assert 0 < len(boxed) < mesh.num_nodes - len(interior)
    levels = np.arange(mesh.num_control_levels)[:, None] * mesh.num_nodes
    rows, cols = (levels + interior).ravel(), (levels + boxed).ravel()
    rng = np.random.default_rng(8)
    for operator, oracle in (
        (disc.seminorm, sp.kron(mt, disc.stiffness) + sp.kron(st, disc.mass)),
        (control_mass(disc), sp.kron(mt, disc.mass)),
    ):
        oracle = oracle.tocsr()
        assert operator.tocsr().shape == oracle.shape
        x = rng.standard_normal(oracle.shape[1])
        exact = oracle @ x
        assert np.linalg.norm(operator @ x - exact) <= 1e-14 * np.linalg.norm(exact)
        assert np.array_equal(operator.diagonal(), oracle.diagonal())
        assert np.array_equal(
            operator.block(interior, boxed).toarray(),
            oracle[rows][:, cols].toarray(),
        )
        assert np.array_equal(operator.tocsr().toarray(), oracle.toarray())


def _bottom_edge(mesh):
    """The boxed vertices of the bump case: the open bottom edge."""
    case = bump_case()
    return BoundSet(mesh, case.q_a, case.q_b, case.control_boundary).boxed_vertices


def test_energy_extension_solves_interior_block():
    for mesh, control_nodes in (
        (build_space_time_mesh(4, 3), bump_case().control_boundary),
        (build_space_time_mesh(3, 4), whole_boundary),
    ):
        disc = Discretization(mesh)
        boxed = BoundSet(mesh, 0.0, 1.0, control_nodes).boxed_vertices
        M = mesh.num_slabs
        tmass, tstiff = time_mass_stiffness(mesh.time_partition.points)
        mt, st = tmass[1:M, 1:M], tstiff[1:M, 1:M]
        block = sp.kron(mt, disc.stiff_ii) + sp.kron(st, disc.mass_ii)
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal((mesh.num_control_levels, mesh.num_interior))
        x = EnergyExtension(disc, boxed).solve(rhs)
        residual = block @ x.ravel() - rhs.ravel()
        assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize(
    "fault",
    [lambda z: z[:, 2] * 1.01, lambda z: z[:, 2] + 1e-6 * z[:, 0]],
    ids=["scaled", "mixed"],
)
def test_a_faulty_time_mode_stops_set_up_with_its_number(monkeypatch, fault):
    """``setup_problem`` at 8x6 raises an ``AssemblyError`` that names mode
    2 when ``scipy.linalg.eigh`` returns it 1% too long, or mixed with 1e-6
    of mode 0; unperturbed, the same set-up passes the check."""
    eigh = sla.eigh

    def faulty(a, b):
        theta, modes = eigh(a, b)
        modes[:, 2] = fault(modes)
        return theta, modes

    setup_problem(8, 6, bump_case())
    monkeypatch.setattr(sla, "eigh", faulty)
    with pytest.raises(AssemblyError, match="time mode 2 of the extension"):
        setup_problem(8, 6, bump_case())


def _band_solver(matrix, order):
    """Solve with ``matrix`` through its band Cholesky factor in ``order``,
    built and applied by the GIL-free kernels alone."""
    permuted = assembly._reorder(matrix, order)
    band = dpbtrf(kernels._upper_band(permuted, kernels.band_width(permuted)))

    def solve(rhs):
        x = rhs[order]
        dtbsv(band, dtbsv(band, x, trans=True))
        out = np.empty_like(x)
        out[order] = x
        return out

    return solve


def _solved_copy(solve_in_place):
    def solve(rhs):
        x = rhs.copy()
        solve_in_place(x)
        return x

    return solve


def test_band_cholesky_matches_spsolve():
    """The 8x6 slab matrix, and the mode matrices of the smallest and the
    largest time eigenvalue, each in the order its solver uses; the slab
    matrix also through the two-band ``SlabSystem.solve_in_place``."""
    mesh = build_space_time_mesh(8, 6)
    disc = Discretization(mesh)
    extension = EnergyExtension(disc, _bottom_edge(mesh))
    tmass, tstiff = time_mass_stiffness(mesh.time_partition.points)
    theta = sla.eigh(
        tstiff[1:6, 1:6].toarray(), tmass[1:6, 1:6].toarray(), eigvals_only=True
    )
    slab = disc.slab_solver()
    slab_matrix = disc.mass_ii + (1 / 6) * disc.stiff_ii
    low, high = (disc.stiff_ii + th * disc.mass_ii for th in (theta[0], theta[-1]))
    rng = np.random.default_rng(11)
    for matrix, solve in (
        # The slab matrix is in the band order of the mesh already.
        (slab_matrix, _band_solver(slab_matrix, np.arange(slab.size))),
        (slab_matrix, _solved_copy(slab.solve_in_place)),
        (low, _band_solver(low, extension.order)),
        (high, _band_solver(high, extension.order)),
    ):
        rhs = rng.standard_normal(matrix.shape[0])
        x = solve(rhs)
        reference = spla.spsolve(matrix.tocsc(), rhs)
        assert np.linalg.norm(x - reference) <= 1e-13 * np.linalg.norm(reference)
        assert np.linalg.norm(matrix @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_band_cholesky_rejects_indefinite_matrix():
    matrix = sp.csr_matrix(
        np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 2.0]])
    )
    with pytest.raises(AssemblyError, match="not positive definite"):
        dpbtrf(kernels._upper_band(matrix, 1))


def _random_band(rng, kd, n):
    """Upper band (kd + 1, n) of a diagonally dominant SPD band matrix."""
    band = rng.uniform(-1.0, 1.0, (kd + 1, n))
    band[kd] = 2.0 * (kd + 1)
    return np.asfortranarray(band)


def test_gil_free_kernels_match_scipy_bit_for_bit():
    """``dpbtrf`` and ``dtbsv`` against scipy's f2py wrappers of the same
    routines: upper band, both transposes, and a trailing block."""
    rng = np.random.default_rng(21)
    kd, n, start = 4, 37, 29
    band = _random_band(rng, kd, n)
    expected, info = lapack.dpbtrf(band, lower=0)
    assert info == 0
    factor = dpbtrf(band.copy(order="F"))
    assert np.array_equal(factor, expected)
    x = rng.standard_normal(n)
    for trans in (False, True):
        reference = blas.dtbsv(kd, factor, x, lower=0, trans=int(trans))
        assert np.array_equal(dtbsv(factor, x.copy(), trans=trans), reference)
        block, tail = factor[:, start:], x[start:].copy()
        reference = blas.dtbsv(kd, block, tail, lower=0, trans=int(trans))
        assert np.array_equal(dtbsv(block, tail, trans=trans), reference)


def test_slab_solves_in_place_to_the_bits_of_scipys_dtbsv():
    """``SlabSystem.solve_in_place`` overwrites its argument, also a row of a
    sweep-like buffer, with the answer of scipy's f2py dtbsv on the upper
    band of U, transposed and then not, for the slab system at 8x6."""
    rng = np.random.default_rng(24)
    mesh = build_space_time_mesh(8, 6)
    system = Discretization(mesh).slab_solver()
    kd = system.kd
    rhs = rng.standard_normal((3, mesh.num_interior))
    y = blas.dtbsv(kd, system._upper, rhs[1], lower=0, trans=1)
    reference = blas.dtbsv(kd, system._upper, y, lower=0, trans=0)
    x = rhs.copy()
    assert system.solve_in_place(x[1]) is None
    assert np.array_equal(x[1], reference)
    assert np.array_equal(x[::2], rhs[::2])


@pytest.mark.parametrize(
    "bad",
    [
        lambda x: x.astype(np.float32),
        lambda x: np.repeat(x, 2)[::2],
        lambda x: x[:-1],
        lambda x: x.reshape(1, -1),
    ],
    ids=["float32", "strided", "short", "two-d"],
)
def test_band_kernels_reject_a_vector_they_cannot_read(bad):
    """A float32, strided, short or 2-D vector is refused before a pointer
    is taken, so it is left untouched, by the kernel and by a slab solve."""
    rng = np.random.default_rng(22)
    factor = dpbtrf(_random_band(rng, 3, 12))
    slab = Discretization(build_space_time_mesh(4, 4)).slab_solver()
    for solve, n in ((lambda x: dtbsv(factor, x), 12), (slab.solve_in_place, 9)):
        x = bad(rng.standard_normal(n))
        before = x.copy()
        with pytest.raises(ValueError, match="band kernel needs"):
            solve(x)
        assert np.array_equal(x, before)


def test_band_kernels_reject_a_band_in_c_order():
    band = np.ascontiguousarray(_random_band(np.random.default_rng(23), 3, 12))
    before = band.copy()
    with pytest.raises(ValueError, match="band kernel needs"):
        dpbtrf(band)
    assert np.array_equal(band, before)


def test_tail_solves_match_full_solves():
    mesh = build_space_time_mesh(6, 4)
    disc = Discretization(mesh)
    extension = EnergyExtension(disc, _bottom_edge(mesh))
    tail = extension.tail
    levels = mesh.num_control_levels
    rng = np.random.default_rng(12)

    tail_rhs = rng.standard_normal((levels, len(tail)))
    padded = np.zeros((levels, mesh.num_interior))
    padded[:, tail] = tail_rhs
    expected = extension.solve(padded)
    got = extension.solve_from_tail(tail_rhs)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    rhs = rng.standard_normal((levels, mesh.num_interior))
    expected = extension.solve(rhs)[:, tail]
    got = extension.solve_to_tail(rhs)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    # With nothing boxed the tail is empty, and so is every tail solve.
    untouched = EnergyExtension(disc, np.array([], dtype=int))
    assert untouched.tail.size == 0
    assert not untouched.solve_from_tail(np.zeros((levels, 0))).any()
    assert untouched.solve_to_tail(rhs).shape == (levels, 0)


def test_mode_split_gives_the_bits_of_one_worker(monkeypatch):
    """Three time modes on three workers, one mode each, so more threads
    than a two-core host has cores, and the interpreter switching between
    threads as often as it can: the factors and all three solves give the
    bits of the one-worker loop.  The split runs in a thread of its own,
    so that a deadlock fails the test instead of hanging it."""
    mesh = build_space_time_mesh(8, 4)
    disc = Discretization(mesh)
    boxed = _bottom_edge(mesh)
    levels = mesh.num_control_levels
    assert levels == 3
    monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)
    cpus = kernels._usable_cpus()
    if not cpus:
        pytest.skip("the platform does not report the CPUs a process may use")
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus[:1])
    serial = EnergyExtension(disc, boxed)
    assert serial._ranges == [(0, levels)]
    rng = np.random.default_rng(24)
    rhs = rng.standard_normal((levels, mesh.num_interior))
    tail_rhs = rng.standard_normal((levels, len(serial.tail)))

    def solves(extension):
        return (
            extension.solve(rhs),
            extension.solve_from_tail(tail_rhs),
            extension.solve_to_tail(rhs),
        )

    expected = solves(serial)
    monkeypatch.setattr(
        kernels, "_usable_cpus", lambda: (cpus * levels)[:levels]
    )
    outcome = {}

    def run():
        try:
            split = EnergyExtension(disc, boxed)
            outcome["ranges"] = split._ranges
            outcome["factors"] = split._factors().copy()
            outcome["solves"] = [solves(split) for _ in range(20)]
        except BaseException as err:  # re-raised in the test's thread
            outcome["error"] = err

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "the split extension did not finish in 120 s"
    if "error" in outcome:
        raise outcome["error"]
    assert outcome["ranges"] == [(0, 1), (1, 2), (2, 3)]
    assert np.array_equal(outcome["factors"], serial._factors())
    for repeat in outcome["solves"]:
        for got, want in zip(repeat, expected):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("level", ["8x6", "32x23", "random-8x4"])
def test_block_quadratures_match_the_per_time_oracles(level):
    """The three error norms and the misfit, integrated over blocks of
    Gauss times by slices of triangles, agree within 1e-14 relative with
    the oracles that integrate one Gauss time at a time over the whole
    mesh: on the solved fields at 8x6 and 32x23, and on random fields at
    8x4."""
    case = bump_case()
    if level == "random-8x4":
        mesh = build_space_time_mesh(8, 4)
        disc = Discretization(mesh)
        rng = np.random.default_rng(18)
        slabs = (mesh.num_slabs, mesh.num_interior)
        state = StateField(mesh, rng.standard_normal(slabs))
        adjoint = AdjointField(mesh, rng.standard_normal(slabs))
        control = ControlField(
            mesh, rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
        )
    else:
        n, M = map(int, level.split("x"))
        problem = setup_problem(n, M, case)
        disc = problem.disc
        result = pdas_solve(problem, tol=1e-9)
        state, adjoint, control = result.state, result.adjoint, result.control
    pairs = [
        (energy_error_state(disc, case, state, control),
         _oracles.per_time_state_error(disc, case, state, control)),
        (energy_error_adjoint(disc, case, adjoint),
         _oracles.per_time_adjoint_error(disc, case, adjoint)),
        (control_error(disc, case, control),
         _oracles.per_time_control_error(disc, case, control)),
        (disc.misfit_quadrature(state.values, control.values, case.target),
         _oracles.per_time_misfit(disc, state.values, control.values, case.target)),
    ]
    for got, want in pairs:
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def _assert_slice_points(x, y, nq):
    """x and y are the C-contiguous, read-only float64 points of a slice,
    (nq, triangles)."""
    for a in (x, y):
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert not a.flags.writeable
        assert a.shape == (nq, y.shape[1])


@pytest.mark.parametrize("rule", ["degree 4", "degree 8"])
def test_no_block_holds_more_than_the_block_values(rule, monkeypatch):
    """At 64x46 ``integrate`` calls its integrand on every Gauss time and
    triangle exactly once, with t of shape (c, 1, 1), in blocks of at most
    ``_BLOCK_VALUES`` point values, with the 6-point rule and the 25-point
    one.  It calls it from the calling thread alone, also with two CPUs.
    Each slice's points are C-contiguous float64, and so are the x and y
    with which ``time_loads`` and the three norms call the data and the
    exact solution, on the 6-point rule at 16x12."""
    mesh = build_space_time_mesh(64, 46)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: [0, 1])
    q = Quadrature(mesh, assembly._TRI_RULE_4 if rule == "degree 4" else TRI_RULE_8, 2)
    nq, nt = len(q.bary), len(q.triangles)
    seen = np.zeros(q.times.shape + (nt,), dtype=int)
    cells_of = {id(part.x): r for part, r in zip(q.slices, _oracles.triangle_ranges(q))}
    sizes = []

    def count(m, j, t, part):
        assert threading.get_ident() == threading.main_thread().ident
        assert t.shape == (len(m), 1, 1)
        assert np.array_equal(t.ravel(), q.times[m, j])
        x, y = part.x, part.y
        _assert_slice_points(x, y, nq)
        seen[m, j, cells_of[id(x)]] += 1
        values = np.ones((len(m),) + x.shape)
        sizes.append(values.size)
        return values

    assert q.integrate(count) == pytest.approx(1.0, rel=1e-12)  # |Omega| * T
    assert (seen == 1).all()
    assert max(sizes) <= assembly._BLOCK_VALUES

    calls = []

    def contiguous(g):
        def checked(x, y, t):
            _assert_slice_points(x, y, len(assembly._TRI_RULE_4[1]))
            calls.append(g)
            return g(x, y, t)

        return checked

    case = bump_case()
    checked = dataclasses.replace(
        case,
        **{
            name: contiguous(getattr(case, name))
            for name in ("source", "target", "state_grad", "adjoint_grad",
                         "control_t", "control_grad")
        },
    )
    problem = setup_problem(16, 12, checked)
    result = pdas_solve(problem, tol=1e-9)
    disc = problem.disc
    energy_error_state(disc, checked, result.state, result.control)
    energy_error_adjoint(disc, checked, result.adjoint)
    control_error(disc, checked, result.control)
    assert {g.__name__ for g in calls} == {
        "_f", "_u_target", "_u_grad", "_phi_grad", "_u_t"
    }


@pytest.mark.parametrize("level", ["8x6", "8x4"])
def test_misfit_quadrature_equals_the_misfit_from_loads(level):
    """Random state and control: the misfit by quadrature and the misfit
    from the loads of u_d agree within 1e-14 relative."""
    mesh = build_space_time_mesh(*map(int, level.split("x")))
    disc = Discretization(mesh)
    rng = np.random.default_rng(19)
    state = rng.standard_normal((mesh.num_slabs, mesh.num_interior))
    control = rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    target = bump_case().target
    assert disc.misfit_quadrature(state, control, target) == pytest.approx(
        disc.misfit_from_loads(state, control, *disc.time_loads(target)),
        rel=1e-14, abs=0,
    )


def test_a_start_returns_before_its_ranges_end_and_its_wait_raises_the_first():
    """``start_ranges`` returns while its first range is still blocked on
    the pool; its wait returns once both ranges have ended and raises the
    failure of the first range, though the second failed earlier."""
    if not kernels._usable_cpus():
        pytest.skip("the platform does not report the CPUs a process may use")
    release = threading.Event()
    ended = []

    def task(lo, hi):
        if lo == 0:
            release.wait(timeout=60)
        ended.append(lo)
        raise ValueError(f"range {lo} failed")

    wait = kernels.start_ranges(task, [(0, 1), (1, 2)])
    returned_first = 0 not in ended
    release.set()
    with pytest.raises(ValueError, match="range 0 failed"):
        wait()
    assert returned_first
    assert sorted(ended) == [0, 1]


def test_importing_dbc_runs_every_openblas_on_one_thread():
    """Once ``dbc`` is imported, every OpenBLAS that the process loaded runs
    on one thread, so BLAS threads do not compete with the pool."""
    setters = kernels._openblas_thread_setters()
    if not setters:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")
    # The setter returns the count it replaces; setting 1 again changes nothing.
    assert [setter(1) for setter in setters] == [1] * len(setters)


def test_a_product_after_importing_dbc_ignores_the_blas_thread_variable():
    """The extension's mode transform at 64x46, a 45x45 by 45x3969 product,
    gives the same bits under OPENBLAS_NUM_THREADS=1 and =2 once ``dbc`` is
    imported.  Fresh processes, since OpenBLAS reads the variable when it
    is loaded."""
    code = """if True:
        import sys
        import numpy as np
        import dbc
        rng = np.random.default_rng(45)
        modes = rng.standard_normal((45, 45))
        values = rng.standard_normal((45, 3969))
        sys.stdout.buffer.write((modes @ values).tobytes())
    """
    products = []
    for threads in ("1", "2"):
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(sys.path),
            OPENBLAS_NUM_THREADS=threads,
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            timeout=120, check=True,
        )
        products.append(np.frombuffer(out.stdout).reshape(45, 3969))
    assert np.array_equal(*products)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_after_its_parent(monkeypatch):
    """An extension solve split in the parent makes the shared pool.  A
    child forked after it has none of the pool's threads, so it makes a
    pool of its own, and its split solve finishes with the parent's bits.
    The parent waits at most 120 s for the child."""
    mesh = build_space_time_mesh(8, 4)
    cpus = kernels._usable_cpus()
    if not cpus:
        pytest.skip("the platform does not report the CPUs a process may use")
    monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: (cpus * 2)[:2])
    extension = EnergyExtension(Discretization(mesh), _bottom_edge(mesh))
    assert len(extension._ranges) == 2
    rhs = np.random.default_rng(8).standard_normal(
        (mesh.num_control_levels, mesh.num_interior)
    )
    expected = extension.solve(rhs)
    assert kernels._pool is not None
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if its split gave the bits
        code = 1
        try:
            code = 0 if np.array_equal(extension.solve(rhs), expected) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 120
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split did not finish in 120 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_importing_dbc_starts_no_thread_and_small_levels_split_nothing():
    """Importing the package starts no thread, and set-up, solve and error
    norms at 8x6, below ``_SPLIT_WORK`` band entries, start none either:
    the time modes run in the calling thread.  A fresh process, since the
    shared pool of this one may already exist."""
    code = """if True:
        import threading
        import dbc
        from dbc.manufactured import (
            bump_case, control_error, energy_error_adjoint,
            energy_error_state, setup_problem,
        )
        print(threading.active_count())
        case = bump_case()
        problem = setup_problem(8, 6, case)
        result = dbc.pdas_solve(problem, tol=1e-9)
        energy_error_state(problem.disc, case, result.state, result.control)
        energy_error_adjoint(problem.disc, case, result.adjoint)
        control_error(problem.disc, case, result.control)
        print(threading.active_count())
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.split() == ["1", "1"]
    problem = setup_problem(8, 6, bump_case())
    extension = problem.extension
    levels, n = extension.modes.shape[0], extension.order.size
    assert levels * n * (extension.kd + 1) < kernels._SPLIT_WORK
    assert extension._ranges == [(0, levels)]


def test_a_solve_after_set_up_reuses_the_heap_without_page_faults():
    """Importing ``dbc`` fixes glibc's mmap and trim thresholds, so that a
    32x23 ``pdas_solve`` after set-up reuses the blocks that the Hessian
    actions free: fewer than 1,000 minor faults in a fresh process, where
    glibc's own thresholds gave 5,920.  glibc only."""
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pytest.skip("the C library has no mallopt")
    code = """if True:
        import json
        import resource
        import dbc
        from dbc import kernels
        from dbc.manufactured import bump_case, setup_problem
        problem = setup_problem(32, 23, bump_case())
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        dbc.pdas_solve(problem, tol=1e-9)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(json.dumps([kernels._heap_thresholds_set, faults]))
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    thresholds_set, faults = json.loads(out.stdout)
    assert thresholds_set == [1, 1]
    assert faults < 1000


@pytest.mark.parametrize("n", [8, 16])
def test_tail_order_puts_the_bottom_row_last(n):
    """With the bottom edge boxed the tail is the first interior row, and
    the level sets of the distance from it are the rows, so the band of
    every mode factor is one row of n - 1 vertices wide."""
    mesh = build_space_time_mesh(n, 2)
    disc = Discretization(mesh)
    extension = EnergyExtension(disc, _bottom_edge(mesh))
    tail = extension.tail
    ys = mesh.triangulation.vertices[disc.interior, 1]
    assert np.array_equal(tail, np.flatnonzero(np.isclose(ys, 1.0 / n)))
    assert np.array_equal(extension.order[-len(tail):], tail)
    # Rows come farthest first: y never increases along the order, and
    # within a row the vertex ids increase.
    assert np.all(np.diff(ys[extension.order]) <= 1e-12)
    same_row = np.isclose(np.diff(ys[extension.order]), 0.0)
    assert same_row.sum() == len(ys) - (n - 1)
    assert np.all(np.diff(disc.interior[extension.order])[same_row] > 0)
    assert extension.kd == n - 1


@pytest.mark.parametrize("n", [7, 12])
@pytest.mark.parametrize("boxed_set", ["bottom", "whole"])
def test_the_band_layout_width_is_that_of_the_reordered_matrices(n, boxed_set):
    """The band layout's ``kd``, read from the order without reordering
    S_ii and M_ii, is the band width of the two reordered matrices."""
    mesh = build_space_time_mesh(n, 3)
    disc = Discretization(mesh)
    if boxed_set == "bottom":
        boxed = _bottom_edge(mesh)
    else:
        boxed = BoundSet(mesh, 0.0, 1.0, whole_boundary).boxed_vertices
    extension = EnergyExtension(disc, boxed)
    assert extension._fold is None
    assert extension.kd == max(
        kernels.band_width(assembly._reorder(a, extension.order))
        for a in (disc.stiff_ii, disc.mass_ii)
    )


# -- the folded layout of the extension ------------------------------------------


@pytest.mark.parametrize("n", [5, 6, 7, 12, 24, 64])
@pytest.mark.parametrize("boxed_set", ["bottom", "whole"])
def test_folded_solves_match_the_band_layout(monkeypatch, n, boxed_set):
    """``solve``, ``solve_from_tail`` and ``solve_to_tail`` in the folded
    layout, forced by the fold gate, give the band layout's answers to
    1e-13 relative, for odd and even n, with the bottom edge or the whole
    boundary boxed, on the same tail; the folded band is at most
    ceil((n - 1) / 2) wide on both."""
    mesh = build_space_time_mesh(n, 4)
    disc = Discretization(mesh)
    if boxed_set == "bottom":
        boxed = _bottom_edge(mesh)
    else:
        boxed = BoundSet(mesh, 0.0, 1.0, whole_boundary).boxed_vertices
    monkeypatch.setattr(assembly, "_FOLD_WORK", np.inf)
    band = EnergyExtension(disc, boxed)
    monkeypatch.setattr(assembly, "_FOLD_WORK", 0)
    folded = EnergyExtension(disc, boxed)
    assert band._fold is None and folded._fold is not None
    assert np.array_equal(folded.tail, band.tail)
    assert folded.kd <= -(-(n - 1) // 2) < band.kd
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal((mesh.num_control_levels, mesh.num_interior))
    tail_rhs = rng.standard_normal((mesh.num_control_levels, len(band.tail)))
    for solve in (
        lambda e: e.solve(rhs),
        lambda e: e.solve_from_tail(tail_rhs),
        lambda e: e.solve_to_tail(rhs),
    ):
        expected = solve(band)
        error = np.linalg.norm(solve(folded) - expected)
        assert error <= 1e-13 * np.linalg.norm(expected)
    assert 0.0 < folded.max_residual <= 1e-13


@pytest.mark.parametrize("n", [8, 16, 64])
def test_the_fold_leaves_nothing_off_its_blocks_at_a_power_of_two(n):
    """At n = 2^k S_ii and M_ii commute with both reflections exactly, so
    U^T A U has no entry off its four blocks, and the folded blocks are
    exactly symmetric and equal to U^T A U on the blocks."""
    disc = Discretization(build_space_time_mesh(n, 2))
    fold = assembly._SquareFold.of(disc)
    assert fold.defect == 0.0
    basis = fold.basis
    assert np.array_equal(
        (basis.T @ basis).toarray(), np.diag((basis.T @ basis).diagonal())
    )
    for matrix, folded in ((disc.stiff_ii, fold.stiff), (disc.mass_ii, fold.mass)):
        assert (folded != folded.T).nnz == 0
        assert (basis.T @ matrix @ basis != folded).nnz == 0


def test_a_jittered_mesh_keeps_the_band_layout(monkeypatch):
    """Interior vertices moved by up to a tenth of a cell, as in the mesh
    tests, break the reflections, so even with the fold gate at 0 the
    extension keeps the band layout."""
    square = unit_square_mesh(8)
    jitter = np.random.default_rng(8).uniform(-0.0125, 0.0125, square.vertices.shape)
    jitter[square.boundary_vertex_flags] = 0.0
    tri = Triangulation(square.vertices + jitter, square.triangles)
    tri.cell_width = square.cell_width
    mesh = SpaceTimeMesh(tri, uniform_time_partition(6))
    disc = Discretization(mesh)
    monkeypatch.setattr(assembly, "_FOLD_WORK", 0)
    assert assembly._SquareFold.of(disc) is None
    extension = EnergyExtension(disc, _bottom_edge(mesh))
    assert extension._fold is None
    assert extension.kd == 7


def test_the_fold_gate_folds_the_bottom_edge_at_64x46_and_not_below():
    """With the bottom edge boxed, the band work of 16x12, 32x23, 40x28 and
    48x34 is below the fold gate, so those levels keep the band layout, and
    that of 64x46 above it, so it folds."""
    levels = ((16, 12, False), (32, 23, False), (40, 28, False), (48, 34, False),
              (64, 46, True))
    for n, M, folded in levels:
        mesh = build_space_time_mesh(n, M)
        extension = EnergyExtension(Discretization(mesh), _bottom_edge(mesh))
        assert (extension._fold is not None) == folded
        work = (M - 1) * mesh.num_interior * n
        assert (work >= assembly._FOLD_WORK) == folded


def test_the_64x46_mode_factors_take_at_most_46_mib():
    """At 64x46 the extension folds, and its 45 mode factors hold a band of
    33 doubles per unknown, 45.0 MiB; the band layout's 64 took 87.2 MiB."""
    mesh = build_space_time_mesh(64, 46)
    extension = EnergyExtension(Discretization(mesh), _bottom_edge(mesh))
    assert extension.kd == 32
    assert extension._factors().nbytes <= 46 * 2**20


def test_a_failed_folded_mode_factor_stops_set_up(monkeypatch):
    """In the folded layout, forced by the fold gate, with two CPUs and the
    split gate at 0, set-up factors the modes on the pool in two ranges, as
    in the band layout, and a failed mode factor there stops set-up as a
    failed band factor does."""
    monkeypatch.setattr(kernels, "_SPLIT_WORK", 0)
    monkeypatch.setattr(assembly, "_FOLD_WORK", 0)
    problem = _fail_the_first_pool_factor(monkeypatch, 16, 12)
    assert problem.extension._fold is not None


# -- coupling, pairings, loads --------------------------------------------------


def _quadrature_coupling_form(disc, control, v_values):
    """(d_t q, v)_I + (grad q, grad v)_I by per-slab quadrature, independent
    of the assembled coupling path."""
    mesh = disc.mesh
    tri = mesh.triangulation
    tt = tri.triangles
    pts = mesh.time_partition.points
    pad = pad_levels(control.values)
    full = np.zeros((mesh.num_slabs, mesh.num_nodes))
    full[:, disc.interior] = v_values
    bary, ws = assembly._TRI_RULE_4
    grads, areas = assembly.triangle_geometry(tri)
    total = 0.0
    for m in range(mesh.num_slabs):
        k = pts[m + 1] - pts[m]
        dt_nodal = (pad[m + 1] - pad[m]) / k
        v_nodal = full[m]
        tq, wq = gauss_interval(2, pts[m], pts[m + 1])
        for t, wt in zip(tq, wq):
            lo = (pts[m + 1] - t) / k
            hi = (t - pts[m]) / k
            q_nodal = lo * pad[m] + hi * pad[m + 1]
            qx = np.einsum("ti,ti->t", q_nodal[tt], grads[:, :, 0])
            qy = np.einsum("ti,ti->t", q_nodal[tt], grads[:, :, 1])
            vx = np.einsum("ti,ti->t", v_nodal[tt], grads[:, :, 0])
            vy = np.einsum("ti,ti->t", v_nodal[tt], grads[:, :, 1])
            total += wt * float(areas @ (qx * vx + qy * vy))
            for lam, w in zip(bary, ws):
                dq = sum(lam[i] * dt_nodal[tt[:, i]] for i in range(3))
                vv = sum(lam[i] * v_nodal[tt[:, i]] for i in range(3))
                total += wt * w * float(areas @ (dq * vv))
    return total


def test_coupling_matches_quadrature(disc):
    rng = np.random.default_rng(4)
    mesh = disc.mesh
    q = ControlField(
        mesh, rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    )
    v = rng.standard_normal((mesh.num_slabs, mesh.num_interior))
    assembled = float(np.sum(disc.coupling_all(q.values) * v))
    oracle = _quadrature_coupling_form(disc, q, v)
    assert assembled == pytest.approx(oracle, rel=1e-12)


def test_coupling_transpose_is_exact_adjoint(disc):
    rng = np.random.default_rng(5)
    mesh = disc.mesh
    q = rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    v = rng.standard_normal((mesh.num_slabs, mesh.num_interior))
    lhs = float(np.sum(disc.coupling_all(q) * v))
    rhs = float(np.sum(disc.coupling_transpose(v) * q))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_pair_state_control_is_l2_pairing(disc):
    """The pairing of a dG(0) field with control hats equals the space-time
    L2 product, computable through the control mass of the interpolant."""
    rng = np.random.default_rng(6)
    mesh = disc.mesh
    v = rng.standard_normal((mesh.num_slabs, mesh.num_interior))
    q = rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    paired = float(np.sum(pair_state_control(disc, v) * q))
    # Oracle: (v, q)_I with v constant per slab and q linear in time reduces
    # per slab to k_m/2 * (v_m, q_{m-1} + q_m)_{L2(Omega)}.
    pad = np.zeros((mesh.num_slabs + 1, mesh.num_nodes))
    pad[1:-1] = q
    full = np.zeros((mesh.num_slabs, mesh.num_nodes))
    full[:, disc.interior] = v
    k = mesh.time_partition.k
    oracle = sum(
        0.5 * k * float(full[m] @ (disc.mass @ (pad[m] + pad[m + 1])))
        for m in range(mesh.num_slabs)
    )
    assert paired == pytest.approx(oracle, rel=1e-13)


def test_spatial_load_vector_constant():
    disc = Discretization(build_space_time_mesh(4, 1))
    tri = disc.mesh.triangulation
    load = spatial_load_vector(disc.quad, lambda x, y, t: np.ones_like(x), 0.0)
    # Loads of 1 are the hat-function integrals; they sum to the area.
    assert load.sum() == pytest.approx(1.0, rel=1e-14)
    interior = tri.interior_indices
    assert np.allclose(load[interior], 1.0 / 16.0)


@pytest.mark.parametrize(
    "block_times, slice_triangles",
    [(None, None), (16, None), (3, None), (1, 3)],
    ids=["defaults", "all", "three", "one"],
)
def test_time_loads_match_one_load_vector_per_time(
    monkeypatch, block_times, slice_triangles
):
    """The block loads equal, bit for bit, one ``spatial_load_vector`` per
    Gauss time times its weight, and the square is exactly the misfit of
    the zero state and control and ``integrate`` of g * g: with the default
    blocks, one block of all 10 Gauss times, blocks of 3, which do not
    divide the 10, and blocks of one Gauss time by slices of 3 of the 32
    triangles."""
    if block_times is not None:
        monkeypatch.setattr(assembly, "_BLOCK_TIMES", block_times)
    if slice_triangles is not None:
        nq = len(assembly._TRI_RULE_4[1])
        monkeypatch.setattr(
            assembly, "_BLOCK_VALUES", assembly._BLOCK_TIMES * nq * slice_triangles
        )
    disc = Discretization(build_space_time_mesh(4, 5))
    q = disc.quad
    assert q.times.size == 10
    assert len(q.slices) == (1 if slice_triangles is None else 11)
    mesh = disc.mesh
    zero_state = np.zeros((mesh.num_slabs, mesh.num_interior))
    zero_control = np.zeros((mesh.num_control_levels, mesh.num_nodes))
    for g in (bump_case().target, lambda x, y, t: np.ones_like(x)):
        expected = [
            [w * spatial_load_vector(q, g, t) for t, w in zip(times, weights)]
            for times, weights in zip(q.times, q.time_weights)
        ]
        loads, square = disc.time_loads(g)
        assert np.array_equal(loads, np.array(expected))
        assert square == disc.misfit_quadrature(zero_state, zero_control, g)

        def squared(m, j, t, part):
            x, y = part.x, part.y
            values = np.broadcast_to(g(x, y, t), (len(m),) + x.shape)
            return values * values

        assert square == q.integrate(squared)


def test_loads_call_the_data_only_from_the_calling_thread(monkeypatch):
    """Set-up at 32x23 with two CPUs, where the extension splits its time
    modes over the pool, calls ``source`` and ``target`` from the main
    thread alone."""
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: [0, 1])
    case = bump_case()
    threads = set()

    def recorded(g):
        def data(x, y, t):
            threads.add(threading.get_ident())
            return g(x, y, t)

        return data

    checked = dataclasses.replace(
        case, source=recorded(case.source), target=recorded(case.target)
    )
    problem = setup_problem(32, 23, checked)
    assert len(problem.extension._ranges) == 2
    assert threads == {threading.main_thread().ident}


def test_set_up_factors_the_extension_while_it_evaluates_the_source(monkeypatch):
    """Set-up at 32x23 with two CPUs evaluates the source while the pool
    factors the extension's modes: the first call of the source waits until
    a mode factor has started, and the mode factors wait until the source
    has been called, each for at most 5 s.  The trace data and both anchors
    are the bits of a one-CPU set-up."""
    case = bump_case()
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: [0])
    serial = setup_problem(32, 23, case)
    started, sourced = threading.Event(), threading.Event()
    factor_saw_source, source_saw_factor = [], []

    def factor(band):
        if getattr(kernels._pool_thread, "active", False):
            started.set()
            factor_saw_source.append(sourced.wait(timeout=5))
        return dpbtrf(band)

    def source(x, y, t):
        if not sourced.is_set():
            source_saw_factor.append(started.wait(timeout=5))
            sourced.set()
        return case.source(x, y, t)

    monkeypatch.setattr(kernels, "dpbtrf", factor)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: [0, 1])
    split = setup_problem(32, 23, dataclasses.replace(case, source=source))
    assert len(split.extension._ranges) == 2
    assert source_saw_factor == [True]
    assert factor_saw_source and all(factor_saw_source)
    for name in ("trace_b", "state_anchor", "adjoint_anchor"):
        assert np.array_equal(getattr(split, name), getattr(serial, name))


def test_a_failed_mode_factor_stops_set_up_once_every_range_is_done(monkeypatch):
    """The first mode factor on the pool fails while the other range goes on
    slowly: ``setup_problem`` raises the failure, and only when no mode
    factor is running any more and the other range is factored."""
    problem = _fail_the_first_pool_factor(monkeypatch, 32, 23)
    assert problem.extension._fold is None


def _fail_the_first_pool_factor(monkeypatch, n, M):
    """Set up the bump case at n x M with two CPUs, where the extension
    factors its modes on the pool in two ranges, then again with the first
    mode factor on the pool failing while the other range goes on slowly:
    check that set-up raises the failure once no mode factor runs any more
    and the other range is factored.  Return the first problem."""
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: [0, 1])
    problem = setup_problem(n, M, bump_case())
    ranges = problem.extension._ranges
    assert len(ranges) == 2
    sizes = {hi - lo for lo, hi in ranges}
    lock = threading.Lock()
    calls = {"started": 0, "running": 0, "factored": 0}

    def factor(band):
        if not getattr(kernels._pool_thread, "active", False):
            return dpbtrf(band)
        with lock:
            calls["started"] += 1
            calls["running"] += 1
            first = calls["started"] == 1
        try:
            if first:
                raise AssemblyError("the first mode factor failed")
            time.sleep(0.02)
            dpbtrf(band)
            with lock:
                calls["factored"] += 1
        finally:
            with lock:
                calls["running"] -= 1

    monkeypatch.setattr(kernels, "dpbtrf", factor)
    with pytest.raises(AssemblyError, match="the first mode factor failed"):
        setup_problem(n, M, bump_case())
    assert calls["running"] == 0
    assert calls["factored"] in sizes
    return problem


def test_a_data_error_while_the_pool_factors_leaves_the_pool_working(monkeypatch):
    """A NaN source at 32x23 with two CPUs is a data error while the mode
    factors run on the pool, and set-up in the same process then succeeds
    with the bits of a one-CPU set-up.  Both set-ups run in a thread of
    their own, so that a wedged pool fails the test instead of hanging it."""
    case = bump_case()
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: [0])
    serial = setup_problem(32, 23, case)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: [0, 1])
    nan_source = dataclasses.replace(case, source=lambda x, y, t: x * y * t * np.nan)
    outcome = {}

    def run():
        try:
            with pytest.raises(AssemblyError, match="the source is not finite"):
                setup_problem(32, 23, nan_source)
            outcome["problem"] = setup_problem(32, 23, case)
        except BaseException as err:  # re-raised in the test's thread
            outcome["error"] = err

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "set-up did not finish in 120 s"
    if "error" in outcome:
        raise outcome["error"]
    problem = outcome["problem"]
    assert len(problem.extension._ranges) == 2
    assert np.array_equal(problem.trace_b, serial.trace_b)


def test_source_slabs_constant(disc):
    k = disc.mesh.time_partition.k
    h = disc.mesh.triangulation.cell_width
    loads, square = disc.time_loads(lambda x, y, t: np.ones_like(x))
    slabs = disc.source_slabs(loads)
    assert slabs.shape == (3, disc.mesh.num_interior)
    assert np.allclose(slabs, k * h**2)
    assert square == pytest.approx(1.0, rel=1e-14)  # |Omega| * T
    loads, square = disc.time_loads(zero_data)
    assert not disc.source_slabs(loads).any()
    assert square == 0.0


def test_control_pairing_matches_mass_for_discrete_function(disc):
    """Pairing a function that already lies in the control space must agree
    with the control mass applied to its interpolant."""
    mesh = disc.mesh
    pts = mesh.time_partition.points
    profile = np.zeros(len(pts))
    profile[1:-1] = [0.7, -0.4]  # hat coefficients; zero at t = 0 and t = T

    def g_disc(x, y, t):
        # P1 in space times the piecewise-linear time profile: exactly
        # representable in the control space.
        return (0.5 + 0.25 * x) * np.interp(t, pts, profile)

    paired = disc.control_pairing(disc.time_loads(g_disc)[0]).ravel()
    oracle = control_mass(disc) @ interpolate_control(mesh, g_disc).ravel()
    assert np.allclose(paired, oracle, rtol=1e-12, atol=1e-15)
    zero = disc.control_pairing(disc.time_loads(zero_data)[0])
    assert zero.shape == (2, mesh.num_nodes)
    assert not zero.any()


def test_project_initial(disc):
    assert not disc.project_initial(None).any()

    def u0(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    proj = disc.project_initial(u0)
    # Galerkin property: the projection error is mass-orthogonal to the
    # interior space, so the projected coefficients reproduce the load.
    rhs = spatial_load_vector(disc.quad, lambda x, y, t: u0(x, y), 0.0)[
        disc.interior
    ]
    assert np.allclose(disc.mass_ii @ proj, rhs, rtol=1e-12, atol=1e-15)


def test_misfit_quadrature_analytic_cases(disc):
    mesh = disc.mesh
    zero_state = np.zeros((mesh.num_slabs, mesh.num_interior))
    zero_control = np.zeros((mesh.num_control_levels, mesh.num_nodes))
    one = disc.misfit_quadrature(
        zero_state, zero_control, lambda x, y, t: np.ones_like(x)
    )
    assert one == pytest.approx(1.0, rel=1e-14)  # |Omega| * T
    poly = disc.misfit_quadrature(zero_state, zero_control, lambda x, y, t: x + y)
    assert poly == pytest.approx(7.0 / 6.0, rel=1e-13)
    assert disc.misfit_quadrature(zero_state, zero_control, zero_data) == 0.0


# -- bilinear form and coercivity -----------------------------------------------


def test_bilinear_form_gap_closed_form(disc):
    """B(v,v) - sum_m k_m |grad v_m|^2 telescopes to half the squared mass
    norms of the first value, the jumps, and the final value."""
    rng = np.random.default_rng(8)
    M = disc.mesh.num_slabs
    v = rng.standard_normal((M, disc.mesh.num_interior))
    gap = coercivity_gap(disc, v)
    expected = 0.5 * float(v[0] @ (disc.mass_ii @ v[0]))
    expected += 0.5 * float(v[-1] @ (disc.mass_ii @ v[-1]))
    for m in range(1, M):
        jump = v[m] - v[m - 1]
        expected += 0.5 * float(jump @ (disc.mass_ii @ jump))
    assert gap == pytest.approx(expected, rel=1e-12)
    assert gap >= 0.0


def test_bilinear_form_is_bilinear(disc):
    rng = np.random.default_rng(9)
    shape = (disc.mesh.num_slabs, disc.mesh.num_interior)
    v, w1, w2 = (rng.standard_normal(shape) for _ in range(3))
    lhs = bilinear_form(disc, v, 2.0 * w1 - 3.0 * w2)
    rhs = 2.0 * bilinear_form(disc, v, w1) - 3.0 * bilinear_form(disc, v, w2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- slab solver cache and matrix export --------------------------------------


def test_slab_solver_cache_and_accuracy(disc):
    assert disc.slab_solver() is disc.slab_solver()
    rng = np.random.default_rng(10)
    rhs = rng.standard_normal(disc.mesh.num_interior)
    x = _solved_copy(disc.slab_solver().solve_in_place)(rhs)
    matrix = disc.mass_ii + (1 / 3) * disc.stiff_ii
    dense = np.linalg.solve(matrix.toarray(), rhs)
    assert np.allclose(x, dense, rtol=1e-12, atol=1e-14)


def test_uniform_partition_shares_one_slab_system():
    """Every slab's system is M + k S with the partition's one step k, and k
    is 1/M to the last bit, at the time levels of the study levels."""
    for M in (4, 6, 23, 34, 46):
        disc = Discretization(build_space_time_mesh(4, M))
        k = disc.mesh.time_partition.k
        assert k == 1.0 / M
        matrix = disc.mass_ii + k * disc.stiff_ii
        system = disc.slab_solver().matrix.toarray()
        assert np.array_equal(system, matrix.toarray())


def test_a_solve_factors_nothing_and_the_initial_projection_factors_once(monkeypatch):
    """Set-up and ``pdas_solve`` at 8x6 make 5 + 1 band Cholesky factors,
    the extension's 5 time modes and the one slab system, so the solve
    factors nothing.  ``project_initial`` with a u0 factors the mass matrix
    once more, and ``slab_solver()`` stays the same object."""
    calls = []

    def counted(band):
        calls.append(band.shape)
        return dpbtrf(band)

    monkeypatch.setattr(kernels, "dpbtrf", counted)
    problem = setup_problem(8, 6, bump_case())
    assert len(calls) == 5 + 1
    pdas_solve(problem, tol=1e-9)
    assert len(calls) == 5 + 1
    disc = problem.disc
    system = disc.slab_solver()
    disc.project_initial(lambda x, y: x * (1 - x) * y * (1 - y))
    assert len(calls) == 5 + 1 + 1
    assert disc.slab_solver() is system


def test_export_matrix_market(disc, tmp_path):
    import scipy.io as sio

    export_matrix_market(disc, tmp_path)
    M = disc.mesh.num_slabs
    tmass, tstiff = time_mass_stiffness(disc.mesh.time_partition.points)
    mt, st = tmass[1:M, 1:M], tstiff[1:M, 1:M]
    seminorm = sp.kron(mt, disc.stiffness) + sp.kron(st, disc.mass)
    for name, matrix in (
        ("mass.mtx", disc.mass),
        ("stiffness.mtx", disc.stiffness),
        ("control_seminorm.mtx", seminorm),
    ):
        path = tmp_path / name
        assert path.is_file()
        loaded = sio.mmread(path)
        assert np.abs((loaded - matrix).toarray()).max() < 1e-15
