"""Assembled operators against symbolic and quadrature oracles."""

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

import _symbolic
from dbc import assembly
from dbc.assembly import (
    AssemblyError,
    Discretization,
    EnergyExtension,
    assemble_mass_stiffness,
    bilinear_form,
    coercivity_gap,
    control_state_form,
    dpbtrf,
    dtbsv,
    export_matrix_market,
    gauss_interval,
    reference_triangle_rule,
    spatial_load_vector,
    time_mass_stiffness,
)
from dbc.manufactured import (
    build_space_time_mesh,
    bump_case,
    control_error,
    energy_error_adjoint,
    energy_error_state,
    setup_problem,
)
from dbc.mesh import SpaceTimeMesh, TimePartition, Triangulation, unit_square_mesh
from dbc.spaces import (
    AdjointField,
    BoundSet,
    ControlField,
    StateField,
    interpolate_control,
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


def test_assemble_rejects_degenerate_triangles():
    flipped = Triangulation(
        [[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], validate=False
    )
    with pytest.raises(AssemblyError):
        assemble_mass_stiffness(flipped)


def test_time_matrices_match_symbolic():
    points = ["0", "0.25", "0.75", "1.5"]
    mass, stiff = time_mass_stiffness(np.array(points, dtype=float))
    mass_ref, stiff_ref = _symbolic.time_matrices(points)
    assert np.abs(mass.toarray() - mass_ref).max() < 1e-14
    assert np.abs(stiff.toarray() - stiff_ref).max() < 1e-14
    with pytest.raises(AssemblyError):
        time_mass_stiffness([0.0, 0.5, 0.5])


# -- quadrature rules ----------------------------------------------------------


@pytest.mark.parametrize("degree", [4, 8])
def test_triangle_rule_integrates_monomials_exactly(degree):
    bary, weights = reference_triangle_rule(degree)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    # Reference triangle (0,0)-(1,0)-(0,1): x = lambda_2, y = lambda_3.
    x, y = bary[:, 1], bary[:, 2]
    area = 0.5
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            approx = area * float(weights @ (x**p * y**q))
            exact = _symbolic.monomial_triangle_integral(p, q)
            assert approx == pytest.approx(exact, rel=1e-13, abs=1e-16)


def test_triangle_rule_unavailable_degree():
    with pytest.raises(AssemblyError):
        reference_triangle_rule(9)


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
    mass = Discretization(mesh).control_mass
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
    flat = np.random.default_rng(0).standard_normal(disc.seminorm.shape[0])
    assert float(flat @ (disc.seminorm @ flat)) > 0


def test_kronecker_operators_match_their_assembly():
    """Seminorm and control mass, applied from their factors, against the
    ``sp.kron`` assembly on a non-uniform partition."""
    mesh = SpaceTimeMesh(unit_square_mesh(3), TimePartition([0, 0.2, 0.5, 0.7, 1.3]))
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
        (disc.control_mass, sp.kron(mt, disc.mass)),
    ):
        oracle = oracle.tocsr()
        assert operator.shape == oracle.shape
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


_NONUNIFORM = TimePartition([0, 0.2, 0.5, 0.7, 1.3])


def test_energy_extension_solves_interior_block():
    for mesh, whole_boundary in (
        (build_space_time_mesh(4, 3), False),
        (SpaceTimeMesh(unit_square_mesh(3), _NONUNIFORM), True),
    ):
        disc = Discretization(mesh)
        boxed = (
            BoundSet(mesh, 0.0, 1.0).boxed_vertices
            if whole_boundary
            else _bottom_edge(mesh)
        )
        M = mesh.num_slabs
        tmass, tstiff = time_mass_stiffness(mesh.time_partition.points)
        mt, st = tmass[1:M, 1:M], tstiff[1:M, 1:M]
        block = sp.kron(mt, disc.stiff_ii) + sp.kron(st, disc.mass_ii)
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal((mesh.num_control_levels, mesh.num_interior))
        x = EnergyExtension(disc, boxed).solve(rhs)
        residual = block @ x.ravel() - rhs.ravel()
        assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(rhs)


def _band_solver(matrix, order):
    """Solve with ``matrix`` through its band Cholesky factor in ``order``,
    built and applied by the GIL-free kernels alone."""
    permuted = assembly._reorder(matrix, order)
    band = dpbtrf(assembly._lower_band(permuted, assembly._band_width(permuted)))

    def solve(rhs):
        x = rhs[order]
        dtbsv(band, dtbsv(band, x), trans=True)
        out = np.empty_like(x)
        out[order] = x
        return out

    return solve


def test_band_cholesky_matches_spsolve():
    """The 8x6 slab matrix, and the mode matrices of the smallest and the
    largest time eigenvalue, each in the order its solver uses; the slab
    matrix also through the two-band ``SlabSystem.solve``."""
    mesh = build_space_time_mesh(8, 6)
    disc = Discretization(mesh)
    extension = EnergyExtension(disc, _bottom_edge(mesh))
    tmass, tstiff = time_mass_stiffness(mesh.time_partition.points)
    theta = sla.eigh(
        tstiff[1:6, 1:6].toarray(), tmass[1:6, 1:6].toarray(), eigvals_only=True
    )
    slab = disc.slab_solver(1 / 6)
    low, high = (disc.stiff_ii + th * disc.mass_ii for th in (theta[0], theta[-1]))
    rng = np.random.default_rng(11)
    for matrix, solve in (
        (slab.matrix, _band_solver(slab.matrix, disc.slab_order)),
        (slab.matrix, slab.solve),
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
        dpbtrf(assembly._lower_band(matrix, 1))


def _random_band(rng, kd, n):
    """Lower band (kd + 1, n) of a diagonally dominant SPD band matrix."""
    band = rng.uniform(-1.0, 1.0, (kd + 1, n))
    band[0] = 2.0 * (kd + 1)
    return np.asfortranarray(band)


def test_gil_free_kernels_match_scipy_bit_for_bit():
    """``dpbtrf`` and ``dtbsv`` against scipy's f2py wrappers of the same
    routines: lower band, both transposes, and a trailing block."""
    rng = np.random.default_rng(21)
    kd, n, start = 4, 37, 29
    band = _random_band(rng, kd, n)
    expected, info = lapack.dpbtrf(band, lower=1)
    assert info == 0
    factor = dpbtrf(band.copy(order="F"))
    assert np.array_equal(factor, expected)
    x = rng.standard_normal(n)
    for trans in (False, True):
        reference = blas.dtbsv(kd, factor, x, lower=1, trans=int(trans))
        assert np.array_equal(dtbsv(factor, x.copy(), trans=trans), reference)
        block, tail = factor[:, start:], x[start:].copy()
        reference = blas.dtbsv(kd, block, tail, lower=1, trans=int(trans))
        assert np.array_equal(dtbsv(block, tail, trans=trans), reference)


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
    is taken, so it is left untouched."""
    rng = np.random.default_rng(22)
    factor = dpbtrf(_random_band(rng, 3, 12))
    x = bad(rng.standard_normal(12))
    before = x.copy()
    with pytest.raises(ValueError, match="band kernel needs"):
        dtbsv(factor, x)
    assert np.array_equal(x, before)


def test_band_kernels_reject_a_band_in_c_order():
    band = np.ascontiguousarray(_random_band(np.random.default_rng(23), 3, 12))
    before = band.copy()
    with pytest.raises(ValueError, match="band kernel needs"):
        dpbtrf(band)
    assert np.array_equal(band, before)


def test_tail_solves_match_full_solves():
    mesh = SpaceTimeMesh(unit_square_mesh(6), _NONUNIFORM)
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
    mesh = SpaceTimeMesh(unit_square_mesh(8), _NONUNIFORM)
    disc = Discretization(mesh)
    boxed = _bottom_edge(mesh)
    levels = mesh.num_control_levels
    assert levels == 3
    monkeypatch.setattr(assembly, "_SPLIT_WORK", 0)
    cpus = assembly._usable_cpus()
    if not cpus:
        pytest.skip("the platform does not report the CPUs a process may use")
    monkeypatch.setattr(assembly, "_usable_cpus", lambda: cpus[:1])
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
        assembly, "_usable_cpus", lambda: (cpus * levels)[:levels]
    )
    outcome = {}

    def run():
        try:
            split = EnergyExtension(disc, boxed)
            outcome["ranges"] = split._ranges
            outcome["factors"] = split._bands.copy()
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
    assert np.array_equal(outcome["factors"], serial._bands)
    for repeat in outcome["solves"]:
        for got, want in zip(repeat, expected):
            assert np.array_equal(got, want)


def test_quadrature_split_gives_the_bits_of_one_worker(monkeypatch):
    """The three error norms, the misfit and the loads, their Gauss times
    split over three workers, so more threads than a two-core host has
    cores, with loads in chunks of one and of three times and the
    interpreter switching between threads as often as it can: every value
    is the bits of one worker.  Each split runs in a thread of its own, so
    that a deadlock fails the test instead of hanging it."""
    mesh = SpaceTimeMesh(unit_square_mesh(8), _NONUNIFORM)
    disc = Discretization(mesh)
    q = disc.quad
    case = bump_case()
    rng = np.random.default_rng(36)
    slabs = (mesh.num_slabs, mesh.num_interior)
    state = StateField(mesh, rng.standard_normal(slabs))
    adjoint = AdjointField(mesh, rng.standard_normal(slabs))
    control = ControlField(
        mesh, rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    )

    def quadratures():
        return (
            energy_error_state(disc, case, state, control),
            energy_error_adjoint(disc, case, adjoint),
            control_error(disc, case, control),
            disc.misfit_quadrature(state.values, control.values, case.target),
            disc.time_loads(case.source),
            disc.time_loads(case.target),
        )

    cpus = assembly._usable_cpus()
    if not cpus:
        pytest.skip("the platform does not report the CPUs a process may use")
    workers = 3
    monkeypatch.setattr(assembly, "_QUADRATURE_SPLIT_WORK", 0)
    monkeypatch.setattr(assembly, "_usable_cpus", lambda: cpus[:1])
    assert q.split() == [(0, q.times.size)]
    expected = quadratures()
    monkeypatch.setattr(
        assembly, "_usable_cpus", lambda: (cpus * workers)[:workers]
    )
    assert q.split() == [(0, 2), (2, 5), (5, 8)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for chunk_times in (1, 3):
            monkeypatch.setattr(
                assembly, "_LOAD_CHUNK_BYTES", 8 * q.x.size * workers * chunk_times
            )
            outcome = {}

            def run():
                try:
                    outcome["values"] = [quadratures() for _ in range(5)]
                except BaseException as err:  # re-raised in the test's thread
                    outcome["error"] = err

            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive(), "the split quadrature did not finish in 120 s"
            if "error" in outcome:
                raise outcome["error"]
            for values in outcome["values"]:
                for got, want in zip(values[:4], expected[:4]):
                    assert got == want
                for got, want in zip(values[4:], expected[4:]):
                    assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


def test_a_split_integral_runs_blas_on_one_thread(monkeypatch):
    """While a split integral runs, every OpenBLAS that the process loaded
    runs on one thread, so that BLAS threads do not compete with the pool
    and the dot products sum as on one thread; the thread counts come back
    afterwards."""
    setters = assembly._openblas_thread_setters()
    if not setters:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")

    def counts():
        found = []
        for setter in setters:
            threads = setter(1)
            setter(threads)
            found.append(threads)
        return found

    q = Discretization(SpaceTimeMesh(unit_square_mesh(8), _NONUNIFORM)).quad
    cpus = assembly._usable_cpus()
    if not cpus:
        pytest.skip("the platform does not report the CPUs a process may use")
    monkeypatch.setattr(assembly, "_QUADRATURE_SPLIT_WORK", 0)
    monkeypatch.setattr(assembly, "_usable_cpus", lambda: (cpus * 2)[:2])
    seen = []

    def integrand(m, j, t):
        seen.append(counts())
        return np.ones_like(q.x)

    before = [setter(2) for setter in setters]
    try:
        q.integrate(integrand)
        after = counts()
    finally:
        for setter, threads in zip(setters, before):
            setter(threads)
    assert len(seen) == q.times.size
    assert all(found == [1] * len(setters) for found in seen)
    assert after == [2] * len(setters)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_after_its_parent(monkeypatch):
    """A split in the parent makes the shared pool.  A child forked after
    it has none of the pool's threads, so it makes a pool of its own, and
    its split finishes with the parent's bits.  The parent waits at most
    120 s for the child."""
    disc = Discretization(SpaceTimeMesh(unit_square_mesh(8), _NONUNIFORM))
    q = disc.quad
    cpus = assembly._usable_cpus()
    if not cpus:
        pytest.skip("the platform does not report the CPUs a process may use")
    monkeypatch.setattr(assembly, "_QUADRATURE_SPLIT_WORK", 0)
    monkeypatch.setattr(assembly, "_usable_cpus", lambda: (cpus * 2)[:2])
    assert len(q.split()) == 2

    def squares(m, j, t):
        return (q.x + t) ** 2

    expected = q.integrate(squares)
    assert assembly._pool is not None
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if its split gave the bits
        code = 1
        try:
            code = 0 if q.integrate(squares) == expected else 2
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
    norms at 8x6, below ``_SPLIT_WORK`` band entries and
    ``_QUADRATURE_SPLIT_WORK`` point evaluations, start none either: the
    modes and the Gauss times run in the calling thread.  A fresh process,
    since the shared pool of this one may already exist."""
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
        result = dbc.pdas_solve(problem)
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
    assert levels * n * (extension.kd + 1) < assembly._SPLIT_WORK
    assert extension._ranges == [(0, levels)]
    quad = problem.disc.quad
    assert quad.x.size * quad.times.size < assembly._QUADRATURE_SPLIT_WORK
    assert quad.split() == [(0, quad.times.size)]


@pytest.mark.parametrize("n", [8, 16])
def test_tail_order_puts_the_bottom_row_last(n):
    """With the bottom edge boxed the tail is the first interior row, and
    the level sets of the distance from it are the rows, so the band of
    every mode factor is one row of n - 1 vertices wide."""
    mesh = SpaceTimeMesh(unit_square_mesh(n), TimePartition([0, 0.5, 1]))
    disc = Discretization(mesh)
    extension = EnergyExtension(disc, _bottom_edge(mesh))
    tail = extension.tail
    ys = mesh.triangulation.vertices[disc.interior, 1]
    assert np.array_equal(tail, np.flatnonzero(np.isclose(ys, 1.0 / n)))
    assert np.array_equal(extension.order[-len(tail):], tail)
    # Rows come farthest first: y never increases along the order.
    assert np.all(np.diff(ys[extension.order]) <= 1e-12)
    assert extension.kd == n - 1


# -- coupling, pairings, loads --------------------------------------------------


def _quadrature_coupling_form(disc, control, v_values):
    """(d_t q, v)_I + (grad q, grad v)_I by per-slab quadrature, independent
    of the assembled coupling path."""
    mesh = disc.mesh
    tri = mesh.triangulation
    tt = tri.triangles
    pts = mesh.time_partition.points
    pad = control.padded_values()
    full = np.zeros((mesh.num_slabs, mesh.num_nodes))
    full[:, disc.interior] = v_values
    bary, ws = reference_triangle_rule(4)
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
            qx = np.einsum("ti,ti->t", q_nodal[tt], disc.grads[:, :, 0])
            qy = np.einsum("ti,ti->t", q_nodal[tt], disc.grads[:, :, 1])
            vx = np.einsum("ti,ti->t", v_nodal[tt], disc.grads[:, :, 0])
            vy = np.einsum("ti,ti->t", v_nodal[tt], disc.grads[:, :, 1])
            total += wt * float(disc.areas @ (qx * vx + qy * vy))
            for lam, w in zip(bary, ws):
                dq = sum(lam[i] * dt_nodal[tt[:, i]] for i in range(3))
                vv = sum(lam[i] * v_nodal[tt[:, i]] for i in range(3))
                total += wt * w * float(disc.areas @ (dq * vv))
    return total


def test_coupling_matches_quadrature(disc):
    rng = np.random.default_rng(4)
    mesh = disc.mesh
    q = ControlField(
        mesh, rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    )
    v = rng.standard_normal((mesh.num_slabs, mesh.num_interior))
    assembled = control_state_form(disc, q, v)
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
    paired = float(np.sum(disc.pair_state_control(v) * q))
    # Oracle: (v, q)_I with v constant per slab and q linear in time reduces
    # per slab to k_m/2 * (v_m, q_{m-1} + q_m)_{L2(Omega)}.
    pad = np.zeros((mesh.num_slabs + 1, mesh.num_nodes))
    pad[1:-1] = q
    full = np.zeros((mesh.num_slabs, mesh.num_nodes))
    full[:, disc.interior] = v
    k = mesh.time_partition.steps
    oracle = sum(
        0.5 * k[m] * float(full[m] @ (disc.mass @ (pad[m] + pad[m + 1])))
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


@pytest.mark.parametrize("chunk_times", [1, 3, None], ids=["one", "three", "all"])
def test_time_loads_match_one_load_vector_per_time(monkeypatch, chunk_times):
    """The chunked loads equal, bit for bit, one ``spatial_load_vector`` per
    Gauss time times its weight; chunks of 3 do not divide the 10 times."""
    disc = Discretization(build_space_time_mesh(4, 5))
    q = disc.quad
    if chunk_times is not None:
        monkeypatch.setattr(assembly, "_LOAD_CHUNK_BYTES", 8 * q.x.size * chunk_times)
    for g in (bump_case().target, lambda x, y, t: np.ones_like(x)):
        expected = [
            [w * spatial_load_vector(q, g, t) for t, w in zip(times, weights)]
            for times, weights in zip(q.times, q.time_weights)
        ]
        assert np.array_equal(disc.time_loads(g), np.array(expected))


def test_source_slabs_constant(disc):
    k = disc.mesh.time_partition.steps[0]
    n = disc.mesh.triangulation.n
    slabs = disc.source_slabs(disc.time_loads(lambda x, y, t: np.ones_like(x)))
    assert slabs.shape == (3, disc.mesh.num_interior)
    assert np.allclose(slabs, k / n**2)
    assert not disc.source_slabs(disc.time_loads(None)).any()


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

    paired = disc.control_pairing(disc.time_loads(g_disc)).ravel()
    oracle = disc.control_mass @ interpolate_control(mesh, g_disc).ravel()
    assert np.allclose(paired, oracle, rtol=1e-12, atol=1e-15)
    zero = disc.control_pairing(disc.time_loads(None))
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
    M = disc.mesh.num_slabs
    ni = disc.mesh.num_interior
    zero_state = np.zeros((M, ni))
    one = disc.misfit_quadrature(
        zero_state, None, lambda x, y, t: np.ones_like(x)
    )
    assert one == pytest.approx(1.0, rel=1e-14)  # |Omega| * T
    poly = disc.misfit_quadrature(zero_state, None, lambda x, y, t: x + y)
    assert poly == pytest.approx(7.0 / 6.0, rel=1e-13)
    assert disc.misfit_quadrature(zero_state, None, None) == 0.0


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
    assert disc.slab_solver(0.5) is disc.slab_solver(0.5)
    assert disc.slab_solver(0.5) is not disc.slab_solver(0.25)
    rng = np.random.default_rng(10)
    rhs = rng.standard_normal(disc.mesh.num_interior)
    x = disc.slab_solver(0.3).solve(rhs)
    dense = np.linalg.solve(disc.slab_solver(0.3).matrix.toarray(), rhs)
    assert np.allclose(x, dense, rtol=1e-12, atol=1e-14)


def test_uniform_partition_shares_one_slab_system():
    disc = Discretization(build_space_time_mesh(8, 6))
    steps = disc.mesh.time_partition.steps
    # The steps differ in their last bits, but are one step size.
    assert len(np.unique(steps)) > 1
    systems = {id(disc.slab_solver(k)) for k in steps}
    assert len(systems) == 1
    assert disc.slab_solver(0.5) is not disc.slab_solver(0.5 + 1e-9)


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
