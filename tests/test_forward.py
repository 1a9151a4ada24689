"""Forward sweep against dense oracles and analytic behavior."""

import numpy as np
import pytest

from _oracles import solve_state, zero_control, zero_data
from dbc.adjoint import sweep_backward
from dbc.assembly import Discretization
from dbc import forward
from dbc.forward import SolverError, solve_state_sensitivity, sweep_forward
from dbc.manufactured import (
    build_space_time_mesh,
    bump_case,
    energy_error_state,
    setup_problem,
)
from dbc.spaces import ControlField, interpolate_control


@pytest.fixture
def disc():
    return Discretization(build_space_time_mesh(3, 3))


def test_sweep_forward_matches_dense_recursion(disc):
    rng = np.random.default_rng(0)
    mesh = disc.mesh
    rhs = rng.standard_normal((mesh.num_slabs, mesh.num_interior))
    w0 = rng.standard_normal(mesh.num_interior)
    out = sweep_forward(disc, rhs, w0)
    mass = disc.mass_ii.toarray()
    system = mass + mesh.time_partition.k * disc.stiff_ii.toarray()
    prev = w0
    for m in range(mesh.num_slabs):
        expected = np.linalg.solve(system, mass @ prev + rhs[m])
        assert np.allclose(out[m], expected, rtol=1e-12, atol=1e-14)
        prev = expected


@pytest.mark.parametrize(
    "sweep", [sweep_forward, sweep_backward], ids=["forward", "backward"]
)
def test_sweeps_keep_no_state_on_the_discretization(disc, sweep):
    """Two sweeps on one discretization leave their right-hand sides as they
    were and return arrays of their own, each the same to the last bit as
    the sweep on a new discretization."""
    rng = np.random.default_rng(3)
    shape = (disc.mesh.num_slabs, disc.mesh.num_interior)
    rhs = [rng.standard_normal(shape) for _ in range(2)]
    kept = [r.copy() for r in rhs]
    out = [sweep(disc, r) for r in rhs]
    assert not np.shares_memory(out[0], out[1])
    for r, before, x in zip(rhs, kept, out):
        assert np.array_equal(r, before)
        assert not np.shares_memory(x, r)
        assert np.array_equal(x, sweep(Discretization(disc.mesh), r))


def test_zero_data_gives_zero_state(disc):
    w = solve_state(disc, zero_data, None, zero_control(disc.mesh))
    assert not w.values.any()


def test_state_map_is_affine(disc):
    rng = np.random.default_rng(1)
    mesh = disc.mesh

    def f(x, y, t):
        return np.sin(x) * y + t

    def u0(x, y):
        return x * (1 - x) * y * (1 - y)

    q = ControlField(
        mesh, rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    )
    combined = solve_state(disc, f=f, u0=u0, control=q)
    base = solve_state(disc, f=f, u0=u0, control=zero_control(mesh))
    sens = solve_state_sensitivity(disc, q)
    assert np.allclose(
        combined.values, base.values + sens.values, rtol=1e-12, atol=1e-13
    )
    # Sensitivity is linear in the control.
    s2 = solve_state_sensitivity(
        disc, ControlField.from_flat(mesh, 2.0 * q.ravel())
    )
    assert np.allclose(s2.values, 2.0 * sens.values, rtol=1e-12, atol=1e-13)


def test_fixed_control_state_converges():
    """With the control frozen at the interpolated exact boundary data, the
    discrete state converges to the exact state in the energy norm."""
    case = bump_case()
    errors = []
    for n, M in ((4, 4), (8, 8)):
        problem = setup_problem(n, M, case)
        disc = problem.disc
        q = interpolate_control(disc.mesh, case.control)
        w = solve_state(disc, f=case.source, u0=case.initial, control=q)
        errors.append(energy_error_state(disc, case, w, q))
    assert errors[1] < 0.65 * errors[0]


def test_solver_error_reports_slab():
    err = SolverError(3, 1e-5, None)
    assert err.slab == 3
    assert err.residual == 1e-5
    assert "slab 3" in str(err)


# -- the slab residual guard ---------------------------------------------------


@pytest.mark.parametrize(
    "sweep,slab", [(sweep_forward, 2), (sweep_backward, 3)], ids=["forward", "backward"]
)
def test_sweep_stops_at_the_first_corrupted_slab(corrupt_slab_solve, sweep, slab):
    """Solves 2 and 3 of a sweep over 4 slabs are wrong by 1 in every entry.
    The sweep names the first of them in march order, slab ``slab``, and its
    residual ||K 1|| / (||b|| + 1)."""
    _stops_at_the_first_corrupted_slab(
        Discretization(build_space_time_mesh(3, 4)), corrupt_slab_solve, sweep, slab
    )


@pytest.mark.parametrize(
    "sweep,slab", [(sweep_forward, 2), (sweep_backward, 3)], ids=["forward", "backward"]
)
def test_a_folded_sweep_stops_at_the_first_corrupted_slab(
    layout, corrupt_slab_solve, sweep, slab
):
    """The same in the folded basis, forced by the fold gate: there the
    wrong solves are wrong by 1 in every folded entry, U 1 in the vertex
    basis, and the sweep names the same slab with the residual of the
    vertex basis, ||K U 1|| / (||b|| + 1)."""
    layout("folded")
    disc = Discretization(build_space_time_mesh(3, 4))
    assert disc.fold is not None
    _stops_at_the_first_corrupted_slab(disc, corrupt_slab_solve, sweep, slab)


def _stops_at_the_first_corrupted_slab(disc, corrupt_slab_solve, sweep, slab):
    """Corrupt solves 2 and 3 of ``sweep`` on ``disc`` and check that it
    stops at slab ``slab`` with the residual of the vertex basis, and that
    ``max_slab_residual`` keeps only the slabs before it."""
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((disc.mesh.num_slabs, disc.mesh.num_interior))
    exact = sweep(disc, rhs)
    previous = slab - 2 if sweep is sweep_forward else slab
    b = disc.mass_ii @ exact[previous] + rhs[slab - 1]
    matrix = disc.mass_ii + disc.mesh.time_partition.k * disc.stiff_ii
    error = disc.unfold_values(np.ones(len(b)))
    expected = np.linalg.norm(matrix @ error) / (np.linalg.norm(b) + 1.0)
    checked = disc.max_slab_residual

    corrupt_slab_solve(2, 3)
    with pytest.raises(SolverError, match=f"slab {slab} solve failed") as info:
        sweep(disc, rhs)
    assert info.value.slab == slab
    assert info.value.residual == pytest.approx(expected, rel=1e-9)
    assert f"{info.value.residual:.3e}" in str(info.value)
    # Only the slabs before the failing one count as checked.
    assert disc.max_slab_residual == checked


# -- the folded basis -----------------------------------------------------------


def _both_bases(layout, n, M):
    """The discretization of n x M in the vertex basis and in the folded
    one, forced by the fold gate."""
    mesh = build_space_time_mesh(n, M)
    layout("band")
    band = Discretization(mesh)
    layout("folded")
    folded = Discretization(mesh)
    assert band.fold is None and folded.fold is not None
    return band, folded


@pytest.mark.parametrize("n", [7, 12, 16])
@pytest.mark.parametrize(
    "sweep,start",
    [(sweep_forward, False), (sweep_forward, True), (sweep_backward, False)],
    ids=["forward", "forward-from-w0", "backward"],
)
def test_folded_sweeps_match_the_vertex_basis(layout, n, sweep, start):
    """In the folded basis, at odd and even n, both sweeps, the forward one
    with and without a start, take and give the vertex basis's arrays and
    match its answers to 1e-12 relative; the folded slab factor's band is
    ceil((n - 1) / 2) wide, against n - 1."""
    band, folded = _both_bases(layout, n, 5)
    assert folded.slab_solver().kd == -(-(n - 1) // 2)
    assert band.slab_solver().kd == n - 1
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal((band.mesh.num_slabs, band.mesh.num_interior))
    args = (rhs, rng.standard_normal(band.mesh.num_interior)) if start else (rhs,)
    expected = sweep(band, *args)
    got = sweep(folded, *args)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    assert 0.0 < folded.max_slab_residual <= 1e-14


@pytest.mark.parametrize("n", [7, 12, 16])
def test_the_folded_slab_check_reads_the_vertex_basis_residual(layout, n):
    """The slab check of a folded march reads, with the weights D^-1, the
    residual of the vertex basis: for stacks y and b' in the folded basis
    that solve nothing, slab m's reading is ||K x - b|| / (||b|| + 1) with
    x = U y and b = U D^-1 b', to rounding."""
    _, disc = _both_bases(layout, n, 4)
    fold = disc.fold
    rng = np.random.default_rng(n)
    shape = (disc.mesh.num_slabs, disc.mesh.num_interior)
    folded_rhs, folded_x = rng.standard_normal(shape), rng.standard_normal(shape)
    matrix = disc.mass_ii + disc.mesh.time_partition.k * disc.stiff_ii
    for m in range(disc.mesh.num_slabs):
        b = fold.basis @ (fold.weights * folded_rhs[m])
        r = matrix @ (fold.basis @ folded_x[m]) - b
        expected = np.linalg.norm(r) / (np.linalg.norm(b) + 1.0)
        with pytest.raises(SolverError, match=f"slab {m + 1} solve failed") as info:
            forward._check_residuals(
                disc, disc.slab_solver(), folded_rhs, folded_x, np.array([m])
            )
        assert info.value.residual == pytest.approx(expected, rel=1e-12)
