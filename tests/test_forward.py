"""Forward sweep against dense oracles and analytic behavior."""

import numpy as np
import pytest

from _oracles import solve_state, zero_control, zero_data
from dbc.adjoint import sweep_backward
from dbc.assembly import Discretization
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
    disc = Discretization(build_space_time_mesh(3, 4))
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((disc.mesh.num_slabs, disc.mesh.num_interior))
    exact = sweep(disc, rhs)
    previous = slab - 2 if sweep is sweep_forward else slab
    b = disc.mass_ii @ exact[previous] + rhs[slab - 1]
    matrix = disc.mass_ii + disc.mesh.time_partition.k * disc.stiff_ii
    expected = np.linalg.norm(matrix @ np.ones(len(b))) / (
        np.linalg.norm(b) + 1.0
    )
    checked = disc.max_slab_residual

    corrupt_slab_solve(2, 3)
    with pytest.raises(SolverError, match=f"slab {slab} solve failed") as info:
        sweep(disc, rhs)
    assert info.value.slab == slab
    assert info.value.residual == pytest.approx(expected, rel=1e-9)
    assert f"{info.value.residual:.3e}" in str(info.value)
    # Only the slabs before the failing one count as checked.
    assert disc.max_slab_residual == checked
