"""Backward sweep, tracking loads, and the discrete duality identity."""

import numpy as np
import pytest

from _oracles import solve_adjoint, zero_control, zero_data
from dbc.adjoint import adjoint_identity_check, sweep_backward, tracking_slabs
from dbc.assembly import Discretization
from dbc.manufactured import build_space_time_mesh
from dbc.spaces import ControlField, StateField, pad_levels


@pytest.fixture
def disc():
    return Discretization(build_space_time_mesh(3, 3))


def test_sweep_backward_matches_dense_recursion(disc):
    rng = np.random.default_rng(0)
    mesh = disc.mesh
    rhs = rng.standard_normal((mesh.num_slabs, mesh.num_interior))
    out = sweep_backward(disc, rhs)
    mass = disc.mass_ii.toarray()
    system = mass + mesh.time_partition.k * disc.stiff_ii.toarray()
    nxt = np.zeros(mesh.num_interior)
    for m in reversed(range(mesh.num_slabs)):
        expected = np.linalg.solve(system, mass @ nxt + rhs[m])
        assert np.allclose(out[m], expected, rtol=1e-12, atol=1e-14)
        nxt = expected


def test_zero_tracking_gives_zero_adjoint(disc):
    mesh = disc.mesh
    state = StateField(mesh, np.zeros((mesh.num_slabs, mesh.num_interior)))
    z = solve_adjoint(disc, state, zero_control(mesh), zero_data)
    assert not z.values.any()


def test_tracking_slabs_match_midpoint_mass_oracle(disc):
    """For u_d P1 in space and affine in t, w + q - u_d is P1 in space and
    affine in t on every slab, so its slab load, ``tracking_slabs`` minus
    the slab loads of u_d, is exactly k_m times the interior mass rows
    applied to its nodal values at the slab midpoint."""
    rng = np.random.default_rng(1)
    mesh = disc.mesh
    state = StateField(
        mesh, rng.standard_normal((mesh.num_slabs, mesh.num_interior))
    )
    control = ControlField(
        mesh, rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    )

    def u_d(x, y, t):
        return (1.0 + 2.0 * x - y) * (0.5 + t)

    batch = tracking_slabs(disc, state.values, control.values)
    batch -= disc.source_slabs(disc.time_loads(u_d)[0])
    vx, vy = mesh.triangulation.vertices.T
    pts = mesh.time_partition.points
    pad = pad_levels(control.values)
    full = state.full_values()
    for m in range(mesh.num_slabs):
        t_mid = 0.5 * (pts[m] + pts[m + 1])
        nodal = full[m] + 0.5 * (pad[m] + pad[m + 1]) - u_d(vx, vy, t_mid)
        oracle = (pts[m + 1] - pts[m]) * (disc.mass_if @ nodal)
        assert np.allclose(batch[m], oracle, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize(
    "mesh",
    [
        build_space_time_mesh(3, 3),
        build_space_time_mesh(2, 5),
        build_space_time_mesh(3, 4),
    ],
    ids=["3x3", "2x5", "3x4"],
)
def test_duality_identity(mesh):
    disc = Discretization(mesh)
    for seed in range(10):
        assert adjoint_identity_check(disc, seed=seed) < 1e-10
