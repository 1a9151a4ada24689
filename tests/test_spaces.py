"""Discrete fields, interpolation, and bound sets."""

import numpy as np
import pytest

from _oracles import whole_boundary
from dbc.manufactured import build_space_time_mesh
from dbc.spaces import (
    AdjointField,
    BoundSet,
    ControlField,
    FieldShapeError,
    StateField,
    interpolate_control,
    pad_levels,
)


@pytest.fixture
def mesh():
    return build_space_time_mesh(4, 3)


def test_state_field_shapes(mesh):
    f = StateField(mesh, np.zeros((3, 9)))
    assert f.values.shape == (3, 9)
    with pytest.raises(FieldShapeError):
        StateField(mesh, np.zeros((3, 8)))


def test_state_full_values_scatter(mesh):
    rng = np.random.default_rng(0)
    f = StateField(mesh, rng.standard_normal((3, 9)))
    full = f.full_values()
    assert full.shape == (3, 25)
    tri = mesh.triangulation
    assert np.array_equal(full[:, tri.interior_indices], f.values)
    assert not full[:, tri.boundary_vertex_flags].any()


def test_adjoint_field_is_state_layout(mesh):
    assert isinstance(AdjointField(mesh, np.zeros((3, 9))), StateField)


def test_control_field_roundtrip(mesh):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((2, 25))
    q = ControlField(mesh, values)
    assert np.array_equal(
        ControlField.from_flat(mesh, q.ravel()).values, values
    )
    padded = pad_levels(q.values)
    assert padded.shape == (4, 25)
    assert not padded[0].any() and not padded[-1].any()
    assert np.array_equal(padded[1:3], values)
    with pytest.raises(FieldShapeError):
        ControlField(mesh, np.zeros((3, 25)))


def test_interpolate_control_is_nodal(mesh):
    def g(x, y, t):
        return x * (1.0 + y) * t

    q = interpolate_control(mesh, g)
    xy = mesh.triangulation.vertices
    for l, t in enumerate(mesh.time_partition.points[1:-1]):
        assert np.allclose(q.values[l], g(xy[:, 0], xy[:, 1], t))
    # Constants broadcast too.
    qc = interpolate_control(mesh, lambda x, y, t: 2.5)
    assert (qc.values == 2.5).all()


def test_bound_set_can_box_the_whole_boundary(mesh):
    bounds = BoundSet(mesh, -1.0, 2.0, whole_boundary)
    tri = mesh.triangulation
    nb = int(tri.boundary_vertex_flags.sum())
    assert len(bounds.constrained_indices) == mesh.num_control_levels * nb
    # No boundary vertex is held at zero.
    assert np.array_equal(bounds.mask.all(axis=0), tri.boundary_vertex_flags)
    assert bounds.mask.shape == (mesh.num_control_levels, mesh.num_nodes)
    assert not bounds.mask[:, tri.interior_indices].any()


def test_bound_set_with_predicate(mesh):
    bottom = lambda x, y: (y == 0.0) & (x > 0.0) & (x < 1.0)
    bounds = BoundSet(mesh, 0.0, 0.8, control_nodes=bottom)
    # Open bottom edge of the n=4 square: 3 vertices per level.
    assert len(bounds.constrained_indices) == mesh.num_control_levels * 3
    tri = mesh.triangulation
    nb = int(tri.boundary_vertex_flags.sum())
    # The boxed vertices are boundary vertices, the same on every level;
    # the other nb - 3 boundary vertices are held at zero.
    assert np.array_equal(bounds.mask.any(axis=0), bounds.mask.all(axis=0))
    boxed = bounds.mask[0]
    assert np.array_equal(np.flatnonzero(boxed), bounds.boxed_vertices)
    assert not boxed[~tri.boundary_vertex_flags].any()
    assert int((tri.boundary_vertex_flags & ~boxed).sum()) == nb - 3


def test_bound_set_requires_zero_admissible(mesh):
    with pytest.raises(ValueError):
        BoundSet(mesh, 0.5, 1.0, whole_boundary)
    with pytest.raises(ValueError):
        BoundSet(mesh, -2.0, -1.0, whole_boundary)
