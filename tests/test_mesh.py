"""Triangulations, time partitions, and the prismatic product mesh."""

import io

import numpy as np
import pytest

from dbc.mesh import (
    MeshError,
    SpaceTimeMesh,
    TimePartition,
    Triangulation,
    refine,
    uniform_time_partition,
    unit_square_mesh,
    write_mesh_text,
)


def test_unit_square_counts_and_geometry():
    tri = unit_square_mesh(4)
    assert tri.num_vertices == 25
    assert tri.num_triangles == 32
    assert tri.num_interior == 9
    # 2 n^2 congruent right triangles of area 1 / (2 n^2).
    assert np.allclose(tri.signed_areas, 1.0 / 32.0)
    assert np.isclose(tri.signed_areas.sum(), 1.0)
    assert tri.cell_width == 0.25
    assert np.isclose(tri.h, np.sqrt(2.0) / 4.0)


def test_unit_square_boundary_flags():
    tri = unit_square_mesh(3)
    x, y = tri.vertices[:, 0], tri.vertices[:, 1]
    expected = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    assert np.array_equal(tri.boundary_vertex_flags, expected)
    assert np.array_equal(
        tri.interior_indices, np.flatnonzero(~expected)
    )


def test_unit_square_orientation():
    for n in (1, 2, 5):
        assert (unit_square_mesh(n).signed_areas > 0).all()


def test_triangulation_rejects_bad_input():
    with pytest.raises(MeshError):
        unit_square_mesh(0)
    with pytest.raises(MeshError):
        unit_square_mesh(2.5)
    with pytest.raises(MeshError):  # clockwise triangle
        Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    with pytest.raises(MeshError):  # dangling vertex index
        Triangulation([[0, 0], [1, 0]], [[0, 1, 2]])
    with pytest.raises(MeshError):  # wrong shapes
        Triangulation([[0, 0, 0]], [[0, 0, 0]])


def test_triangulation_shape_errors_name_the_array():
    with pytest.raises(MeshError, match=r"vertices must be an \(nv, 2\) array"):
        Triangulation([0.0, 1.0], [[0, 1, 2]])
    with pytest.raises(MeshError, match=r"triangles must be an \(nt, 3\) array"):
        Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1]])


def test_triangulation_rejects_an_edge_of_three_triangles():
    # Three triangles on the edge from vertex 0 to vertex 1.
    vertices = [[0, 0], [1, 0], [0.5, 1], [0.5, 2], [0.5, 3]]
    triangles = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(MeshError, match="non-conforming mesh"):
        Triangulation(vertices, triangles)


def test_triangulation_validate_false_allows_flipped():
    tri = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], validate=False)
    assert tri.signed_areas[0] < 0


def test_single_triangle_is_all_boundary():
    tri = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert tri.boundary_vertex_flags.all()
    assert tri.num_interior == 0
    assert np.isclose(tri.h, np.sqrt(2.0))


def test_time_partition_uniform():
    tp = uniform_time_partition(4, 1.0)
    assert tp.num_steps == 4
    assert tp.final_time == 1.0
    assert tp.points[0] == 0.0 and tp.points[-1] == 1.0
    assert np.allclose(tp.steps, 0.25)
    assert tp.k == 0.25


def test_time_partition_nonuniform():
    tp = TimePartition([0.0, 0.1, 0.5, 1.2])
    assert np.allclose(tp.steps, [0.1, 0.4, 0.7])
    assert tp.k == pytest.approx(0.7)
    assert tp.final_time == pytest.approx(1.2)


def test_time_partition_rejects_bad_input():
    with pytest.raises(MeshError):
        TimePartition([0.0])
    with pytest.raises(MeshError):
        TimePartition([0.5, 1.0])  # must start at zero
    with pytest.raises(MeshError):
        TimePartition([0.0, 0.5, 0.5])  # not strictly increasing
    with pytest.raises(MeshError):
        uniform_time_partition(0)
    with pytest.raises(MeshError):
        uniform_time_partition(3, -1.0)


def test_space_time_mesh_dimensions():
    mesh = SpaceTimeMesh(unit_square_mesh(4), uniform_time_partition(6))
    assert mesh.num_slabs == 6
    assert mesh.num_control_levels == 5
    assert mesh.num_nodes == 25
    assert mesh.num_interior == 9
    assert mesh.num_prisms == 32 * 6
    assert mesh.width == 0.25
    assert mesh.sigma == pytest.approx(np.hypot(0.25, 1.0 / 6.0))


def test_space_time_mesh_warns_on_skewed_prisms(caplog):
    with caplog.at_level("WARNING", logger="dbc.mesh"):
        SpaceTimeMesh(unit_square_mesh(2), uniform_time_partition(50))
    assert "skewed prisms" in caplog.text


def test_refine_doubles_structured_mesh():
    mesh = SpaceTimeMesh(unit_square_mesh(2), uniform_time_partition(3))
    fine = refine(mesh)
    assert fine.triangulation.n == 4
    assert fine.num_slabs == 6
    coarse_pts = mesh.time_partition.points
    assert np.allclose(fine.time_partition.points[::2], coarse_pts)
    tricky = refine(mesh, spatial_factor=3, temporal_factor=1)
    assert tricky.triangulation.n == 6
    assert tricky.num_slabs == 3


def test_refine_rejects_unstructured_and_bad_factors():
    custom = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    mesh = SpaceTimeMesh(custom, uniform_time_partition(2))
    with pytest.raises(MeshError):
        refine(mesh)
    structured = SpaceTimeMesh(unit_square_mesh(2), uniform_time_partition(2))
    with pytest.raises(MeshError):
        refine(structured, spatial_factor=0)
    with pytest.raises(MeshError):
        refine(structured, temporal_factor=1.5)


def test_write_mesh_text_roundtrip():
    tri = unit_square_mesh(2)
    buf = io.StringIO()
    write_mesh_text(tri, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == tri.num_vertices + tri.num_triangles
    x, y, flag = lines[0].split()
    assert (float(x), float(y)) == tuple(tri.vertices[0])
    assert int(flag) == int(tri.boundary_vertex_flags[0])
    i, j, k = map(int, lines[tri.num_vertices].split())
    assert [i, j, k] == list(tri.triangles[0])
