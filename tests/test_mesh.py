"""Triangulations, time partitions, and the prismatic product mesh."""

import numpy as np
import pytest
from scipy.sparse import csgraph

from dbc.assembly import assemble_mass_stiffness
from dbc.mesh import (
    MeshError,
    SpaceTimeMesh,
    TimePartition,
    Triangulation,
    uniform_time_partition,
    unit_square_mesh,
)


def test_unit_square_counts_and_geometry():
    tri = unit_square_mesh(4)
    assert tri.num_vertices == 25
    assert len(tri.triangles) == 32
    assert tri.num_interior == 9
    # 2 n^2 congruent right triangles of area 1 / (2 n^2).
    assert np.allclose(tri.signed_areas, 1.0 / 32.0)
    assert np.isclose(tri.signed_areas.sum(), 1.0)
    assert tri.cell_width == 0.25


def test_unit_square_boundary_flags():
    tri = unit_square_mesh(3)
    x, y = tri.vertices[:, 0], tri.vertices[:, 1]
    expected = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    assert np.array_equal(tri.boundary_vertex_flags, expected)
    # The interior vertices, each once, in the band order of the mesh.
    assert np.array_equal(
        np.sort(tri.interior_indices), np.flatnonzero(~expected)
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


def test_single_triangle_is_all_boundary():
    tri = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert tri.boundary_vertex_flags.all()
    assert tri.num_interior == 0


def test_time_partition_uniform():
    """One step k, 1/M to the last bit, and M + 1 levels i/M from 0 to 1, at
    the time levels of the study levels."""
    for M in (4, 6, 23, 34, 46):
        tp = uniform_time_partition(M)
        assert tp.num_steps == M
        assert tp.k == 1.0 / M
        assert tp.points[0] == 0.0 and tp.points[-1] == 1.0
        assert np.array_equal(tp.points, np.arange(M + 1) / M)
        assert np.abs(np.diff(tp.points) - tp.k).max() <= np.spacing(1.0)


def test_time_partition_rejects_bad_input():
    for build in (TimePartition, uniform_time_partition):
        for bad in (0, -1, 2.5):
            with pytest.raises(MeshError, match="step count must be a positive"):
                build(bad)


def test_space_time_mesh_dimensions():
    mesh = SpaceTimeMesh(unit_square_mesh(4), uniform_time_partition(6))
    assert mesh.num_slabs == 6
    assert mesh.num_control_levels == 5
    assert mesh.num_nodes == 25
    assert mesh.num_interior == 9
    assert mesh.width == 0.25
    assert mesh.sigma == pytest.approx(np.hypot(0.25, 1.0 / 6.0))
    single = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    with pytest.raises(MeshError, match="needs a triangulation with a cell width"):
        SpaceTimeMesh(single, uniform_time_partition(1))


def test_space_time_mesh_warns_on_skewed_prisms(caplog):
    with caplog.at_level("WARNING", logger="dbc.mesh"):
        SpaceTimeMesh(unit_square_mesh(2), uniform_time_partition(50))
    assert "skewed prisms" in caplog.text


def _row_unique_boundary_flags(tri):
    """Boundary flags from the rows of the sorted edge array that occur once."""
    t = tri.triangles
    edges = np.sort(
        np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1
    )
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    flags = np.zeros(tri.num_vertices, dtype=bool)
    flags[uniq[counts == 1].ravel()] = True
    return flags


def _jittered_l_shape(n, seed):
    """The unit square mesh with its upper right quarter of cells removed and
    its interior vertices moved by up to a tenth of a cell: a re-entrant
    corner, cells of many shapes, and unreferenced vertices."""
    square = unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-0.1 / n, 0.1 / n, square.vertices.shape)
    jitter[square.boundary_vertex_flags] = 0.0
    centroids = square.vertices[square.triangles].mean(axis=1)
    keep = ~((centroids[:, 0] > 0.5) & (centroids[:, 1] > 0.5))
    return Triangulation(square.vertices + jitter, square.triangles[keep])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_boundary_flags_match_the_row_unique_edges(n):
    for tri in (unit_square_mesh(n), _jittered_l_shape(2 * n, seed=n)):
        assert np.array_equal(
            tri.boundary_vertex_flags, _row_unique_boundary_flags(tri)
        )


def test_l_shape_boundary_has_the_reentrant_corner():
    tri = _jittered_l_shape(4, seed=0)
    x, y = unit_square_mesh(4).vertices.T
    corner = (x == 0.5) & (y == 0.5)
    assert tri.boundary_vertex_flags[corner].all()
    # The removed quarter's own vertices lie on no triangle, so on no edge.
    assert not tri.boundary_vertex_flags[(x > 0.5) & (y > 0.5)].any()


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_interior_order_is_reverse_cuthill_mckee(n):
    """The interior vertices come in the reverse Cuthill-McKee order of
    their adjacency in vertex order, where two vertices are adjacent when a
    triangle holds both: the pattern of the P1 mass matrix."""
    for tri in (unit_square_mesh(n), _jittered_l_shape(2 * n, seed=n)):
        interior = np.flatnonzero(~tri.boundary_vertex_flags)
        mass = assemble_mass_stiffness(tri)[0]
        order = csgraph.reverse_cuthill_mckee(
            mass[interior][:, interior].tocsr(), symmetric_mode=True
        )
        assert np.array_equal(tri.interior_indices, interior[order])
