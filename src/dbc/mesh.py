"""Space-time meshes for parabolic boundary-control problems.

The spatial domain is triangulated (structured meshes of the unit square are
built in), time is partitioned into slabs, and the product of the two is the
prismatic mesh on which the control lives.  All vertex and triangle data are
plain numpy arrays; nothing here depends on the rest of the package.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

log = logging.getLogger("dbc.mesh")


class MeshError(ValueError):
    """Raised for malformed mesh input."""


class Triangulation:
    """Conforming triangle mesh of a polygonal domain.

    Parameters
    ----------
    vertices : (nv, 2) array_like
        Vertex coordinates.
    triangles : (nt, 3) array_like
        Vertex indices per triangle, counterclockwise.

    Attributes
    ----------
    boundary_vertex_flags : (nv,) bool array
        True for vertices lying on the domain boundary, derived from edge
        incidence (an edge on the boundary belongs to exactly one triangle).
    interior_indices : (ni,) int array
        The vertices not on the boundary, in the reverse Cuthill-McKee order
        of their adjacency (a triangle holds both), the band order that
        every interior-indexed array and slab factor of the package shares.
    cell_width : float or None
        Structured-grid cell width 1/n; set by ``unit_square_mesh`` and used
        as the mesh size reported in convergence tables.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise MeshError("triangle refers to a vertex that does not exist")

        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        self.signed_areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        bad = np.flatnonzero(self.signed_areas <= 0)
        if bad.size:
            raise MeshError(
                f"triangle {bad[0]} has non-positive area "
                f"{self.signed_areas[bad[0]]:.3e} (vertices {t[bad[0]]})"
            )

        # Each edge as the one integer lo * nv + hi of its sorted endpoints,
        # so one 1-D sort counts the triangles on every edge.
        edges = np.sort(
            np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1
        )
        nv = len(v)
        keys, counts = np.unique(edges[:, 0] * nv + edges[:, 1], return_counts=True)
        if counts.max(initial=1) > 2:
            raise MeshError("non-conforming mesh: an edge is shared by >2 triangles")
        boundary_keys = keys[counts == 1]
        flags = np.zeros(nv, dtype=bool)
        flags[boundary_keys // nv] = True
        flags[boundary_keys % nv] = True
        self.boundary_vertex_flags = flags

        interior = np.flatnonzero(~flags)
        if interior.size:
            ends = (np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel())
            adjacency = sp.csr_matrix((np.ones(t.size * 3), ends), shape=(nv, nv))
            adjacency = adjacency[interior][:, interior]
            order = csgraph.reverse_cuthill_mckee(adjacency, symmetric_mode=True)
            interior = interior[order]
        self.interior_indices = interior
        self.cell_width = None

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_interior(self):
        return len(self.interior_indices)


def unit_square_mesh(n):
    """Structured triangulation of (0,1)^2 with n subdivisions per side.

    Vertices are ordered lexicographically by (y, x); each grid cell is split
    along the diagonal from its lower-left to its upper-right corner, giving
    2 n^2 congruent right triangles with counterclockwise orientation.
    """
    if int(n) != n or n < 1:
        raise MeshError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    side = np.arange(n + 1) / n
    X, Y = np.meshgrid(side, side)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.meshgrid(np.arange(n), np.arange(n))
    v00 = (j * (n + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.concatenate([np.stack([lower, upper], axis=1).reshape(-1, 3)])

    tri = Triangulation(vertices, triangles)
    tri.cell_width = 1.0 / n
    return tri


class TimePartition:
    """The M equal slabs of [0, 1], the partitions of the paper's tests.

    Attributes
    ----------
    points : (M+1,) array i/M; the endpoints are exact in floating point
    k : float, the one step 1/M of every slab
    num_steps : int, M
    """

    def __init__(self, num_steps):
        if int(num_steps) != num_steps or num_steps < 1:
            raise MeshError(f"step count must be a positive integer, got {num_steps!r}")
        self.num_steps = int(num_steps)
        self.points = np.arange(self.num_steps + 1) / self.num_steps
        self.k = 1.0 / self.num_steps


def uniform_time_partition(num_steps):
    """The ``TimePartition`` of ``num_steps`` equal slabs on [0, 1]."""
    return TimePartition(num_steps)


class SpaceTimeMesh:
    """Prismatic product of a triangulation and a time partition.

    ``sigma = sqrt(width^2 + k^2)`` combines the spatial cell width 1/n of a
    ``unit_square_mesh`` with the time step k; it is the single
    discretization parameter of the control space.  A triangulation without
    a cell width raises ``MeshError``.
    """

    def __init__(self, triangulation, time_partition):
        width = triangulation.cell_width
        if width is None:
            raise MeshError(
                "a space-time mesh needs a triangulation with a cell width"
            )
        self.triangulation = triangulation
        self.time_partition = time_partition
        self.width = width
        self.sigma = float(np.hypot(width, time_partition.k))
        ratio = time_partition.k / width
        if not 0.25 <= ratio <= 4.0:
            log.warning(
                "skewed prisms: k/h = %.3g outside [0.25, 4]; error constants "
                "may degrade",
                ratio,
            )

    @property
    def num_slabs(self):
        return self.time_partition.num_steps

    @property
    def num_nodes(self):
        return self.triangulation.num_vertices

    @property
    def num_interior(self):
        return self.triangulation.num_interior

    @property
    def num_control_levels(self):
        """Interior time levels t_1 .. t_{M-1} carrying control DOFs."""
        return self.time_partition.num_steps - 1

