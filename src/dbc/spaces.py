"""Discrete fields on a space-time mesh.

State and adjoint live in the piecewise-constant-in-time, P1-in-space test
space with zero trace on the spatial boundary: one coefficient vector per
slab, indexed by interior vertices.  The control lives in the space of
prismatic multilinear functions (P1 in time times P1 in space) that vanish at
t = 0 and t = T: one coefficient vector per interior time level, indexed by
all vertices.  Box constraints apply only to control DOFs sitting on the
spatial boundary.
"""

from __future__ import annotations

import numpy as np


class FieldShapeError(ValueError):
    """Coefficient array does not match the mesh."""


def _coefficients(kind, values, shape):
    """``values`` as a float array of ``shape``."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise FieldShapeError(
            f"{kind} values must have shape {shape}, got {values.shape}"
        )
    return values


class StateField:
    """dG(0) x P1 field with homogeneous Dirichlet data.

    ``values[m]`` holds the interior-vertex coefficients on slab
    I_{m+1} = (t_m, t_{m+1}], in the band order of the mesh's
    ``interior_indices``, which the slab factors share; boundary vertices
    are implicitly zero.
    """

    def __init__(self, mesh, values):
        self.mesh = mesh
        shape = (mesh.num_slabs, mesh.num_interior)
        self.values = _coefficients("state", values, shape)

    def full_values(self):
        """Coefficients on all vertices, zeros on the boundary; shape (M, nv)."""
        full = np.zeros((self.mesh.num_slabs, self.mesh.num_nodes))
        full[:, self.mesh.triangulation.interior_indices] = self.values
        return full


class AdjointField(StateField):
    """Same layout as StateField; runs backward in time, with the value past
    the final slab implicitly zero."""


class ControlField:
    """Multilinear prismatic field, zero at the initial and final time.

    ``values[l]`` holds the all-vertex coefficients at level t_{l+1},
    l = 0 .. M-2.  ``ravel()`` flattens level-major, matching the Kronecker
    ordering of the control operators.
    """

    def __init__(self, mesh, values):
        self.mesh = mesh
        shape = (mesh.num_control_levels, mesh.num_nodes)
        self.values = _coefficients("control", values, shape)

    def ravel(self):
        return self.values.ravel()

    @classmethod
    def from_flat(cls, mesh, flat):
        flat = np.asarray(flat, dtype=float)
        return cls(mesh, flat.reshape(mesh.num_control_levels, mesh.num_nodes))


def pad_levels(values):
    """Control level coefficients, (M-1, nv), with the zero rows at t_0 and
    t_M added; (M+1, nv)."""
    padded = np.zeros((len(values) + 2, values.shape[1]))
    padded[1:-1] = values
    return padded


def interpolate_control(mesh, g):
    """Nodal interpolant of g(x, y, t) in the control space.

    g must accept numpy arrays for x and y and a scalar t.  Values at t = 0
    and t = T are dropped (the space vanishes there).
    """
    xy = mesh.triangulation.vertices
    levels = mesh.time_partition.points[1:-1]
    values = np.empty((len(levels), mesh.num_nodes))
    for l, t in enumerate(levels):
        values[l] = np.broadcast_to(
            np.asarray(g(xy[:, 0], xy[:, 1], t), dtype=float), (mesh.num_nodes,)
        )
    return ControlField(mesh, values)


class BoundSet:
    """Admissible set for the control: box constraints on the control
    portion of the lateral boundary, homogeneous values on the rest.

    Only the boundary vertices that the ``control_nodes`` predicate,
    (x, y) -> bool mask, selects are box-constrained; the remaining
    boundary vertices are held at zero (they belong to the
    homogeneous-trace part of the admissible set).  Interior-vertex control
    DOFs are never constrained.  Requires lower <= 0 <= upper so the zero
    control is admissible.
    """

    def __init__(self, mesh, lower, upper, control_nodes):
        lower = float(lower)
        upper = float(upper)
        if not lower <= 0.0 <= upper:
            raise ValueError(
                f"bounds must satisfy lower <= 0 <= upper, got [{lower}, {upper}]"
            )
        self.mesh = mesh
        self.lower = lower
        self.upper = upper
        tri = mesh.triangulation
        x, y = tri.vertices[:, 0], tri.vertices[:, 1]
        boxed = tri.boundary_vertex_flags & np.asarray(
            control_nodes(x, y), dtype=bool
        )
        levels = mesh.num_control_levels
        self.boxed_vertices = np.flatnonzero(boxed)
        self.mask = np.tile(boxed, (levels, 1))
        self.constrained_indices = np.flatnonzero(self.mask.ravel())
