"""Adjoint (backward) solver and the discrete duality identity.

The adjoint of the dG(0) state discretization marches the same slab system
backward: (M + k S) z_m = M z_{m+1} + G_m with z_{M+1} = 0 and tracking
load G_m = int_{I_m} (u_kh - u_d, phi_i), u_kh = w + q.  Because the slab
matrix is symmetric, the backward sweep is the exact transpose of the
forward sweep, which is what the identity check exercises.  Both sweeps are
``forward.march``, in opposite directions, so they share its band order and
its residual check.
"""

from __future__ import annotations

import numpy as np

from .forward import march, solve_state_sensitivity
from .spaces import ControlField, pad_levels


def sweep_backward(disc, slab_rhs):
    """March the slabs backward; slab_rhs has shape (M, ni)."""
    return march(disc, slab_rhs, reverse=True)


def tracking_slabs(disc, state_values, control_values):
    """Slab loads int_{I_m} (w + q, phi_i); (M, ni): ``tracking_loads`` of
    the products of all vertices.  The adjoint's tracking load subtracts
    those of u_d.  No solve path calls it: it stays as the all-vertex
    reference that the tests compose."""
    mass_q = pad_levels((disc.mass_if @ control_values.T).T)
    mass_w = (disc.mass_ii @ state_values.T).T
    return disc.tracking_loads(mass_q[:-1] + mass_q[1:], mass_w)


def adjoint_identity_check(disc, seed):
    """Discrepancy of the forward/backward duality for random data.

    Draws a control perturbation dq and a state-type tracking field g, and
    returns |<s, g>_I + sum_m C_m(dq)^T z_m| where s is the state sensitivity
    of dq and z the backward sweep of g's tracking load.  Exact transposition
    makes this vanish to rounding."""
    rng = np.random.default_rng(seed)
    mesh = disc.mesh
    dq = ControlField(
        mesh, rng.standard_normal((mesh.num_control_levels, mesh.num_nodes))
    )
    g = rng.standard_normal((mesh.num_slabs, mesh.num_interior))

    s = solve_state_sensitivity(disc, dq)
    load = tracking_slabs(disc, g, np.zeros_like(dq.values))
    inner = float(np.sum(load * s.values))
    z = sweep_backward(disc, load)
    pairing = float(np.sum(disc.coupling_all(dq.values) * z))
    return abs(inner + pairing)
