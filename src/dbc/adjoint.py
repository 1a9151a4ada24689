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
    """Slab loads int_{I_m} (w + q, phi_i); (M, ni).  The tracking load of
    the adjoint subtracts those of u_d, ``source_slabs`` of its
    ``time_loads``.  No solve path calls it: the trace Hessian action and
    set-up make these loads on the movable vertices alone, and it stays as
    the all-vertex reference that the tests compose."""
    k = disc.mesh.time_partition.steps
    out = k[:, None] * (disc.mass_ii @ state_values.T).T
    pad = pad_levels(control_values)
    out += 0.5 * k[:, None] * (disc.mass_if @ (pad[:-1] + pad[1:]).T).T
    return out


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
    k = mesh.time_partition.steps
    inner = float(
        np.sum(k[:, None] * g * (disc.mass_ii @ s.values.T).T)
    )
    z = sweep_backward(disc, k[:, None] * (disc.mass_ii @ g.T).T)
    pairing = float(np.sum(disc.coupling_all(dq.values) * z))
    return abs(inner + pairing)
