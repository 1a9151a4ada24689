"""Forward (state) solver, and the slab march shared with the adjoint.

The dG(0)-in-time discretization decouples into one backward-Euler-type slab
system per step: (M + k_m S) w_m = M w_{m-1} + F_m - C_m(q), with w_0 the L2
projection of the initial datum.  ``Discretization.slab_solver`` hands out
one cached ``SlabSystem`` per step size, holding the slab matrix and its
band Cholesky factor.

``march`` runs the slabs in either direction.  Its arrays are in the
band order of the mesh's ``interior_indices``, the order in which the slab
factors are made, so it permutes nothing: it copies the right-hand sides
into the sweep buffers and solves each slab in place in its row.  Every
slab solve is checked after the march, with one sparse product per
distinct slab system; the first slab in march order whose relative
residual exceeds the tolerance raises ``SolverError``.  The largest
residual checked is kept on the discretization as ``max_slab_residual``.
"""

from __future__ import annotations

import numpy as np

from .spaces import StateField

# Relative residual each slab solve must meet.
_RESIDUAL_TOL = 1e-12


class SolverError(RuntimeError):
    """Linear solver failure on one slab."""

    def __init__(self, slab, residual):
        super().__init__(
            f"slab {slab} solve failed: relative residual {residual:.3e} "
            f"exceeds {_RESIDUAL_TOL:.0e}"
        )
        self.slab = slab
        self.residual = residual


def march(disc, slab_rhs, start=None, reverse=False):
    """Solve K_m x_m = M x_prev + slab_rhs[m] slab by slab, from slab 1 with
    x_prev = start (zero for None), or from slab M backward when
    ``reverse``; returns the (M, ni) array x."""
    steps = disc.mesh.time_partition.steps
    slabs = np.arange(len(steps))
    if reverse:
        slabs = slabs[::-1]
    rhs, x, xt = disc.sweep_buffers()
    np.copyto(rhs, slab_rhs)
    users = {}
    prev = start
    for m in slabs:
        system = disc.slab_solver(steps[m])
        users.setdefault(system, []).append(m)
        if prev is not None:
            rhs[m] += disc.mass_ii @ prev
        x[m] = rhs[m]
        system.solve_in_place(x[m])
        prev = x[m]
    np.copyto(xt, x.T)
    _check_residuals(disc, users, rhs, xt, slabs)
    return x.copy()


def _check_residuals(disc, users, rhs, xt, slabs):
    """Relative residual ||K_m x_m - b_m|| / (||b_m|| + 1) of every slab,
    with b_m the rows of ``rhs`` and x_m the columns of ``xt``, by one
    sparse product per slab system in ``users``; raises ``SolverError`` for
    the first slab in march order ``slabs`` above the tolerance."""
    residual = np.empty(len(slabs))
    for system, mine in users.items():
        if len(mine) == len(slabs):
            # A uniform partition has one system; a slice indexes without
            # copying the buffers.
            mine = slice(None)
        b = rhs[mine]
        defect = system.matrix @ xt[:, mine]
        defect -= b.T
        residual[mine] = np.sqrt(np.einsum("ij,ij->j", defect, defect)) / (
            np.sqrt(np.einsum("ij,ij->i", b, b)) + 1.0
        )
    marched = residual[slabs]
    failed = np.flatnonzero(~(marched <= _RESIDUAL_TOL))
    if failed.size:
        marched = marched[: failed[0]]
    disc.max_slab_residual = float(marched.max(initial=disc.max_slab_residual))
    if failed.size:
        slab = int(slabs[failed[0]])
        raise SolverError(slab + 1, float(residual[slab]))


def sweep_forward(disc, slab_rhs, w0=None):
    """March the slab systems forward.

    slab_rhs has shape (M, ni) and already contains source minus coupling;
    returns the (M, ni) coefficient array."""
    return march(disc, slab_rhs, w0)


def solve_state_sensitivity(disc, delta_control):
    """Derivative of the state map: zero data, control perturbation only."""
    rhs = -disc.coupling_all(delta_control.values)
    return StateField(disc.mesh, sweep_forward(disc, rhs))
