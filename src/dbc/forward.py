"""Forward (state) solver, and the slab march shared with the adjoint.

The dG(0)-in-time discretization decouples into one backward-Euler-type slab
system per step: (M + k S) w_m = M w_{m-1} + F_m - C_m(q), with w_0 the L2
projection of the initial datum.  The slabs are equal, so every slab has
the same system: the slab matrix and its band Cholesky factor, one
``SlabSystem`` that ``Discretization`` builds with the rest of the time
discretization, C_m(q) among it, and that ``slab_solver`` hands out.

``march`` runs the slabs in either direction.  Its arrays are in the
band order of the mesh's ``interior_indices``, the order in which the slab
factor is made, so it permutes nothing: it copies the right-hand sides
into the sweep buffers and solves each slab in place in its row.  Every
slab solve is checked after the march, with one sparse product for the
whole sweep; the first slab in march order whose relative residual
exceeds ``RESIDUAL_TOL`` raises ``SolverError``.  The largest residual
checked is kept on the discretization as ``max_slab_residual``.
"""

from __future__ import annotations

import numpy as np

from .spaces import StateField

# Relative residual that each slab solve, as ||A x - b|| / (||b|| + 1), and
# each extension solve, as ||A x - b|| / ||b||, must meet.
RESIDUAL_TOL = 1e-12


class SolverError(RuntimeError):
    """Linear solver failure: of the solve on slab ``slab``, or of an
    extension solve when ``slab`` is None, whose residual is then largest
    in time mode ``mode`` (None for a slab solve), and ``residual`` the
    larger of the solve's relative residual and that mode's own."""

    def __init__(self, slab, residual, mode):
        if slab is None:
            solve = f"extension solve failed in time mode {mode}"
        else:
            solve = f"slab {slab} solve failed"
        super().__init__(
            f"{solve}: relative residual {residual:.3e} "
            f"exceeds {RESIDUAL_TOL:.0e}"
        )
        self.slab = slab
        self.residual = residual


def march(disc, slab_rhs, start=None, reverse=False):
    """Solve K x_m = M x_prev + slab_rhs[m] slab by slab, from slab 1 with
    x_prev = start (zero for None), or from slab M backward when
    ``reverse``; returns the (M, ni) array x."""
    slabs = np.arange(disc.mesh.num_slabs)[:: -1 if reverse else 1]
    rhs, x, xt = disc.sweep_buffers
    np.copyto(rhs, slab_rhs)
    prev = start
    for m in slabs:
        system = disc.slab_solver()
        if prev is not None:
            rhs[m] += disc.mass_ii @ prev
        x[m] = rhs[m]
        system.solve_in_place(x[m])
        prev = x[m]
    np.copyto(xt, x.T)
    _check_residuals(disc, system, rhs, xt, slabs)
    return x.copy()


def _check_residuals(disc, system, rhs, xt, slabs):
    """Relative residual ||K x_m - b_m|| / (||b_m|| + 1) of every slab, with
    K the matrix of ``system``, b_m the rows of ``rhs`` and x_m the columns
    of ``xt``, by one sparse product; raises ``SolverError`` for the first
    slab in march order ``slabs`` above the tolerance."""
    defect = system.matrix @ xt
    defect -= rhs.T
    residual = np.sqrt(np.einsum("ij,ij->j", defect, defect)) / (
        np.sqrt(np.einsum("ij,ij->i", rhs, rhs)) + 1.0
    )
    marched = residual[slabs]
    failed = np.flatnonzero(~(marched <= RESIDUAL_TOL))
    if failed.size:
        marched = marched[: failed[0]]
    disc.max_slab_residual = float(marched.max(initial=disc.max_slab_residual))
    if failed.size:
        slab = int(slabs[failed[0]])
        raise SolverError(slab + 1, float(residual[slab]), None)


def sweep_forward(disc, slab_rhs, w0=None):
    """March the slabs forward.

    slab_rhs has shape (M, ni) and already contains source minus coupling;
    returns the (M, ni) coefficient array."""
    return march(disc, slab_rhs, w0)


def solve_state_sensitivity(disc, delta_control):
    """Derivative of the state map: zero data, control perturbation only."""
    rhs = -disc.coupling_all(delta_control.values)
    return StateField(disc.mesh, sweep_forward(disc, rhs))
