"""Forward (state) solver.

The dG(0)-in-time discretization decouples into one backward-Euler-type slab
system per step: (M + k_m S) w_m = M w_{m-1} + F_m - C_m(q), with w_0 the L2
projection of the initial datum.  ``Discretization.slab_solver`` hands out
one cached ``SlabSystem`` per step size, holding the slab matrix and its
band Cholesky factor, so repeated solves on the same mesh cost one band
solve and one residual check per slab.  The largest residual checked is
kept on the discretization as ``max_slab_residual``.
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


def _checked_solve(disc, k, rhs, slab):
    system = disc.slab_solver(k)
    x = system.solve(rhs)
    scale = np.linalg.norm(rhs) + 1.0
    residual = np.linalg.norm(system.matrix @ x - rhs) / scale
    if not residual <= _RESIDUAL_TOL:
        raise SolverError(slab, residual)
    disc.max_slab_residual = max(disc.max_slab_residual, float(residual))
    return x


def sweep_forward(disc, slab_rhs, w0=None):
    """March the slab systems forward.

    slab_rhs has shape (M, ni) and already contains source minus coupling;
    returns the (M, ni) coefficient array."""
    mesh = disc.mesh
    steps = mesh.time_partition.steps
    out = np.empty((mesh.num_slabs, mesh.num_interior))
    prev = np.zeros(mesh.num_interior) if w0 is None else w0
    for m in range(mesh.num_slabs):
        rhs = disc.mass_ii @ prev + slab_rhs[m]
        out[m] = _checked_solve(disc, steps[m], rhs, m + 1)
        prev = out[m]
    return out


def solve_state(disc, f=None, u0=None, control=None):
    """Solve the state equation for source f, initial datum u0 and boundary
    control q; returns the zero-trace part w as a StateField.

    The full discrete state is w + q; evaluate it by adding the control."""
    rhs = disc.source_slabs(disc.time_loads(f))
    if control is not None:
        rhs = rhs - disc.coupling_all(control.values)
    w0 = disc.project_initial(u0)
    return StateField(disc.mesh, sweep_forward(disc, rhs, w0))


def solve_state_sensitivity(disc, delta_control):
    """Derivative of the state map: zero data, control perturbation only."""
    rhs = -disc.coupling_all(delta_control.values)
    return StateField(disc.mesh, sweep_forward(disc, rhs))
