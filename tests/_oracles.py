"""Independent oracles for the solver, built from the package's pieces.

The solver reaches the state, the adjoint and the gradient only through the
trace-space ``ReducedProblem``.  The functions here take the other road: a
whole forward or backward solve from the data, and the gradient on all
prismatic control DOFs, so tests can check the trace path against them.
``TRI_RULE_8`` is a higher-degree triangle rule for reference integrals.
"""

import numpy as np

from dbc.adjoint import sweep_backward, tracking_slabs
from dbc.forward import sweep_forward
from dbc.spaces import AdjointField, StateField


def solve_state(disc, f=None, u0=None, control=None):
    """Solve the state equation for source f, initial datum u0 and boundary
    control q; returns the zero-trace part w as a StateField.

    The full discrete state is w + q; evaluate it by adding the control."""
    rhs = disc.source_slabs(disc.time_loads(f))
    if control is not None:
        rhs = rhs - disc.coupling_all(control.values)
    w0 = disc.project_initial(u0)
    return StateField(disc.mesh, sweep_forward(disc, rhs, w0))


def solve_adjoint(disc, state, control=None, u_d=None):
    """Solve the adjoint equation with tracking data u_kh - u_d."""
    cv = control.values if control is not None else None
    rhs = tracking_slabs(disc, state.values, cv, u_d)
    return AdjointField(disc.mesh, sweep_backward(disc, rhs))


def full_gradient(problem, flat):
    """Gradient of the reduced objective on all prismatic control DOFs,
    grad j(q) = H q - b, plus the state and adjoint at q."""
    hq, sens, second = problem.hessian_apply(flat, want_fields=True)
    return hq - problem.b, problem.state_base + sens, problem.adjoint_base + second


def collapsed_triangle_rule(points_per_axis):
    """Tensor-product Gauss rule collapsed onto the reference triangle.

    The square-to-triangle map (u, v) -> (u(1-v), v) with Jacobian (1-v)
    turns an n x n Gauss grid into a triangle rule exact for total degree
    2n - 2: the map raises the v-degree of a monomial by at most one plus
    the Jacobian.  Nodes and weights derive from leggauss, so the rule is
    accurate to rounding rather than to transcribed-table precision.
    Weights are normalized to sum to one (multiply by the element area).
    """
    x, w = np.polynomial.legendre.leggauss(points_per_axis)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u)
    WU, WV = np.meshgrid(wu, wu)
    lam2 = (U * (1.0 - V)).ravel()
    lam3 = V.ravel()
    bary = np.column_stack([1.0 - lam2 - lam3, lam2, lam3])
    weights = 2.0 * (WU * WV * (1.0 - V)).ravel()
    return bary, weights


# 25-point rule, exact to degree 8.
TRI_RULE_8 = collapsed_triangle_rule(5)
