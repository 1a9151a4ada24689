"""Independent oracles for the solver, built from the package's pieces.

The solver reaches the state, the adjoint and the gradient only through the
trace-space ``ReducedProblem``, whose set-up and Hessian action run one
composition on the movable vertices.  The functions here take the other
road, on all vertices: ``solve_state`` and ``solve_adjoint`` are whole
forward and backward solves from the data, and ``full_gradient`` the
gradient on all prismatic control DOFs from those two solves, so tests can
check the trace path against them.  ``extend_direction`` and
``full_hessian`` take that road for the trace Hessian action: the
homogeneous extension by the whole extension solve, and the Hessian action
on all prismatic control DOFs.  ``restrict_gradient``, the transpose of
``extend_direction``, takes a gradient on all control DOFs to the trace by
the same whole solve.  The gradient and the Hessian are composed from the
helpers that act on all vertices: ``coupling_all``, ``coupling_transpose``
and ``tracking_slabs`` of the package, and ``pair_state_control`` and
``control_mass`` here, the pairing of a state-type field with the control
basis and the control's space-time L2 mass.  The three package helpers pass
the products of all vertices through ``Discretization``'s coupling rules
(``control_loads``, ``pair_hats`` and ``tracking_loads``), which the trace
action and set-up share, so an agreement of the two roads cannot see a
wrong rule; each rule is checked against a form that does not use it by
``test_coupling_matches_quadrature``,
``test_coupling_transpose_is_exact_adjoint`` and
``test_tracking_slabs_match_midpoint_mass_oracle``.  ``pair_state_control``
and ``control_mass`` keep their own formulas, the time steps and
``time_mass_stiffness``.
``TRI_RULE_8`` is a higher-degree triangle rule for reference integrals,
``whole_boundary`` the control boundary predicate that selects every
boundary vertex, and ``zero_data`` and ``zero_control`` the zero source,
target or shift and the zero control.
``per_time_state_error``, ``per_time_adjoint_error``,
``per_time_control_error`` and ``per_time_misfit`` are the error norms and
the tracking misfit integrated one Gauss time at a time over the whole
mesh, with one ``np.vdot`` per Gauss time, so tests can check the blocks
of ``Quadrature.integrate`` against them; ``interpolate`` gives them a P1
field at the points of every triangle.
``triangle_ranges`` gives the range of triangles of each slice of a
``Quadrature``.
``dtbsv`` calls the GIL-free BLAS kernel, the only band substitution in
``dbc`` (``EnergyExtension`` and ``SlabSystem`` both use it), on a whole
band, so tests can check that kernel against scipy's.
"""

import ctypes

import numpy as np

from dbc import assembly, kernels
from dbc.adjoint import sweep_backward, tracking_slabs
from dbc.forward import sweep_forward
from dbc.spaces import (
    AdjointField,
    ControlField,
    StateField,
    interpolate_control,
    pad_levels,
)


def zero_data(x, y, t):
    return 0.0


def zero_control(mesh):
    return ControlField(mesh, np.zeros((mesh.num_control_levels, mesh.num_nodes)))


def solve_state(disc, f, u0, control):
    """Solve the state equation for source f, initial datum u0 (None for
    zero) and boundary control q; returns the zero-trace part w as a
    StateField.

    The full discrete state is w + q; evaluate it by adding the control."""
    rhs = disc.source_slabs(disc.time_loads(f)[0]) - disc.coupling_all(control.values)
    w0 = disc.project_initial(u0)
    return StateField(disc.mesh, sweep_forward(disc, rhs, w0))


def solve_adjoint(disc, state, control, u_d):
    """Solve the adjoint equation with tracking data u_kh - u_d."""
    rhs = tracking_slabs(disc, state.values, control.values)
    rhs -= disc.source_slabs(disc.time_loads(u_d)[0])
    return AdjointField(disc.mesh, sweep_backward(disc, rhs))


def pair_state_control(disc, slab_values):
    """L2(space-time) pairing of a state-type field with every control
    basis function; (M, ni) -> (M-1, nv)."""
    wk = disc.mesh.time_partition.steps[:, None] * slab_values
    return 0.5 * (disc.mass_if.T @ (wk[:-1] + wk[1:]).T).T


def control_mass(disc):
    """The space-time L2 mass of the control, kron(Mt, M), with the t_0 and
    t_M levels eliminated, as a ``KroneckerSum``."""
    mesh = disc.mesh
    M = mesh.num_slabs
    tmass, _ = assembly.time_mass_stiffness(mesh.time_partition.points)
    return assembly.KroneckerSum((tmass[1:M, 1:M], disc.mass))


def full_gradient(disc, case, flat):
    """Gradient of the reduced objective of ``case`` on all prismatic control
    DOFs at the control ``flat``, plus the state and adjoint there, from one
    state solve, one adjoint solve and the u_d pairing:

        grad j(q) = lam A (q - q_d) + M_c q + P^T w - C^T z - (u_d, .),

    with P^T the pairing of the state with the control basis and C^T the
    transpose of the control's slab loads."""
    mesh = disc.mesh
    control = ControlField.from_flat(mesh, flat)
    state = solve_state(disc, case.source, case.initial, control)
    adjoint = solve_adjoint(disc, state, control, case.target)
    shifted = control.ravel() - interpolate_control(mesh, case.control_shift).ravel()
    gradient = (
        case.lam * (disc.seminorm @ shifted)
        + control_mass(disc) @ control.ravel()
        + pair_state_control(disc, state.values).ravel()
        - disc.coupling_transpose(adjoint.values).ravel()
        - disc.control_pairing(disc.time_loads(case.target)[0]).ravel()
    )
    return gradient, state.values, adjoint.values


def extend_direction(problem, trace_values):
    """The homogeneous extension E v of ``problem``'s trace unknowns on all
    prismatic control DOFs, by the checked whole extension solve: v on the
    trace, zero on the pinned DOFs, and A_ii q_i = -(A q)_i on the
    interior."""
    q = np.zeros(problem.dim)
    q[problem.trace_indices] = trace_values
    rhs = -(problem.disc.seminorm @ q)[problem.interior_indices]
    q[problem.interior_indices] = problem.extension.solve(rhs).ravel()
    return q


def restrict_gradient(problem, full_grad):
    """Transpose of ``extend_direction``: the trace components of a gradient
    g on all prismatic control DOFs of ``problem``, g_t - A_ti A_ii^-1 g_i
    with A the seminorm, by the checked whole extension solve."""
    lifted = np.zeros(problem.dim)
    interior = problem.interior_indices
    lifted[interior] = problem.extension.solve(full_grad[interior]).ravel()
    trace = problem.trace_indices
    return full_grad[trace] - (problem.disc.seminorm @ lifted)[trace]


def full_hessian(problem, flat):
    """H q on all prismatic control DOFs, composed from the helpers on all
    vertices, one sensitivity and one second-adjoint sweep and one seminorm
    product: lam A q + M_c q + P^T s - C^T z, with s the sensitivity of q
    and z the second adjoint of the tracking load of s + q."""
    disc = problem.disc
    mesh = disc.mesh
    values = flat.reshape(mesh.num_control_levels, mesh.num_nodes)
    sens = sweep_forward(disc, -disc.coupling_all(values))
    second = sweep_backward(disc, tracking_slabs(disc, sens, values))
    return (
        problem.lam * (disc.seminorm @ flat)
        + control_mass(disc) @ flat
        + pair_state_control(disc, sens).ravel()
        - disc.coupling_transpose(second).ravel()
    )


def per_time_integral(disc, integrand):
    """Space-time integral of ``integrand(m, j, t, x, y)``, the values,
    (nq, nt), at every point (x, y) at the j-th Gauss time t of slab m: one
    ``np.vdot`` with the weights per Gauss time, added by
    ``Quadrature.time_sum``.  ``disc.quad`` keeps its points and weights
    only slice by slice, so the whole-mesh ones are made here, as
    ``Quadrature`` makes them."""
    quad = disc.quad
    tri = disc.mesh.triangulation
    bary, rule_weights = assembly._TRI_RULE_4
    assert np.array_equal(quad.bary, bary)
    x, y = quad.at_points(tri.vertices[tri.triangles].T)
    weights = np.outer(rule_weights, tri.signed_areas)
    sums = [
        np.vdot(weights, integrand(m, j, t, x, y))
        for (m, j), t in np.ndenumerate(quad.times)
    ]
    return quad.time_sum(sums)


def interpolate(quad, nodal):
    """Values at the points of ``quad`` of the P1 field with vertex values
    ``nodal``; (nq, nt)."""
    return quad.at_points(nodal[quad.triangles].T)


def _gradient(disc, nodal):
    """Per-triangle gradient (d/dx, d/dy) of a P1 field; each (nt,)."""
    tri = disc.mesh.triangulation
    grads = assembly.triangle_geometry(tri)[0]
    return np.einsum("ti,tid->dt", nodal[tri.triangles], grads)


def _per_time_gradient_error(disc, grad_exact, slab_full, control_pad):
    q = disc.quad

    def squared_error(m, j, t, x, y):
        lo, hi = q.lo[m, j], q.hi[m, j]
        nodal = slab_full[m] + lo * control_pad[m] + hi * control_pad[m + 1]
        gx, gy = _gradient(disc, nodal)
        ex, ey = grad_exact(x, y, t)
        return (ex - gx) ** 2 + (ey - gy) ** 2

    return np.sqrt(per_time_integral(disc, squared_error))


def per_time_state_error(disc, case, state, control):
    """``energy_error_state`` one Gauss time at a time."""
    return _per_time_gradient_error(
        disc, case.state_grad, state.full_values(), pad_levels(control.values)
    )


def per_time_adjoint_error(disc, case, adjoint):
    """``energy_error_adjoint`` one Gauss time at a time."""
    full = adjoint.full_values()
    return _per_time_gradient_error(
        disc, case.adjoint_grad, full, np.zeros((len(full) + 1, full.shape[1]))
    )


def per_time_control_error(disc, case, control):
    """``control_error`` one Gauss time at a time."""
    q = disc.quad
    pad = pad_levels(control.values)
    steps = disc.mesh.time_partition.steps

    def squared_error(m, j, t, x, y):
        dt_err = case.control_t(x, y, t) - interpolate(
            q, (pad[m + 1] - pad[m]) / steps[m]
        )
        gx, gy = _gradient(disc, q.lo[m, j] * pad[m] + q.hi[m, j] * pad[m + 1])
        ex, ey = case.control_grad(x, y, t)
        return dt_err**2 + (ex - gx) ** 2 + (ey - gy) ** 2

    return np.sqrt(per_time_integral(disc, squared_error))


def per_time_misfit(disc, state_values, control_values, u_d):
    """``Discretization.misfit_quadrature`` one Gauss time at a time."""
    q = disc.quad
    full = np.zeros((disc.mesh.num_slabs, disc.mesh.num_nodes))
    full[:, disc.interior] = state_values
    pad = pad_levels(control_values)

    def squared_misfit(m, j, t, x, y):
        nodal = full[m] + q.lo[m, j] * pad[m] + q.hi[m, j] * pad[m + 1]
        diff = interpolate(q, nodal) - u_d(x, y, t)
        return diff * diff

    return per_time_integral(disc, squared_misfit)


def whole_boundary(x, y):
    """Select every boundary vertex as a control vertex."""
    return np.ones(x.shape, dtype=bool)


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


def dtbsv(band, x, trans=False):
    """x <- U^-1 x, or U^-T x with ``trans``, in place, for the upper band
    ``band`` of U, (kd + 1, n) float64 in Fortran order, and x float64 and
    contiguous of length n (BLAS dtbsv through ``kernels._DTBSV``)."""
    kd1, n = band.shape
    a = kernels._address(band, (kd1, n), "F")
    kernels._DTBSV(
        b"U", b"T" if trans else b"N", b"N", ctypes.c_int(n),
        ctypes.c_int(kd1 - 1), a, ctypes.c_int(kd1),
        kernels._address(x, (n,), "C"), ctypes.c_int(1),
    )
    return x


def triangle_ranges(quad):
    """The range of triangles of each of ``quad.slices``, which cut the
    triangles in order; each range is checked against its slice's corners."""
    ranges = []
    start = 0
    for part in quad.slices:
        cells = slice(start, start + part.x.shape[1])
        assert np.array_equal(part.corners, quad.triangles[cells].T)
        ranges.append(cells)
        start = cells.stop
    assert start == len(quad.triangles)
    return ranges
