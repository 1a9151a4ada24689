"""Reduced-space optimization: gradient, Hessian action, and the
primal-dual active set (PDAS) solver for box-constrained boundary control.

The reduced objective is j(q) = 1/2 ||u(q) - u_d||^2 + lam/2 |q - q_d|_1^2
with u(q) = w(q) + q the affine discrete state map.  The optimization
unknowns are the control's boundary-trace DOFs.  The interior-vertex DOFs
carry no constraint and follow the trace through the minimal-seminorm
extension about q_d, so the solver solves the variational inequality
restricted to that extension subspace.  That is not the problem over all
prismatic control DOFs: the discrete state w + q is dG(0) in time in w but
cG(1) in q, so the interior values of q reach the misfit, and at the
optimum the full-space gradient does not vanish on them.  On the bump
study it is 1.5e-4, 1.6e-5, 8.2e-7 and 4.9e-8 at 4x4, 8x6, 16x12 and 32x23,
faster than h^2, so the restricted problem is consistent.  (Optimizing over
all prismatic DOFs instead lets the interior act as a nearly free
distributed control at lam = 1e-3, and the control error loses its rate.)

The restriction leaves a dense-free quadratic in the trace values q = E v +
anchor, with grad j = H v - b constant-shifted, which the PDAS loop
exploits.  A trace Hessian action E^T H E v runs on the interior and boxed
vertices only, where E v can be nonzero: it restricts the tracking part of
H E v and adds lam E^T A E v, which it reads from the trace rows of A E v,
made from the action's own spatial products, so it makes no space-time
seminorm product.  The extension makes every interior row of A E v zero, so
those rows check the action's extension solve.  Set-up makes b, and the
state and adjoint at the anchor, by the same composition with the data
added.  It couples the dG(0)-in-time state and adjoint to the cG(1) control
by the rules of ``Discretization``, written once there (the
discretize-then-optimize structure of Meidner & Vexler, SIAM J. Control
Optim. 47, 2008).  Each outer iteration solves the inactive set by CG,
preconditioned by the diagonal of lam * seminorm (restricted to the
trace), and CG sums the Hessian actions it makes into the change of H v.
So H v is carried from one outer iteration to the next: an iteration makes
a Hessian action of its own only when its clamp moves a DOF, and the
returning one makes a last, fresh action for the state and adjoint.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .adjoint import sweep_backward
from .assembly import EnergyExtension
from .forward import sweep_forward
from .kernels import AssemblyError
from .spaces import (
    AdjointField,
    ControlField,
    StateField,
    interpolate_control,
    pad_levels,
)

log = logging.getLogger("dbc.optimizer")


class CGBreakdownError(RuntimeError):
    """Conjugate gradients lost positive definiteness or stalled."""

    def __init__(self, message, iterations):
        super().__init__(f"{message} (after {iterations} CG iterations)")
        self.iterations = iterations


class PdasNonconvergence(RuntimeError):
    """Active sets failed to settle within the outer iteration budget."""

    def __init__(self, diagnostics):
        super().__init__(
            f"PDAS did not converge in {diagnostics.outer_iterations} outer "
            f"iterations (stationarity {diagnostics.stationarity:.3e}, "
            f"complementarity {diagnostics.complementarity:.3e})"
        )
        self.diagnostics = diagnostics


@dataclass
class KKTDiagnostics:
    """Residuals of the discrete optimality system at the returned control.

    All residuals are nonnegative maxima over DOFs: stationarity over the
    inactive DOFs, complementarity as the wrong-sign multiplier magnitude on
    the active sets, infeasibility as the bound violation.
    ``max_slab_residual`` is the largest relative residual of a slab solve
    on the problem's discretization, set-up included, and
    ``max_extension_residual`` that of a checked extension solve: the
    anchor's, every trace Hessian action's and the returned control's."""

    stationarity: float
    complementarity: float
    infeasibility: float
    num_lower_active: int
    num_upper_active: int
    outer_iterations: int
    cg_iterations: int
    max_slab_residual: float
    max_extension_residual: float
    objective_history: list

    def as_dict(self):
        return asdict(self)


@dataclass
class PdasResult:
    control: ControlField
    adjoint: AdjointField
    state: StateField
    diagnostics: KKTDiagnostics


class ReducedProblem:
    """Precomputed reduced problem on one discretization, in the trace
    unknowns that ``pdas_solve`` optimizes.

    Boundary vertices outside the control boundary are pinned to zero,
    interior vertices follow the trace through the minimal-seminorm
    extension anchored at q_d, and the optimization runs in the remaining
    trace unknowns v with q = extend(v).  ``trace_dim``, ``trace_b`` and
    ``trace_hessian`` describe that quadratic.  A direction E v is zero on
    the pinned vertices, so ``trace_hessian`` runs on the movable ones
    alone, the interior vertices and then the boxed ones, with the spatial
    mass and stiffness on them, kept from set-up: it extends v by
    ``EnergyExtension.solve_from_tail``, applies the tracking part of the
    Hessian and A by one composition of five sparse products and two
    sweeps, restricts the first by ``solve_to_tail`` and reads lam E^T A E v
    from the boxed columns of the second.  The interior columns of A E v
    are zero by the extension's definition, so they check its solve.
    ``hessian_apply`` is the whole action on all prismatic DOFs: the same
    composition on every vertex, lam A v included.  Its optimum
    solves the variational inequality over the extension subspace only (see
    the module docstring).  ``dim`` stays the full control-space dimension.

    Set-up fixes the quadratic's affine data at ``anchor = extend(0)``.  The
    anchor, like a direction, is zero on the pinned vertices, so set-up runs
    the action's composition on the movable vertices with the data added:
    the source's loads and w0 in the forward sweep give ``state_anchor``,
    the u_d loads in the backward sweep ``adjoint_anchor``, and the tracking
    part, plus lam A (anchor - q_d) and minus the pairing of u_d with the
    control, restricted by ``solve_to_tail``, is minus ``trace_b``.
    ``objective_at_anchor`` is j(anchor) from discrete L2 products and the
    u_d loads (``Discretization.misfit_from_loads``).  f and u_d are each
    evaluated once, by ``time_loads``; data that is not finite raises
    ``AssemblyError``.  Set-up makes the extension first: from the split
    gate of ``dbc.kernels`` up, its mode factors run on the pool while this
    thread evaluates q_d, f, u0 and u_d, and the anchor's extension solve
    waits for them.  ``objective`` stays the independent path: a forward
    sweep and a space-time quadrature of u_d per call.

    The data are the source f(x, y, t), the initial state u0(x, y) (None
    for zero), the target u_d(x, y, t) and the regularizer's shift
    q_d(x, y, t); pass ``lambda x, y, t: 0.0`` for zero f, u_d or q_d."""

    def __init__(self, disc, lam, bounds, f, u0, u_d, q_d):
        if not lam > 0:
            raise ValueError(f"regularization parameter must be positive, got {lam}")
        self.disc = disc
        self.lam = float(lam)
        self.bounds = bounds
        self.u_d = u_d
        mesh = disc.mesh
        levels = mesh.num_control_levels
        self.dim = levels * mesh.num_nodes
        # The pool factors the extension's modes while this thread goes on
        # with the data; the first extension solve, in ``extend``, waits.
        self.extension = EnergyExtension(disc, bounds.boxed_vertices)
        self.q_shift = interpolate_control(mesh, q_d).ravel()
        _check_finite("control shift", self.q_shift, mesh.time_partition.points[1:-1])

        # f and u_d are evaluated here, once each.  f's loads are not kept:
        # held through set-up, they raised a 64x46 solve's peak memory by 3 MiB.
        gauss_times = disc.quad.times.ravel()
        self._source = disc.source_slabs(
            _check_finite("source", disc.time_loads(f)[0], gauss_times)
        )
        self._w0 = _check_finite("initial state", disc.project_initial(u0), [0.0])
        target, target_square = disc.time_loads(u_d)
        _check_finite("target", target, gauss_times)

        # Trace layer: index split, extension solver, anchored affine map.
        self.trace_indices = bounds.constrained_indices
        # Each level's interior DOFs in the order of the extension's arrays.
        levels_start = np.arange(levels)[:, None] * mesh.num_nodes
        self.interior_indices = (levels_start + disc.interior).ravel()
        self.trace_dim = len(self.trace_indices)
        # A direction is zero on the pinned vertices, so a trace Hessian
        # action runs on the spatial matrices of the movable ones: the
        # interior vertices, then the boxed ones.  The extension's right-hand
        # side is minus the seminorm block of the tail rows and the trace
        # columns times v.
        self._movable = np.concatenate([disc.interior, bounds.boxed_vertices])
        self._movable_blocks = disc.vertex_blocks(self._movable)
        self._A_tail_trace = disc.seminorm.block(
            disc.interior[self.extension.tail], bounds.boxed_vertices
        )
        self.anchor = self.extend(np.zeros(self.trace_dim))
        # The anchor, like a direction, is zero on the pinned vertices, so
        # its state, adjoint and tracking gradient come from the action's
        # composition on the movable vertices, with the data added.
        anchor = self.anchor.reshape(levels, mesh.num_nodes)
        data = (self._source, self._w0, disc.source_slabs(target))
        tracking, _, self.state_anchor, self.adjoint_anchor = self._tracking(
            self._movable_blocks, anchor.T[self._movable], data
        )

        # grad j(anchor) on the movable vertices, restricted to the trace.
        shifted = self.anchor - self.q_shift
        seminorm_shifted = disc.seminorm @ shifted
        tracking += self.lam * seminorm_shifted.reshape(anchor.shape)[:, self._movable]
        tracking -= disc.control_pairing(target)[:, self._movable]
        self.trace_b = -self._restrict(tracking)
        misfit = disc.misfit_from_loads(
            self.state_anchor, anchor, target, target_square
        )
        self.objective_at_anchor = 0.5 * misfit + 0.5 * self.lam * float(
            shifted @ seminorm_shifted
        )

    # -- full-space layer ----------------------------------------------------

    def hessian_apply(self, flat):
        """Full-space H v by the composition of ``trace_hessian``, on the
        spatial matrices of all vertices, made for this call and not kept:
        the tracking part plus lam A v from the same products."""
        disc = self.disc
        mesh = disc.mesh
        boundary = np.flatnonzero(mesh.triangulation.boundary_vertex_flags)
        order = np.concatenate([disc.interior, boundary])
        values = flat.reshape(mesh.num_control_levels, mesh.num_nodes)
        blocks = disc.vertex_blocks(order)
        tracking, seminorm = self._tracking(blocks, values.T[order])[:2]
        tracking += self.lam * seminorm
        out = np.empty_like(values)
        out[:, order] = tracking
        return out.ravel()

    def _tracking(self, blocks, columns, data=None):
        """The tracking part of H q, and A q, for a q that is zero off a set
        of vertices: ``blocks`` are the spatial mass and stiffness on those
        vertices, the interior ones first in ``disc.interior`` order, and
        ``columns`` holds q there, (vertices, levels), C-contiguous.

        Five sparse products: M q and S q give the sensitivity's slab loads,
        q's part of the second adjoint's loads, the control mass term and
        A q; M_ii times the sensitivity gives the rest of those loads; M and
        S times the pairings of the sensitivity and the second adjoint,
        zero off the interior, give the rest of the tracking part.  Their
        time coupling is the discretization's Mt, ``control_loads``,
        ``tracking_loads`` and ``pair_hats``.  Returns (tracking, seminorm,
        sens, second): H q's tracking part and A q on the vertices, each
        (levels, vertices), and the two sweeps.

        ``data`` is None for a direction.  Set-up passes the source's slab
        loads, the initial state w0 and the target's slab loads: the source
        joins the forward loads, the march starts from w0 and the target
        leaves the backward loads, so the sweeps give the state and the
        adjoint at q and the tracking part lacks only the target's pairing
        with the control."""
        disc = self.disc
        mass, stiffness = blocks
        ni = disc.mesh.num_interior
        # Each stack is freed after its last use, and the two pairings below
        # share one buffer: held to the end, the stacks raised the peak
        # memory of a 64x46 solve by 2.1 MiB.
        mass_q = pad_levels((mass @ columns).T)
        stiff_q = pad_levels((stiffness @ columns).T)
        seminorm = self._seminorm(mass_q[1:-1], stiff_q[1:-1])
        tracking = disc.time_mass @ mass_q[1:-1]
        loads = disc.control_loads(mass_q[:, :ni], stiff_q[:, :ni])
        del stiff_q
        tracking_loads = mass_q[:-1, :ni] + mass_q[1:, :ni]
        del mass_q
        source, w0, target = data or (None, None, None)
        if source is not None:
            loads += source
        sens = sweep_forward(disc, loads, w0)
        del loads
        disc.tracking_loads(tracking_loads, (disc.mass_ii @ sens.T).T)
        if target is not None:
            tracking_loads -= target
        second = sweep_backward(disc, tracking_loads)
        del tracking_loads
        # The sensitivity's pairing with the control's hats plus the mass
        # part of -C^T of the second adjoint, then the second adjoint's
        # pairing, before their spatial products, in one buffer that is zero
        # off the interior.
        paired = np.zeros_like(tracking)
        pairing = paired[:, :ni]
        work = np.empty_like(sens)
        disc.pair_hats(sens, pairing, work)
        pairing += second[1:]
        pairing -= second[:-1]
        tracking += (mass @ paired.T).T
        disc.pair_hats(second, pairing, work)
        tracking -= (stiffness @ paired.T).T
        return tracking, seminorm, sens, second

    def _seminorm(self, mass_q, stiff_q):
        """A q on a set of vertices from the spatial products M q and S q
        there, each (levels, vertices): Mt (S q) + St (M q)."""
        seminorm = self.disc.time_mass @ stiff_q
        seminorm += self.disc.time_stiffness @ mass_q
        return seminorm

    # -- trace layer -----------------------------------------------------------

    def extend(self, trace_values):
        """Full control vector for trace unknowns v: pinned DOFs zero,
        interior DOFs at the minimal-seminorm extension about q_d."""
        q = np.zeros(self.dim)
        q[self.trace_indices] = trace_values
        offset = q - self.q_shift
        offset[self.interior_indices] = 0.0
        rhs = -(self.disc.seminorm @ offset)[self.interior_indices]
        q[self.interior_indices] = (
            self.q_shift[self.interior_indices]
            + self.extension.solve(rhs).ravel()
        )
        return q

    def _extend_direction(self, trace_values):
        """The homogeneous extension E v (the linear part of ``extend``) on
        the movable vertices, as ``_tracking`` takes it, and its extension
        solve's right-hand side on the tail, level-major."""
        tail_rhs = -(self._A_tail_trace @ trace_values)
        interior = self.extension.solve_from_tail(tail_rhs)
        levels = len(interior)
        columns = np.vstack([interior.T, trace_values.reshape(levels, -1).T])
        return columns, tail_rhs

    def _reduced_seminorm(self, seminorm, tail_rhs):
        """E^T A E v from A E v on the movable vertices: its boxed columns.
        Its interior columns are zero by the extension's definition, so they
        are the residual of the extension solve, which
        ``EnergyExtension.check`` checks first."""
        ni = self.disc.mesh.num_interior
        self.extension.check(seminorm[:, :ni], tail_rhs)
        return seminorm[:, ni:].ravel()

    def _restrict(self, movable):
        """Transpose of the homogeneous extension: the trace components of a
        gradient from its values on the movable vertices, (levels, movable).
        The extension's transpose reads the interior columns and the trace
        term the boxed ones."""
        ni = self.disc.mesh.num_interior
        lifted = self.extension.solve_to_tail(movable[:, :ni])
        return movable[:, ni:].ravel() - self._A_tail_trace.T @ lifted.ravel()

    def trace_hessian(self, trace_values, want_fields=False):
        """Reduced Hessian E^T H E applied to trace unknowns v, on the
        movable vertices alone: ``_tracking`` of E v, restricted by the
        transpose of the extension, plus lam E^T A E v from the same
        products (see ``_reduced_seminorm``), so the action makes no
        seminorm product and checks its extension solve.  With
        ``want_fields`` also the sensitivity and the second adjoint of
        E v."""
        columns, tail_rhs = self._extend_direction(trace_values)
        tracking, seminorm, sens, second = self._tracking(
            self._movable_blocks, columns
        )
        out = self._restrict(tracking)
        out += self.lam * self._reduced_seminorm(seminorm, tail_rhs)
        if want_fields:
            return out, sens, second
        return out

    def trace_seminorm(self, trace_values):
        """E^T A E applied to trace unknowns (the reduced seminorm), from A
        E v on the movable vertices by two sparse products."""
        mass, stiffness = self._movable_blocks
        columns, tail_rhs = self._extend_direction(trace_values)
        seminorm = self._seminorm((mass @ columns).T, (stiffness @ columns).T)
        return self._reduced_seminorm(seminorm, tail_rhs)

    def trace_gradient(self, trace_values):
        """Trace-space grad j(v) = H_t v - b_t, plus the state/adjoint."""
        hv, sens, second = self.trace_hessian(trace_values, want_fields=True)
        return (
            hv - self.trace_b,
            self.state_anchor + sens,
            self.adjoint_anchor + second,
        )

    def objective(self, flat):
        """j(q) by an actual forward solve and space-time quadrature, for the
        full control vector ``flat`` of length ``dim``.

        Deliberately independent of the gradient path so finite-difference
        checks of the gradient test the adjoint, not a shared shortcut."""
        mesh = self.disc.mesh
        values = flat.reshape(mesh.num_control_levels, mesh.num_nodes)
        rhs = self._source - self.disc.coupling_all(values)
        w = sweep_forward(self.disc, rhs, self._w0)
        misfit = self.disc.misfit_quadrature(w, values, self.u_d)
        dq = values.ravel() - self.q_shift
        return 0.5 * misfit + 0.5 * self.lam * float(dq @ (self.disc.seminorm @ dq))

    def _quadratic_objective(self, trace_values, trace_hessian_values):
        return (
            0.5 * float(trace_values @ trace_hessian_values)
            - float(self.trace_b @ trace_values)
            + self.objective_at_anchor
        )


def _check_finite(datum, values, times):
    """``values`` if all are finite, else ``AssemblyError`` naming ``datum``
    and the first of ``times`` at which it is not; ``values`` holds one equal
    block per time, in time order.  The minimum and maximum tell the finite
    case, so it makes no temporary array."""
    if np.isfinite([values.min(initial=0.0), values.max(initial=0.0)]).all():
        return values
    first = np.flatnonzero(~np.isfinite(values))[0]
    t = times[first * len(times) // values.size]
    raise AssemblyError(f"the {datum} is not finite at t = {t:.6g}")


def _kkt_residuals(mu, lower, upper):
    """Stationarity and complementarity of the multiplier estimate ``mu``:
    its largest magnitude on the inactive DOFs, and its largest wrong-sign
    value on the active sets (0 when there is none)."""
    stationarity = float(np.abs(mu[~(lower | upper)]).max(initial=0.0))
    complementarity = max(
        0.0,
        float((-mu[lower]).max(initial=0.0)),
        float(mu[upper].max(initial=0.0)),
    )
    return stationarity, complementarity


def _pcg(apply_op, rows, rhs, precond_diag, target, max_iter):
    """Preconditioned CG from the zero start; returns (x, iterations, product).

    ``apply_op(p)`` gives an operator's whole product, of which the entries
    ``rows`` are the system's; ``product`` is that whole product for x,
    summed from the products of the search directions (0.0 when CG made
    none).  CG stops when the residual norm is at most ``target``, checked
    before the first product too, so a right-hand side already below it
    costs none."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    product = 0.0
    if np.linalg.norm(r) <= target:
        return x, 0, product
    z = r / precond_diag
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        whole = apply_op(p)
        hp = whole[rows]
        php = float(p @ hp)
        if php <= 0.0:
            raise CGBreakdownError("curvature lost positive definiteness", it)
        alpha = rz / php
        x += alpha * p
        r -= alpha * hp
        product = product + alpha * whole
        if np.linalg.norm(r) <= target:
            return x, it, product
        z = r / precond_diag
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    raise CGBreakdownError(
        f"residual {np.linalg.norm(r):.3e} above target {target:.3e}", max_iter
    )


def pdas_solve(problem, tol, q_init=None, max_outer=50):
    """Primal-dual active set solve of the box-constrained reduced problem.

    Every optimization unknown is a box-constrained trace DOF.  The
    multiplier estimate is the trace gradient; a DOF joins the lower/upper
    active set when v - mu/c falls strictly outside the bounds (ties stay
    inactive), with the scale c starting at lam.  Active DOFs are fixed at
    their bound and the remaining inactive block is solved matrix-free by
    preconditioned CG, from the zero step, to a residual norm of
    min(1e-10, 1e-2 tol) times the larger of |trace_b| and the norm of the
    block's right-hand side: never looser than the problem's scale, and
    relative to the right-hand side where that is larger.  CG's Hessian
    actions give H v of the next iteration too.  Convergence is declared
    when the active sets repeat and the stationarity and complementarity
    residuals are below tol, both for the carried H v and for a fresh
    action, which also gives the returned state and adjoint; after
    ``max_outer`` inactive-set solves without it, ``PdasNonconvergence``
    is raised.

    The start ``q_init``, a vector of length ``trace_dim`` (zero for None),
    is clipped to the bounds; another length raises ``ValueError``.

    The fixed points of the set update are the KKT points for every c > 0,
    but small c classifies aggressively far from the solution and can cycle
    (the indicator swings DOFs bound-to-bound).  When an active-set pair
    recurs without convergence the scale is raised tenfold and the iterate
    reclassified; this breaks cycles without changing the solution
    (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002)."""
    cg_rel_tol = min(1e-10, 1e-2 * tol)
    c = problem.lam
    bounds = problem.bounds
    mesh = problem.disc.mesh
    qa, qb = bounds.lower, bounds.upper
    dim = problem.trace_dim
    precond = (
        problem.lam * problem.disc.seminorm.diagonal()[problem.trace_indices]
    )

    if q_init is None:
        v = np.zeros(dim)
    elif len(q_init) != dim:
        raise ValueError(
            f"expected a start vector of length {dim}, got length {len(q_init)}"
        )
    else:
        v = np.clip(q_init, qa, qb)

    lower_prev = None
    upper_prev = None
    solves = 0
    total_cg = 0
    actions = 0
    history = []
    seen_sets = set()
    trace_b_norm = np.linalg.norm(problem.trace_b)

    def hessian(trace_values, want_fields=False):
        nonlocal actions
        actions += 1
        return problem.trace_hessian(trace_values, want_fields=want_fields)

    # H v, carried from one outer step to the next; H 0 = 0 needs no action.
    hv = hessian(v) if v.any() else np.zeros(dim)
    while True:
        mu = hv - problem.trace_b
        while True:
            indicator = v - mu / c
            lower = indicator < qa
            upper = indicator > qb
            key = (lower.tobytes(), upper.tobytes())
            stable_now = (
                lower_prev is not None
                and np.array_equal(lower, lower_prev)
                and np.array_equal(upper, upper_prev)
            )
            if stable_now or key not in seen_sets:
                seen_sets.add(key)
                break
            # Clearing the pairs seen ends this loop on its next pass.
            c *= 10.0
            seen_sets.clear()
            log.info("pdas revisited an active-set pair; raising scale to %.3e", c)
        inactive = ~(lower | upper)

        stationarity, complementarity = _kkt_residuals(mu, lower, upper)
        converged = stable_now and stationarity < tol and complementarity < tol
        if converged:
            # The carried product passes; a fresh action confirms it and
            # gives the state and adjoint to return.
            if v.any():
                hv, sens, second = hessian(v, want_fields=True)
            else:
                # H 0 = 0, and so are its state and adjoint parts, bit for bit.
                hv = np.zeros(dim)
                sens = np.zeros_like(problem.state_anchor)
                second = np.zeros_like(problem.adjoint_anchor)
            mu = hv - problem.trace_b
            stationarity, complementarity = _kkt_residuals(mu, lower, upper)
            converged = stationarity < tol and complementarity < tol
        infeasibility = max(
            0.0,
            float((qa - v).max(initial=0.0)),
            float((v - qb).max(initial=0.0)),
        )
        history.append(problem._quadratic_objective(v, hv))
        # The returned control's extension solve is checked before the
        # diagnostics read the largest extension residual.
        control = (
            ControlField.from_flat(mesh, problem.extend(v)) if converged else None
        )

        diagnostics = KKTDiagnostics(
            stationarity=stationarity,
            complementarity=complementarity,
            infeasibility=infeasibility,
            num_lower_active=int(lower.sum()),
            num_upper_active=int(upper.sum()),
            outer_iterations=solves,
            cg_iterations=total_cg,
            max_slab_residual=problem.disc.max_slab_residual,
            max_extension_residual=problem.extension.max_residual,
            objective_history=history,
        )
        log.info(
            "pdas outer=%d lower=%d upper=%d stat=%.3e comp=%.3e cg=%d "
            "hessian=%d slab_res=%.1e j=%.9e",
            solves,
            diagnostics.num_lower_active,
            diagnostics.num_upper_active,
            stationarity,
            complementarity,
            total_cg,
            actions,
            diagnostics.max_slab_residual,
            history[-1],
        )

        if converged:
            state = StateField(mesh, problem.state_anchor + sens)
            adjoint = AdjointField(mesh, problem.adjoint_anchor + second)
            return PdasResult(control, adjoint, state, diagnostics)

        if solves >= max_outer:
            raise PdasNonconvergence(diagnostics)

        clamped = np.where(lower, qa, np.where(upper, qb, v))
        # When the clamp moves no DOF, the carried hv is H v already.
        if not np.array_equal(clamped, v):
            hv = hessian(clamped)
        v = clamped
        defect = problem.trace_b - hv
        ii = np.flatnonzero(inactive)

        def op(x_inactive):
            d = np.zeros(dim)
            d[ii] = x_inactive
            return hessian(d)

        rhs = defect[ii]
        delta, iters, product = _pcg(
            op,
            ii,
            rhs,
            precond[ii],
            cg_rel_tol * max(trace_b_norm, np.linalg.norm(rhs)),
            max_iter=min(dim + 10, 30_000),
        )
        v[ii] += delta
        hv = hv + product
        total_cg += iters
        solves += 1
        lower_prev, upper_prev = lower, upper
