"""Finite-element operators for the space-time discretization.

Spatial P1 mass/stiffness matrices, 1-D temporal P1 matrices, the Kronecker
operator of the control's space-time seminorm, quadrature-based load
vectors, and ``Discretization``, which owns the time discretization: the
time blocks, the slab system and the dG(0)-cG(1) coupling rules.
Matrices are scipy CSR assembled from vectorized per-element triplets.  The
seminorm is a ``KroneckerSum`` that keeps only its temporal and spatial
factors, so no matrix of the control-space size is assembled except for
export.  Every interior block follows the mesh's reverse Cuthill-McKee
``interior_indices``, the band order in which the slab system is factored,
and the extension's time modes in the level sets of the distance from the
controlled edge; on a large enough symmetric mesh the discretization folds
the interior unknowns once into the symmetry-adapted basis of the square's
two diagonal reflections, and the slab system, the sweeps and the
extension all work there.  The
factors, the substitutions and the pool that splits the extension's time
modes over the CPUs are in ``dbc.kernels``.
One space-time ``Quadrature`` per discretization serves every load, the
tracking misfit and the error norms, on the same blocks and in the calling
thread.

Conventions: control coefficient arrays have shape (M-1, num_nodes) with
level l (0-based) sitting at time t_{l+1}; state-type arrays have shape
(M, num_interior) with row m on slab (t_m, t_{m+1}].  Flattened control
vectors are level-major, matching kron(time, space) ordering.
"""

from __future__ import annotations

import logging
import math
import os
import time
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse import csgraph

from .forward import RESIDUAL_TOL, SolverError
from .kernels import (
    AssemblyError,
    SlabSystem,
    band_width,
    factor_shifted,
    split_ranges,
    substitute_bands,
)
from .spaces import pad_levels

log = logging.getLogger("dbc.assembly")

# 6-point triangle rule, exact to polynomial degree 4.  Barycentric points
# and weights normalized to sum to one; multiply by the element area.
_TRI4_A1, _TRI4_B1, _TRI4_W1 = 0.108103018168070, 0.445948490915965, 0.223381589678011
_TRI4_A2, _TRI4_B2, _TRI4_W2 = 0.816847572980459, 0.091576213509771, 0.109951743655322
_TRI_RULE_4 = (
    np.array(
        [
            [_TRI4_A1, _TRI4_B1, _TRI4_B1],
            [_TRI4_B1, _TRI4_A1, _TRI4_B1],
            [_TRI4_B1, _TRI4_B1, _TRI4_A1],
            [_TRI4_A2, _TRI4_B2, _TRI4_B2],
            [_TRI4_B2, _TRI4_A2, _TRI4_B2],
            [_TRI4_B2, _TRI4_B2, _TRI4_A2],
        ]
    ),
    np.array([_TRI4_W1] * 3 + [_TRI4_W2] * 3),
)


def gauss_interval(num_points, a, b):
    """Gauss-Legendre points and weights on (a, b)."""
    x, w = np.polynomial.legendre.leggauss(num_points)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def triangle_geometry(tri):
    """Per-triangle P1 shape gradients and areas.

    Returns (grads, areas) with grads[t, i] the constant gradient of the hat
    function of local vertex i on triangle t; shape (nt, 3, 2).
    """
    v = tri.vertices
    t = tri.triangles
    p1, p2, p3 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    areas = tri.signed_areas
    inv2a = 1.0 / (2.0 * areas)
    grads = np.empty((len(t), 3, 2))
    grads[:, 0, 0] = (p2[:, 1] - p3[:, 1]) * inv2a
    grads[:, 0, 1] = (p3[:, 0] - p2[:, 0]) * inv2a
    grads[:, 1, 0] = (p3[:, 1] - p1[:, 1]) * inv2a
    grads[:, 1, 1] = (p1[:, 0] - p3[:, 0]) * inv2a
    grads[:, 2, 0] = (p1[:, 1] - p2[:, 1]) * inv2a
    grads[:, 2, 1] = (p2[:, 0] - p1[:, 0]) * inv2a
    return grads, areas


_MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass_stiffness(tri):
    """Spatial P1 mass and stiffness matrices over all vertices (CSR)."""
    grads, areas = triangle_geometry(tri)
    stiff_loc = areas[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    mass_loc = areas[:, None, None] * _MASS_REF

    t = tri.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    nv = tri.num_vertices
    stiffness = sp.coo_matrix(
        (stiff_loc.reshape(-1), (rows, cols)), shape=(nv, nv)
    ).tocsr()
    mass = sp.coo_matrix((mass_loc.reshape(-1), (rows, cols)), shape=(nv, nv)).tocsr()
    return mass, stiffness


def time_mass_stiffness(points):
    """1-D P1 mass and stiffness on a time partition, all M+1 levels (CSR)."""
    steps = np.diff(points)
    M = len(steps)
    i = np.arange(M)
    rows = np.concatenate([i, i, i + 1, i + 1])
    cols = np.concatenate([i, i + 1, i, i + 1])
    mvals = np.concatenate([steps / 3, steps / 6, steps / 6, steps / 3])
    svals = np.concatenate([1 / steps, -1 / steps, -1 / steps, 1 / steps])
    shape = (M + 1, M + 1)
    mass = sp.coo_matrix((mvals, (rows, cols)), shape=shape).tocsr()
    stiff = sp.coo_matrix((svals, (rows, cols)), shape=shape).tocsr()
    return mass, stiff


def _reorder(matrix, order):
    """CSR A[order][:, order], with sorted column indices."""
    permuted = matrix.tocsr()[order][:, order]
    permuted.sort_indices()
    return permuted


class KroneckerSum:
    """The operator sum_k kron(T_k, S_k) on level-major vectors, kept as its
    temporal factors T_k (levels x levels) and spatial factors S_k (nv x nv).

    ``@`` applies it factor by factor, T_k @ (S_k @ X.T).T with X the
    (levels, nv) view of the vector, so the space-time matrix is never
    assembled.  ``block`` assembles the rows and columns of spatial vertex
    subsets at every level; ``tocsr`` assembles the whole matrix, for
    export and for tests."""

    def __init__(self, *terms):
        self.terms = terms
        time, space = terms[0]
        self._grid = (time.shape[0], space.shape[0])

    def __matmul__(self, flat):
        X = flat.reshape(self._grid)
        return sum(time @ (space @ X.T).T for time, space in self.terms).ravel()

    def diagonal(self):
        return sum(
            np.outer(time.diagonal(), space.diagonal()) for time, space in self.terms
        ).ravel()

    def block(self, rows, cols):
        """CSR block of the vertex rows ``rows`` and columns ``cols`` at every
        level, level-major on both sides."""
        return sum(
            sp.kron(time, space[rows][:, cols]) for time, space in self.terms
        ).tocsr()

    def tocsr(self):
        return self.block(slice(None), slice(None))


# Tolerances of the check of the extension's time modes.  The residual
# |St z - theta Mt z|_inf / |St z|_inf grows as M^2, about 3.6 ulp times
# theta_max / theta_min: 8.6e-12 at 128x92.  max |Z^T Mt Z - I| does not
# grow: at most 2.4e-15 from 4x4 to 128x92.
_MODE_ORTHONORMALITY = 1e-12
_MODE_RESIDUAL = 1e-9


def _check_modes(mt, st, theta, modes):
    """Raise ``AssemblyError`` naming the first time mode z that is not an
    eigenvector of the pencil, St z = theta Mt z, or else the first whose
    column of Z^T Mt Z is not the identity's."""
    stiff = st @ modes
    residual = np.abs(stiff - (mt @ modes) * theta).max(axis=0, initial=0.0)
    residual /= np.abs(stiff).max(axis=0, initial=0.0)
    gram = np.abs(modes.T @ mt @ modes - np.eye(len(theta)))
    for label, errors, tolerance in (
        ("|St z - theta Mt z| / |St z|", residual, _MODE_RESIDUAL),
        ("|Z^T Mt z - e|", gram.max(axis=0, initial=0.0), _MODE_ORTHONORMALITY),
    ):
        failed = np.flatnonzero(~(errors <= tolerance))
        if failed.size:
            j = failed[0]
            raise AssemblyError(
                f"time mode {j} of the extension fails its check: {label} = "
                f"{errors[j]:.2e}, tolerance {tolerance:.0e}"
            )


# From this much band work of the slab system, num_slabs * n * (kd + 1) in
# the band order, up, ``Discretization`` folds the interior unknowns into
# the symmetry-adapted basis of ``_SquareFold`` where the mesh has the
# square's symmetry, so the slab factor, the sweeps and the extension all
# run there.  The gate lies between 40x28 (1.7 M), where folding the
# extension alone gave no resolved gain, and 48x34 (3.6 M).  There a slab
# solve, its two dtbsv passes, took 49 us folded against 88 us in the band
# order, and 137 against 177 us at 64x46 (9.3 M).  Below the gate the
# fold's build, 4 to 9 ms, and the tail solves' lost partial passes
# outweigh the narrower bands.
_FOLD_WORK = 2_000_000
# The fold keeps S_ii and M_ii only where R and R' move no entry of either
# by more than this much of the matrix's largest entry: zero exactly when
# the matrix commutes with both reflections, as it does at n = 2^k;
# rounding at n = 48 leaves 2.0e-15 in S and 1.2e-18 in M.
_FOLD_INVARIANCE = 1e-13

# The characters chi of D2 = {I, R, R', RR'}, one row each, chi(g) in
# column g: (chi(R), chi(R')) = (+, +), (+, -), (-, +), (-, -).  The table
# is symmetric, so one product with it maps an orbit's values at its images
# to its four characters and back.
_CHARACTERS = np.array(
    [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
     [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
)


def _moved(matrices, perm):
    """The largest change of an entry of any of ``matrices``, CSR with one
    pattern and sorted indices, under the permutation ``perm`` of their rows
    and columns, relative to that matrix's largest entry; inf where some
    entry moves off the pattern or the patterns differ."""
    first = matrices[0]
    n = first.shape[0]
    rows = np.repeat(np.arange(n), np.diff(first.indptr))
    keys = rows * n + first.indices
    images = perm[rows] * n + perm[first.indices]
    at = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
    if not np.array_equal(keys[at], images):
        return np.inf
    worst = 0.0
    for matrix in matrices:
        if not (np.array_equal(matrix.indptr, first.indptr)
                and np.array_equal(matrix.indices, first.indices)):
            return np.inf
        change = np.abs(matrix.data[at] - matrix.data).max(initial=0.0)
        worst = max(worst, change / np.abs(matrix.data).max(initial=1.0))
    return worst


def _matching(points, images):
    """The permutation p with points[p[i]] at images[i], to 1e-9 of the
    largest coordinate, or None where some image is no point."""
    scale = 1e-9 * max(float(np.abs(points).max(initial=0.0)), 1.0)
    keys = [np.rint(a / scale).astype(np.int64) for a in (points, images)]
    sorts = [np.lexsort(k.T[::-1]) for k in keys]
    if not np.array_equal(keys[0][sorts[0]], keys[1][sorts[1]]):
        return None
    perm = np.empty(len(points), dtype=np.intp)
    perm[sorts[1]] = sorts[0]
    return perm


class _SquareFold:
    """The interior unknowns in the symmetry-adapted basis of the unit
    square's diagonal reflections, R: (x, y) -> (y, x) and R': (x, y) -> (1
    - y, 1 - x), given as the permutations ``r`` and ``r2`` of the interior
    positions; ``of`` finds them from the vertex coordinates.

    The orbits of D2 = {I, R, R', RR'} come in the order of their graph
    distance from the vertices on the diagonal y = x, then of their smallest
    vertex id.  Column (chi, o) of the basis U is the sum over the distinct
    members w = g o of chi(g) e_w, kept where chi is 1 on the orbit's
    stabilizer, so U is square, its entries are +-1 and D = U^T U is
    diagonal, each column's orbit size; ``weights`` is D^-1.
    ``stiff`` and ``mass`` are U^T S_ii U and U^T M_ii U on their diagonal
    blocks, one per character, each in the orbit order, made exactly
    symmetric from their upper triangle; ``defect`` is the largest change of
    an entry of S_ii or M_ii under R or R', relative to the matrix's
    largest entry.  Where it is zero, U^T A U has nothing off the blocks,
    and block chi's row of orbit o is the orbit's size times row o of A U:
    so the blocks are gathered from the representatives' rows of A U, one
    sparse product with U, not made by the triple product.  On
    ``unit_square_mesh(n)``
    the distance's level sets are the lines x - y = d folded into a quarter
    of the square, at most ceil((n - 1) / 2) orbits each, so that is the
    band ``kd`` of every block: 24 at 48 and 32 at 64, against 47 and 63 in
    the band order.

    A value x in the vertex basis is U y in the folded one, and a load b,
    tested against the vertex hats, is U^T b: ``fold`` applies U^T to the
    rows of a stack and ``unfold`` U."""

    def __init__(self, disc, r, r2):
        n = disc.mesh.num_interior
        ids = disc.interior
        images = np.stack([np.arange(n), r, r2, r[r2]])
        reps = np.flatnonzero(ids == ids[images].min(axis=0))
        distance = csgraph.dijkstra(
            disc.mass_ii, unweighted=True,
            indices=np.flatnonzero(r == np.arange(n)), min_only=True,
        )
        images = images[:, reps[np.lexsort((ids[reps], distance[reps]))]]
        keep = ~((_CHARACTERS[:, :, None] < 0) & (images == images[0])).any(axis=1)
        # Each distinct member once.
        member = np.ones(images.shape, dtype=bool)
        for g in range(1, 4):
            member[g] = ~(images[:g] == images[g]).any(axis=0)
        column = np.full(keep.shape, -1)
        column[keep] = np.arange(n)
        on = member[None] & keep[:, None]  # [chi, g, orbit]
        chi, g, orbit = np.nonzero(on)
        self.basis = sp.csr_matrix(
            (_CHARACTERS[chi, g], (images[g, orbit], column[chi, orbit])),
            shape=(n, n),
        )
        size = member.sum(axis=0)
        self.weights = 1.0 / np.broadcast_to(size, keep.shape)[keep]
        self._block_of = np.repeat(np.arange(4), keep.sum(axis=1))
        self._orbits = (images[0], size, column)
        self.stiff, self.mass = (self._blocks(a) for a in (disc.stiff_ii, disc.mass_ii))
        self.defect = max(_moved((disc.stiff_ii, disc.mass_ii), p) for p in (r, r2))
        self.kd = max(band_width(self.stiff), band_width(self.mass))

    @classmethod
    def of(cls, disc):
        """The fold of ``disc``'s interior, or None where R or R' maps an
        interior vertex to no interior vertex, no interior vertex lies on
        y = x, or the fold's ``defect`` is above ``_FOLD_INVARIANCE``."""
        points = disc.mesh.triangulation.vertices[disc.interior]
        swapped = points[:, ::-1]
        r, r2 = _matching(points, swapped), _matching(points, 1.0 - swapped)
        if r is None or r2 is None or not (r == np.arange(len(r))).any():
            return None
        fold = cls(disc, r, r2)
        return fold if fold.defect <= _FOLD_INVARIANCE else None

    def _blocks(self, matrix):
        """U^T A U on its diagonal blocks, symmetric from its upper triangle,
        gathered from the representatives' rows of A U (see the class)."""
        reps, size, column = self._orbits
        rows = (matrix[reps] @ self.basis).tocoo()
        target = column[self._block_of[rows.col], rows.row]
        upper = (target >= 0) & (target <= rows.col)
        row, col = target[upper], rows.col[upper]
        values = rows.data[upper] * size[rows.row[upper]]
        strict = row < col
        symmetric = sp.csr_matrix(
            (np.concatenate([values, values[strict]]),
             (np.concatenate([row, col[strict]]), np.concatenate([col, row[strict]]))),
            shape=matrix.shape,
        )
        symmetric.sort_indices()
        return symmetric

    def fold(self, stack):
        """U^T applied to each row of ``stack``, (..., n); C-contiguous."""
        return np.ascontiguousarray((self.basis.T @ stack.T).T)

    def unfold(self, stack):
        """U applied to each row of ``stack``, (..., n); C-contiguous."""
        return np.ascontiguousarray((self.basis @ stack.T).T)


class EnergyExtension:
    """Exact solver for the interior-vertex block of the control seminorm.

    The control is optimized through its boundary trace; interior-vertex
    DOFs follow by minimizing the space-time H1 seminorm, which means
    solving with A_ii, the seminorm matrix restricted to interior-vertex
    DOFs.  A_ii = kron(Mt, S_ii) + kron(St, M_ii) is separable, so instead
    of factoring one large space-time operator we eigen-decompose the small
    interior time pencil St Z = Mt Z diag(theta) (Z^T Mt Z = I), check
    both identities once, mode by mode, and factor the 2-D operator S_ii +
    theta_j M_ii once per time mode, as a band Cholesky factor U_j^T U_j,
    U_j in upper band storage, in one of two layouts.  A mode that fails
    its check is an ``AssemblyError`` that names it.

    The trace reaches the interior only through ``tail``, the interior
    vertices coupled to one of ``boxed_vertices``, by vertex id: an
    extension's right-hand side lives there, and its transpose reads only
    there.  The band layout factors in ``order``, which puts the interior
    vertices by decreasing graph distance from the tail, then by vertex id,
    so the tail is the last block and ``solve_from_tail`` and
    ``solve_to_tail`` skip the other half of a substitution: the forward
    one with U_j^T for a right-hand side that lives on the tail, the
    backward one with U_j for an answer read on the tail.  Their full
    passes are dtbsv ('U', 'N') and ('U', 'T'), which take about as long
    as each other.  The level sets of that distance set the band width
    ``kd``.  With one edge of the unit square boxed they are grid rows, so
    the band is n - 1 for ``unit_square_mesh(n)``, as narrow as the slab
    system's.  With the whole boundary boxed the tail is a ring and so is
    every level set: at 64 the band is 303 wide, against 63 for the bottom
    edge.  The factors take levels * n * (kd + 1) doubles: 87.2 MiB at
    64x46.

    Where ``disc`` folds (its ``fold``, see ``Discretization``), the folded
    layout factors each mode's system in the fold's symmetry-adapted basis
    instead: four independent blocks, one band of ``kd`` = ceil((n - 1) /
    2) whatever the tail, 24 at 48x34 and 32 at 64x46, so the factors take
    about 14 MiB at 48x34, against 26.7 MiB in the band layout, and 45.0
    MiB at 64x46, with a quarter of the band layout's flops.  The tail's
    orbits are spread through the folded order, so its tail solves run
    full passes; ``tail`` is the same in both layouts.

    ``solve`` takes and returns arrays in the vertex basis.  The tail
    solves work in the discretization's basis, as the sweeps do: in the
    folded layout ``solve_from_tail`` returns the folded answer Y, X = U
    Y, and ``solve_to_tail`` takes the folded right-hand side U^T rhs, so
    a trace Hessian action folds and unfolds only the tail's columns.

    The modes are independent, so every solve splits them into contiguous
    ranges, one per CPU, on the pool of ``dbc.kernels`` from its split gate
    of levels * n * (kd + 1) entries, in the layout's own band, up.  A
    mode's arithmetic does not depend on the split, so the answers are the
    same bits on any number of CPUs.  The time transforms and the map into
    the layout are applied to all modes at once, outside the ranges.

    ``__init__`` only starts the factorization on the pool and returns, so
    its caller can go on while the pool factors, all the modes in one pool
    task in either layout: two threads that factor at once are slower than
    one (see ``kernels.factor_shifted``).  The first solve waits for the
    factors, once, logs at DEBUG how long it waited, and raises the
    factorization's failure if it had one.  Below the split gate the
    factors are made in ``__init__``.

    ``check`` checks a solve X by its residual: ||A_ii X - rhs|| above
    ``RESIDUAL_TOL`` times ||rhs|| raises ``SolverError`` naming the time
    mode whose residual is largest, with that mode's own relative residual
    when it is the larger, and ``max_residual`` is the largest
    ||A_ii X - rhs|| / ||rhs|| checked so far.  ``solve`` checks its answer
    by one product with A_ii, a ``KroneckerSum`` of the interior blocks; a
    trace Hessian action checks its ``solve_from_tail`` from the spatial
    products that it makes anyway, in the discretization's basis, with the
    norm of the vertex basis (``Discretization.isometric``).  The
    right-hand sides are small, down to 1e-12 for late CG directions, so
    the check is relative, without the slab check's + 1.
    """

    def __init__(self, disc, boxed_vertices):
        mt, st = disc.time_mass, disc.time_stiffness
        self._interior_block = KroneckerSum((mt, disc.stiff_ii), (st, disc.mass_ii))
        self.max_residual = 0.0
        mt, st = mt.toarray(), st.toarray()
        theta, modes = sla.eigh(st, mt)
        _check_modes(mt, st, theta, modes)
        self.modes = modes
        levels, n = len(theta), disc.mesh.num_interior
        self._levels, self._size = levels, n
        self._disc = disc
        self._fold = disc.fold
        coupled = disc.mass_if[:, boxed_vertices]
        touched = np.flatnonzero(np.diff(coupled.indptr))
        self.tail = touched[np.argsort(disc.interior[touched])]
        if self._fold is None:
            distance = csgraph.dijkstra(
                disc.mass_ii, unweighted=True, indices=touched, min_only=True
            )
            # Farthest first, then by vertex id, whatever the interior
            # order; the tail, at distance 0, comes last.
            self.order = np.lexsort((disc.interior, -distance))
            self._unorder = np.argsort(self.order)
            stiff = _reorder(disc.stiff_ii, self.order)
            mass = _reorder(disc.mass_ii, self.order)
            self.kd = max(band_width(stiff), band_width(mass))
            self._tail_start = n - len(touched)
        else:
            stiff, mass, self.kd = self._fold.stiff, self._fold.mass, self._fold.kd
            self._tail_start = 0
            # The tail's rows of U, for the tail-sized fold and unfold: as a
            # CSR matrix, transposed, and as at most four (column, sign)
            # pairs per row, padded with sign 0.
            rows = self._fold.basis[self.tail]
            self._tail_fold = rows.T.tocsr()
            width = np.diff(rows.indptr)
            at = (np.repeat(np.arange(len(self.tail)), width),
                  np.arange(rows.nnz) - np.repeat(rows.indptr[:-1], width))
            self._tail_columns = np.zeros((len(self.tail), 4), dtype=np.intp)
            self._tail_signs = np.zeros((len(self.tail), 4))
            self._tail_columns[at] = rows.indices
            self._tail_signs[at] = rows.data
        self._bands, self._factoring = factor_shifted(stiff, mass, theta, self.kd)
        self._ranges = split_ranges(levels, self._bands.size)

    def _factors(self):
        """The mode factors, once the factorization that ``__init__``
        started has ended.  The first call logs, at DEBUG, the modes, the
        pool tasks that factored them and how long it waited for them."""
        if self._factoring is not None:
            start = time.perf_counter()
            self._factoring()
            self._factoring = None
            log.debug(
                "extension: %d time modes factored in %d pool task(s), "
                "waited %.1f ms", self._levels, len(self._ranges) > 1,
                1e3 * (time.perf_counter() - start),
            )
        return self._bands

    def _to_modes(self, rhs):
        """The (levels, n) ``rhs``, in the discretization's basis, in the
        time modes and in the factor layout."""
        if self._fold is None:
            return np.take(self.modes.T @ rhs, self.order, axis=1)
        return self.modes.T @ rhs

    def _from_modes(self, solved):
        """The answer, in the discretization's basis, whose time modes, in
        the factor layout, are ``solved``; (levels, n)."""
        if self._fold is None:
            return self.modes @ np.take(solved, self._unorder, axis=1)
        return self.modes @ solved

    def solve(self, rhs):
        """Solve A_ii X = rhs for a level-major rhs, flat or of shape
        (levels, num_interior); X has shape (levels, num_interior).  Both
        are in the vertex basis.  An X that fails the residual check raises
        ``SolverError``."""
        disc = self._disc
        work = self._to_modes(disc.fold_loads(rhs.reshape(self._levels, self._size)))
        substitute_bands(self._factors(), self._ranges, work, (b"T", 0), (b"N", 0))
        solved = disc.unfold_values(self._from_modes(work))
        # Freed first, ``work`` serves the check's temporaries: kept, it put
        # the peak memory of a 64x46 solve 0.9 MiB higher.
        del work
        defect = self._interior_block @ solved.ravel()
        defect -= rhs.ravel()
        self.check(defect, rhs)
        return solved

    def check(self, defect, rhs):
        """Check a solve by its residual ``defect`` = A_ii X - rhs, level-major,
        flat or of shape (levels, num_interior), with the Euclidean norm of
        the vertex basis; ``rhs`` may hold only the columns where it is
        nonzero, level-major, flat or (levels, columns).
        A relative residual ||defect|| / ||rhs|| above ``RESIDUAL_TOL``
        raises ``SolverError`` naming the time mode whose row of Z^T defect,
        the residual of that mode's system, is largest, with that mode's own
        relative residual, the row's norm over that of its row of Z^T rhs,
        when it is the larger: the overall reading dilutes one wrong mode by
        the right-hand side of the others.  Else ``max_residual`` keeps it.
        A zero defect, which a zero rhs gives, passes and is not recorded."""
        defect_norm = np.linalg.norm(defect)
        if not defect_norm:
            return
        residual = float(defect_norm / np.linalg.norm(rhs))
        if not residual <= RESIDUAL_TOL:
            modal = self.modes.T @ defect.reshape(self._levels, self._size)
            modal = np.linalg.norm(modal, axis=1)
            mode = int(np.argmax(modal))
            modal_rhs = self.modes[:, mode] @ rhs.reshape(self._levels, -1)
            with np.errstate(divide="ignore"):
                own = float(modal[mode] / np.linalg.norm(modal_rhs))
            raise SolverError(None, max(residual, own), mode)
        self.max_residual = max(self.max_residual, residual)

    def solve_from_tail(self, tail_rhs):
        """``solve`` of the right-hand side that is ``tail_rhs``, level-major
        over the tail, on the tail and zero elsewhere, in the
        discretization's basis; (levels, num_interior).  Zero off the tail,
        the right-hand side makes the band layout's forward substitution
        zero until the tail; the folded layout folds the tail's columns
        alone."""
        tail_rhs = tail_rhs.reshape(self._levels, len(self.tail))
        start = self._tail_start
        if self._fold is None:
            work = np.zeros((self._levels, self._size))
            work[:, start:] = self.modes.T @ tail_rhs
        else:
            work = self.modes.T @ (self._tail_fold @ tail_rhs.T).T
        substitute_bands(self._factors(), self._ranges, work, (b"T", start), (b"N", 0))
        return self._from_modes(work)

    def solve_to_tail(self, rhs):
        """The tail columns of the answer, in the vertex basis, of ``solve``
        for the right-hand side ``rhs``, (levels, num_interior), given in
        the discretization's basis; (levels, len(tail)).  Read only on the
        tail, the answer needs the band layout's backward substitution on
        the tail alone, and the folded layout unfolds the tail alone."""
        start = self._tail_start
        work = self._to_modes(rhs)
        substitute_bands(self._factors(), self._ranges, work, (b"T", 0), (b"N", start))
        if self._fold is None:
            return self.modes @ work[:, start:]
        tail = np.einsum("ltj,tj->lt", work[:, self._tail_columns], self._tail_signs)
        return self.modes @ tail


# ``Quadrature`` evaluates every integrand and every load on blocks of at
# most _BLOCK_TIMES Gauss times by a slice of triangles, at most
# _BLOCK_VALUES point values in all, 512 KiB per array of them, and the
# factors of a case callable that do not depend on t are made once per
# block.  2**16 values is the largest block that leaves the peak memory of
# a 64x46 solve as it is; 2**17 raised it by 6 MiB.
_BLOCK_TIMES = 8
_BLOCK_VALUES = 2**16


class _Slice(NamedTuple):
    """What a slice of triangles keeps, each array C-contiguous: the
    read-only points ``x`` and ``y`` and the weights, (nq, triangles); the
    vertices at the corners, (3, triangles); the gradients of the corners'
    hats, (2, 3, triangles), component d of corner i at [d, i]; the span of
    vertices the corners touch, and the map that adds corner i of the k-th
    triangle, at column i * triangles + k, onto that corner's row of the
    span."""

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    corners: np.ndarray
    grads: np.ndarray
    span: slice
    load_map: sp.csr_matrix


class Quadrature:
    """One space-time quadrature rule on a mesh: the triangle rule ``rule``,
    barycentric points and unit-sum weights, on every triangle times a
    ``time_points``-point Gauss rule on every slab.

    ``bary`` holds the barycentric values of the rule points, (nq, 3).
    Temporal arrays have shape (M, time_points): ``times`` and
    ``time_weights`` are each slab's Gauss rule, and ``lo`` and ``hi`` the
    P1-in-time hats of the slab's left and right end at ``times``.

    The triangles are cut once into ``slices``, balanced and of at most
    ``_BLOCK_VALUES // (_BLOCK_TIMES * nq)`` triangles each, kept as
    ``_Slice`` records: the rule points mapped onto the slice's triangles,
    its weights (the rule weights times the triangle areas), its corners and
    the gradients of their hats, each once and C-contiguous, and a sparse
    map from its corners to the vertices they touch; no whole-mesh array of
    points is kept.

    ``integrate`` works on blocks of Gauss times by these slices.  Its
    field layer gives a block the discrete fields on its slice's triangles
    alone: ``gather`` takes the rows of a field's slabs or time levels that
    the block touches, each once, at the corners; ``gradients`` and
    ``at_points`` make per-triangle gradients and values at the points on
    those rows; indexing by slab gives a slab field at the block's Gauss
    times, and ``in_time`` applies the hats ``lo`` and ``hi`` to level
    rows.  ``add_loads`` adds a block's load vectors.  Every block runs in
    the calling thread.
    """

    def __init__(self, mesh, rule, time_points):
        tri = mesh.triangulation
        bary, rule_weights = rule
        self.triangles = tri.triangles
        self.bary = bary
        # The points are the P1 interpolants of the vertex coordinates.
        x, y = self.at_points(tri.vertices[self.triangles].T)
        weights = np.outer(rule_weights, tri.signed_areas)
        grads = triangle_geometry(tri)[0].T
        nq, nt = x.shape
        count = -(-nt // (_BLOCK_VALUES // (_BLOCK_TIMES * nq)))
        edges = [nt * i // count for i in range(count + 1)]
        self.num_vertices = tri.num_vertices
        self.slices = []
        for first, stop in zip(edges[:-1], edges[1:]):
            cells = slice(first, stop)
            corners = np.ascontiguousarray(self.triangles[cells].T)
            flat = corners.ravel()
            span = slice(flat.min(), flat.max() + 1)
            columns = np.arange(flat.size)
            load_map = sp.csr_matrix(
                (np.ones(flat.size), (flat - span.start, columns)),
                shape=(span.stop - span.start, flat.size),
            )
            part = _Slice(
                *(np.ascontiguousarray(a[..., cells]) for a in (x, y, weights)),
                corners,
                np.ascontiguousarray(grads[..., cells]),
                span,
                load_map,
            )
            part.x.flags.writeable = False
            part.y.flags.writeable = False
            self.slices.append(part)

        pts = mesh.time_partition.points
        left, right = pts[:-1, None], pts[1:, None]
        self.times, self.time_weights = gauss_interval(time_points, left, right)
        self.lo = (right - self.times) / (right - left)
        self.hi = (self.times - left) / (right - left)

    def gather(self, nodal, m, part, levels=False):
        """The rows of ``nodal``, (rows, nv), that a block of the Gauss
        times of the slabs m, (c,) and ascending, touches, at the corners
        of the triangles of the slice ``part``; (r, 3, triangles), corner i
        of every triangle in row i.  The rows are m[0] ... m[-1] for a field
        with one row per slab, and m[0] ... m[-1] + 1 with ``levels``, for a
        P1-in-time field whose rows are its time levels.  Each row is
        gathered once, however many Gauss times share it."""
        stop = m[-1] + (2 if levels else 1)
        return np.take(nodal[m[0] : stop], part.corners, axis=1)

    def gradients(self, corners, part):
        """Per-triangle gradients of P1 fields from their ``corners``, (r,
        3, triangles), on the triangles of the slice ``part``; (r, 2,
        triangles), d/dx in column 0 and d/dy in column 1."""
        return np.einsum("rit,dit->rdt", corners, part.grads)

    def in_time(self, ends, m, j):
        """The P1-in-time field at the j[i]-th Gauss time of slab m[i], (c,
        ...), from ``ends``, anything made row by row from a ``gather`` with
        ``levels``: lo times the row of slab m[i]'s left end plus hi times
        the row of its right end."""
        row = m - m[0]
        scale = (-1,) + (1,) * (ends.ndim - 1)
        return (
            self.lo[m, j].reshape(scale) * ends[row]
            + self.hi[m, j].reshape(scale) * ends[row + 1]
        )

    def at_points(self, corners):
        """Values at the points of P1 fields from their ``corners``; (c, nq,
        triangles)."""
        return np.matmul(self.bary, corners)

    def add_loads(self, loads, values, part):
        """Add to ``loads``, (c, nv), the loads of point values ``values``,
        (c, nq, triangles), on the triangles of the slice ``part``.  The
        weighted values go to the corners through ``bary``, and the slice's
        map adds each vertex's corners in its stored order."""
        corners = np.matmul(self.bary.T, values * part.weights)
        loads[:, part.span] += (part.load_map @ corners.reshape(len(values), -1).T).T

    def integrate(self, integrand):
        """Space-time integral of ``integrand(m, j, t, part)``, the
        integrand's values, (c, nq, triangles), at the points of the slice
        ``part``, a record of ``slices``, at c Gauss times: the j[i]-th
        Gauss time t[i] of slab m[i].  m and j have shape (c,) and t (c, 1,
        1), so a callable of x, y and t broadcasts over the block, with x
        and y the slice's ``part.x`` and ``part.y``, and its factors that do
        not depend on t are made once per block.  The field layer
        (``gather``, ``gradients``, ``at_points``, ``in_time``) gives the
        block its discrete fields.

        The Gauss times are taken in chunks of at most ``_BLOCK_TIMES``, and
        each chunk the triangles by ``slices``, so no block holds more than
        ``_BLOCK_VALUES`` values.  The blocks run in the calling thread.  A
        Gauss time's weighted sum is one dot product per slice, added slice
        by slice in triangle order, and ``time_sum`` adds the Gauss times in
        slab and time order."""
        times = self.times.ravel()
        per_slab = self.times.shape[1]
        sums = np.zeros(times.size)
        for start in range(0, times.size, _BLOCK_TIMES):
            stop = min(start + _BLOCK_TIMES, times.size)
            m, j = np.divmod(np.arange(start, stop), per_slab)
            t = times[start:stop, None, None]
            for part in self.slices:
                w = part.weights
                values = integrand(m, j, t, part)
                if values.shape != (len(m),) + w.shape:
                    raise ValueError(
                        f"integrand values have shape {values.shape}, "
                        f"expected {(len(m),) + w.shape}"
                    )
                # One dot product of w per Gauss time, as np.vdot.
                sums[start:stop] += (
                    values.reshape(len(m), 1, -1) @ w.reshape(-1, 1)
                ).ravel()
        return self.time_sum(sums)

    def time_sum(self, sums):
        """Sum of ``sums``, one spatial integral per Gauss time in
        ``times.ravel()`` order, times the time weights, added in slab and
        time order."""
        total = 0.0
        for weight, spatial in zip(self.time_weights.ravel(), sums):
            total += weight * float(spatial)
        return total


def difference(exact, discrete, shape):
    """``exact - discrete`` of the given block ``shape``.  A case callable
    returns its values as a new array, which the block then owns, so the
    difference is written over ``exact`` when that is a writable float64
    array of ``shape``; a scalar, a read-only array or a broadcast shape
    gets a new array, and is never written."""
    if (
        isinstance(exact, np.ndarray)
        and exact.shape == shape
        and exact.dtype == np.float64
        and exact.flags.writeable
    ):
        exact -= discrete
        return exact
    out = np.empty(shape)
    np.subtract(exact, discrete, out=out)
    return out


def _values(g, part, t):
    """g at the points of the slice ``part`` at ``t``, a scalar or c Gauss
    times of shape (c, 1, 1), as a float array of shape (nq, triangles) or
    (c, nq, triangles)."""
    values = np.asarray(g(part.x, part.y, t), dtype=float)
    return np.broadcast_to(values, np.shape(t)[:1] + part.x.shape)


def spatial_load_vector(quad, g, t):
    """All-vertex load vector of x, y -> g(x, y, t) by the spatial rule of
    ``quad``, added slice by slice as ``Discretization.time_loads`` adds
    the loads at a Gauss time."""
    load = np.zeros((1, quad.num_vertices))
    for part in quad.slices:
        quad.add_loads(load, _values(g, part, t)[None], part)
    return load[0]


class Discretization:
    """All operators for one space-time mesh, its time discretization
    included, built once in ``__init__`` and shared by every routine.

    ``time_mass`` and ``time_stiffness`` are Mt and St on the interior time
    levels, and ``seminorm``, the control's space-time H1 seminorm, is the
    SPD ``KroneckerSum`` kron(Mt, S) + kron(St, M).  ``slab_solver`` hands
    out the one slab system of the equal slabs, M + k S with k the
    partition's step 1/M, and the three coupling rules below scale by the
    same k.  Mt and St alone come from the partition's points, by
    ``time_mass_stiffness``, which acceptance criterion 10 checks on
    non-uniform points, so a second builder from k would fork it; on equal
    slabs the two differ by at most 4.5e-15 relative up to M = 92.
    ``max_slab_residual`` is the largest relative residual that the sweeps
    have checked so far.  ``quad`` is the degree-4 triangle rule times 2
    Gauss points per slab.

    The sweeps run in the basis of the interior unknowns that ``__init__``
    chooses once.  ``mass_ii``, ``stiff_ii`` and every array that a public
    routine takes or returns are in the vertex basis, in the band order of
    the mesh's ``interior_indices``.  From the fold gate ``_FOLD_WORK`` of
    slab band work up, where the mesh has the unit square's diagonal
    symmetry, ``fold`` is the one ``_SquareFold`` of the interior, and the
    slab system and ``slab_mass`` are in its symmetry-adapted basis: the
    slab factor is made on the four blocks of U^T (M_ii + k S_ii) U, each
    ceil((n - 1) / 2) wide, and the sweeps march on folded stacks.  Else
    ``fold`` is None and the sweeps' basis is the vertex basis.
    ``fold_loads``, ``fold_values``, ``unfold_values`` and ``unfold_loads``
    convert between the two, a value x as U y and a load b as U^T b, and
    are the identity where nothing folds; ``isometric`` scales folded loads
    in place to the vertex basis's Euclidean norm; ``slab_blocks`` gives the
    spatial blocks of the interior, in the sweeps' basis, and of further
    vertices.

    The dG(0) state couples to the cG(1) control by three rules on stacks
    of spatial products of any vertex set, ``control_loads``,
    ``tracking_loads`` and ``pair_hats``: the trace Hessian action and
    set-up pass them the movable vertices' products, and ``coupling_all``,
    ``coupling_transpose`` and ``dbc.adjoint.tracking_slabs`` all vertices'.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        tri = mesh.triangulation
        self.mass, self.stiffness = assemble_mass_stiffness(tri)
        idx = tri.interior_indices
        self.interior = idx
        self.mass_ii = _reorder(self.mass, idx)
        self.stiff_ii = _reorder(self.stiffness, idx)
        # The slab system comes first: made after the quadrature, it raised
        # the peak memory of the 48x34 solve with q_b = 0.045 by 0.4 MiB and
        # left that of the 64x46 solve within 0.1 MiB.
        self._k = mesh.time_partition.k
        slab = self.mass_ii + self._k * self.stiff_ii
        self.fold = None
        if mesh.num_slabs * len(idx) * (band_width(slab) + 1) >= _FOLD_WORK:
            self.fold = _SquareFold.of(self)
        self.slab_mass = self.mass_ii
        if self.fold is not None:
            self.slab_mass = self.fold.mass
            slab = self.fold.mass + self._k * self.fold.stiff
        self._slab_system = SlabSystem(slab)
        self.mass_if = self.mass[idx, :].tocsr()
        self.stiff_if = self.stiffness[idx, :].tocsr()
        mt, st = time_mass_stiffness(mesh.time_partition.points)
        M = mesh.num_slabs
        self.time_mass, self.time_stiffness = mt[1:M, 1:M], st[1:M, 1:M]
        self.seminorm = KroneckerSum(
            (self.time_mass, self.stiffness), (self.time_stiffness, self.mass)
        )
        self.quad = Quadrature(mesh, _TRI_RULE_4, 2)
        self.max_slab_residual = 0.0

    # -- slab system -------------------------------------------------------

    def slab_solver(self):
        """The ``SlabSystem`` of every slab; ``march`` asks for it once per
        slab, which is how the benchmark's trace counts slab solves."""
        return self._slab_system

    # -- the basis of the interior unknowns ----------------------------------

    def fold_loads(self, loads):
        """Loads b on the interior vertices, the rows of (..., ni), in the
        sweeps' basis: U^T b where the discretization folds, else ``loads``
        itself."""
        return loads if self.fold is None else self.fold.fold(loads)

    def fold_values(self, values):
        """Interior values x, the rows of (..., ni), in the sweeps' basis:
        the y with U y = x, D^-1 U^T x, where the discretization folds, else
        ``values`` itself."""
        if self.fold is None:
            return values
        folded = self.fold.fold(values)
        folded *= self.fold.weights
        return folded

    def unfold_values(self, values):
        """The vertex values U y of values y in the sweeps' basis, the rows
        of (..., ni); ``values`` itself where the discretization does not
        fold."""
        return values if self.fold is None else self.fold.unfold(values)

    def unfold_loads(self, loads):
        """The vertex loads U D^-1 b' of loads b' = U^T b in the sweeps'
        basis, the rows of (..., ni); ``loads`` itself where the
        discretization does not fold."""
        if self.fold is None:
            return loads
        return self.fold.unfold(loads * self.fold.weights)

    def isometric(self, loads):
        """Loads U^T b in the sweeps' basis, the rows of (..., ni), scaled in
        place by D^-1/2, so each row has the Euclidean norm of its b: |b|^2
        = (U^T b)^T D^-1 (U^T b), since U D^-1 U^T = I; returns ``loads``,
        left as it is where the discretization does not fold."""
        if self.fold is not None:
            loads *= np.sqrt(self.fold.weights)
        return loads

    def slab_blocks(self, others):
        """The spatial mass and stiffness matrices on the interior vertices,
        in the sweeps' basis, and then on the vertices ``others``, in that
        order (CSR): P^T A P with P = diag(U, I), the fold's blocks on the
        interior, where the discretization folds."""
        vertices = np.concatenate([self.interior, others])
        if self.fold is None:
            return _reorder(self.mass, vertices), _reorder(self.stiffness, vertices)
        blocks = []
        pairs = (
            (self.mass, self.mass_if, self.fold.mass),
            (self.stiffness, self.stiff_if, self.fold.stiff),
        )
        for matrix, rows, folded in pairs:
            coupling = self.fold.basis.T @ rows[:, others]
            block = sp.bmat(
                [[folded, coupling], [coupling.T, matrix[others][:, others]]],
                format="csr",
            )
            block.sort_indices()
            blocks.append(block)
        return tuple(blocks)

    # -- the dG(0)-cG(1) coupling rules --------------------------------------

    def control_loads(self, mass_q, stiff_q):
        """-C(q), the control's slab loads in the state equation, from M q
        and S q padded to (M+1, r): row m is M(q_{m-1} - q_m) - (k/2)
        S(q_{m-1} + q_m); (M, r)."""
        loads = stiff_q[:-1] + stiff_q[1:]
        loads *= -0.5 * self._k
        loads += mass_q[:-1]
        loads -= mass_q[1:]
        return loads

    def tracking_loads(self, sums, mass_w):
        """The adjoint's slab loads of w + q, in place of ``sums``, the slab
        sums M q_{m-1} + M q_m, with ``mass_w`` = M w: row m is k (M w_m
        + (M q_{m-1} + M q_m) / 2); (M, r)."""
        sums *= 0.5
        sums += mass_w
        sums *= self._k
        return sums

    def pair_hats(self, slabs, out):
        """The pairing of a slab stack x, (M, r), with the control's hats in
        time, into ``out``, (M-1, r): row l is k (x_l + x_{l+1}) / 2."""
        np.add(slabs[:-1], slabs[1:], out=out)
        out *= 0.5 * self._k
        return out

    def coupling_all(self, control_values):
        """Slab loads of the control, C(q), on interior test functions: row m
        is M(q_m - q_{m-1}) + (k/2) S (q_{m-1} + q_m); (M, ni).  Minus
        ``control_loads`` of the products of all vertices."""
        mass_q = pad_levels((self.mass_if @ control_values.T).T)
        stiff_q = pad_levels((self.stiff_if @ control_values.T).T)
        return -self.control_loads(mass_q, stiff_q)

    def coupling_transpose(self, slab_values):
        """Adjoint of coupling_all: state-type (M, ni) -> control-type
        (M-1, nv), with its time pairing by ``pair_hats``.  No solve path
        calls it: it stays as the all-vertex reference that the tests
        compose."""
        paired = np.empty((len(slab_values) - 1, slab_values.shape[1]))
        self.pair_hats(slab_values, paired)
        out = (self.mass_if.T @ (slab_values[:-1] - slab_values[1:]).T).T
        out += (self.stiff_if.T @ paired.T).T
        return out

    # -- quadrature loads ----------------------------------------------------

    def time_loads(self, g):
        """Loads of g at every slab's Gauss times, times the time weights,
        and the integral of g^2 over the space-time cylinder, both by
        ``quad`` in one evaluation of g; ((M, time_points, nv), float).
        ``source_slabs`` and ``control_pairing`` integrate the loads in
        time, and ``misfit_from_loads`` takes both.

        g is evaluated on the blocks of ``Quadrature.integrate``, in the
        calling thread.  Each block adds its loads, slice by slice, to the
        rows of its Gauss times, so a row is the bits of
        ``spatial_load_vector`` at that time, and returns g^2, so the square
        is ``integrate``'s own sum."""
        q = self.quad
        per_slab = q.times.shape[1]
        loads = np.zeros((q.times.size, self.mesh.num_nodes))

        def squares(m, j, t, part):
            values = _values(g, part, t)
            first = m[0] * per_slab + j[0]
            q.add_loads(loads[first : first + len(m)], values, part)
            return values * values

        square = q.integrate(squares)
        loads *= q.time_weights.reshape(-1, 1)
        return loads.reshape(q.times.shape + (-1,)), square

    def source_slabs(self, loads):
        """Slab integrals on interior vertices of the function whose
        ``time_loads`` are ``loads``; (M, ni)."""
        return loads.sum(axis=1)[:, self.interior]

    def control_pairing(self, loads):
        """L2(space-time) pairing of the function whose ``time_loads`` are
        ``loads`` with every control basis function; (M-1, nv)."""
        # Level l is the right end of slab l and the left end of slab l + 1.
        left = np.einsum("mj,mjv->mv", self.quad.lo, loads)
        right = np.einsum("mj,mjv->mv", self.quad.hi, loads)
        return right[:-1] + left[1:]

    def project_initial(self, u0):
        """L2 projection of u0 onto the interior P1 space; (ni,), by a mass
        factor made for this one solve and not kept."""
        if u0 is None:
            return np.zeros(self.mesh.num_interior)
        rhs = spatial_load_vector(self.quad, lambda x, y, t: u0(x, y), 0.0)
        projection = rhs[self.interior]
        SlabSystem(self.mass_ii).solve_in_place(projection)
        return projection

    def misfit_from_loads(self, state_values, control_values, loads, square):
        """|| (w + q) - g ||^2 over the space-time cylinder for the g whose
        ``time_loads`` are ``(loads, square)``, without evaluating g.

        At a Gauss time, w + q is the P1 function with nodal values u, and
        ``quad`` integrates a product of two such functions exactly, so the
        terms at that time are u . (mass u) times the time weight, minus
        twice u . loads.  This equals ``misfit_quadrature`` up to rounding.
        The terms are made one slab at a time, which keeps the temporaries
        small, and ``math.fsum`` adds them, so their order does not
        matter."""
        q = self.quad
        pad = pad_levels(control_values)
        full = np.zeros(self.mesh.num_nodes)
        terms = []
        for m in range(self.mesh.num_slabs):
            full[self.interior] = state_values[m]
            nodal = full + q.lo[m, :, None] * pad[m] + q.hi[m, :, None] * pad[m + 1]
            own = np.einsum("ij,ij->i", nodal, (self.mass @ nodal.T).T)
            cross = np.einsum("ij,ij->i", nodal, loads[m])
            terms.extend(q.time_weights[m] * own - 2.0 * cross)
        return math.fsum(terms) + square

    def misfit_quadrature(self, state_values, control_values, u_d):
        """|| (w + q) - u_d ||^2 over the space-time cylinder by quadrature.
        Each block subtracts w + q in place from the new array of values
        that u_d returns."""
        q = self.quad
        full = np.zeros((self.mesh.num_slabs, self.mesh.num_nodes))
        full[:, self.interior] = state_values
        pad = pad_levels(control_values)

        def squared_misfit(m, j, t, part):
            nodal = q.gather(full, m, part)[m - m[0]]
            nodal += q.in_time(q.gather(pad, m, part, levels=True), m, j)
            values = q.at_points(nodal)
            diff = difference(u_d(part.x, part.y, t), values, values.shape)
            diff *= diff
            return diff

        return q.integrate(squared_misfit)


# -- dense bilinear form (diagnostics and tests) -----------------------------


def bilinear_form(disc, v_values, w_values):
    """B(v, w) for dG(0) x P1 fields given as (M, ni) coefficient arrays.

    Sum of slab stiffness terms, inter-slab jumps paired with the later
    slab value, and the initial pairing; evaluated directly from the
    matrices, no quadrature."""
    V = np.asarray(v_values, dtype=float)
    W = np.asarray(w_values, dtype=float)
    k = disc.mesh.time_partition.k
    total = float(V[0] @ (disc.mass_ii @ W[0]))
    for m in range(len(V)):
        total += k * float(V[m] @ (disc.stiff_ii @ W[m]))
        if m >= 1:
            total += float((V[m] - V[m - 1]) @ (disc.mass_ii @ W[m]))
    return total


def coercivity_gap(disc, v_values):
    """B(v, v) minus the slab-summed gradient seminorm; nonnegative for every
    discrete state."""
    V = np.asarray(v_values, dtype=float)
    k = disc.mesh.time_partition.k
    grad = k * sum(float(v @ (disc.stiff_ii @ v)) for v in V)
    return bilinear_form(disc, V, V) - grad


def export_matrix_market(disc, directory):
    """Write mass, stiffness and control seminorm in Matrix Market format."""
    import scipy.io as sio

    os.makedirs(directory, exist_ok=True)
    sio.mmwrite(os.path.join(directory, "mass.mtx"), disc.mass)
    sio.mmwrite(os.path.join(directory, "stiffness.mtx"), disc.stiffness)
    sio.mmwrite(
        os.path.join(directory, "control_seminorm.mtx"), disc.seminorm.tocsr()
    )
