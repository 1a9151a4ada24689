"""Finite-element operators for the space-time discretization.

Spatial P1 mass/stiffness matrices, 1-D temporal P1 matrices, the Kronecker
operators acting on the control (space-time seminorm and mass), the coupling
between boundary control and interior state, and quadrature-based load
vectors.  Matrices are scipy CSR assembled from vectorized per-element
triplets.  The control operators are ``KroneckerSum``s that keep only their
temporal and spatial factors, so no matrix of the control-space size is
assembled except for export.  Every symmetric positive definite factor
is a LAPACK band Cholesky factor made by ``dpbtrf``, in an ordering that
keeps the band narrow: reverse Cuthill-McKee for the slab systems and the
level sets of the distance from the controlled edge for the extension's
time modes.  ``dpbtrf`` and ``dtbsv`` call LAPACK and BLAS through scipy's
Cython capsules with ctypes, which releases the GIL.  Each slab's matrix and
factor live in one ``SlabSystem``, cached per time-step size, which also
keeps the factor's transpose so that the sweeps solve in band order with
non-transposed substitutions only; the sweeps are sequential and call
scipy's dtbsv wrapper, which costs less per call.  One space-time
``Quadrature`` per discretization serves every load, the tracking misfit
and the error norms.

One process-wide pool, one thread kept on each CPU the process may use and
made on first use, runs the work that splits into independent ranges: the
``EnergyExtension``'s time modes from ``_SPLIT_WORK`` band entries up, and
the Gauss times of ``Quadrature.integrate`` and
``Discretization.time_loads`` from ``_QUADRATURE_SPLIT_WORK`` point
evaluations up.  Below its gate, with one CPU, or on a pool thread, the
work runs in the calling thread.  The ranges write disjoint results, which
the caller combines in a fixed order, so every answer is the same bits on
any number of CPUs.  While ``Quadrature.integrate`` runs, the process's
OpenBLAS runs on one thread, so its dot products sum alike whatever the
BLAS thread count.

Conventions: control coefficient arrays have shape (M-1, num_nodes) with
level l (0-based) sitting at time t_{l+1}; state-type arrays have shape
(M, num_interior) with row m on slab (t_m, t_{m+1}].  Flattened control
vectors are level-major, matching kron(time, space) ordering.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from queue import SimpleQueue

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, cython_blas, cython_lapack
from scipy.sparse import csgraph

from .spaces import ControlField


class AssemblyError(ValueError):
    """Raised for geometry or data that cannot be assembled."""


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

def _collapsed_triangle_rule(points_per_axis):
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


# 25-point rule, exact to degree 8; used for oracle-grade integration only.
_TRI_RULE_8 = _collapsed_triangle_rule(5)


def reference_triangle_rule(degree):
    """Barycentric points and unit-sum weights for the requested degree."""
    if degree <= 4:
        return _TRI_RULE_4
    if degree <= 8:
        return _TRI_RULE_8
    raise AssemblyError(f"no triangle rule of degree {degree}")


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
    bad = np.flatnonzero(tri.signed_areas <= 0)
    if bad.size:
        raise AssemblyError(
            f"cannot assemble on triangle {bad[0]}: non-positive area "
            f"{tri.signed_areas[bad[0]]:.3e}"
        )
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
    points = np.asarray(points, dtype=float)
    steps = np.diff(points)
    if np.any(steps <= 0):
        raise AssemblyError("time points must be strictly increasing")
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
    """CSR P A P^T = A[order][:, order], with sorted column indices."""
    permuted = matrix.tocsr()[order][:, order]
    permuted.sort_indices()
    return permuted


def _band_width(permuted):
    """Widest coupling i - j, i >= j, among a CSR matrix's stored entries."""
    rows = np.repeat(np.arange(permuted.shape[0]), np.diff(permuted.indptr))
    return int((rows - permuted.indices).max(initial=0))


def _lower_band(permuted, kd):
    """LAPACK lower band storage of a symmetric sparse matrix already in its
    band order, for a band of width ``kd`` that covers it: (kd + 1, n),
    Fortran-ordered, row d holding the d-th subdiagonal."""
    permuted = permuted.tocoo()
    lower = permuted.row >= permuted.col
    rows, cols = permuted.row[lower], permuted.col[lower]
    band = np.zeros((kd + 1, permuted.shape[0]), order="F")
    band[rows - cols, cols] = permuted.data[lower]
    return band


# -- GIL-free band kernels -----------------------------------------------------
#
# scipy's f2py wrappers of LAPACK and BLAS hold the GIL for the length of a
# call, so threads that call them run one at a time.  scipy also exports the
# routines as C function pointers in the Cython capsules of cython_lapack and
# cython_blas; a ctypes function made from such a pointer releases the GIL
# while it runs.  A pointer is taken only from an array whose dtype, shape
# and memory order ``_address`` has checked.

_INT_P = ctypes.POINTER(ctypes.c_int)
_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


def _capsule_function(module, name, *argtypes):
    capsule = module.__pyx_capi__[name]
    address = _CAPSULE_POINTER(capsule, _CAPSULE_NAME(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


# dpbtrf(uplo, n, kd, ab, ldab, info)
_DPBTRF = _capsule_function(
    cython_lapack, "dpbtrf",
    ctypes.c_char_p, _INT_P, _INT_P, ctypes.c_void_p, _INT_P, _INT_P,
)
# dtbsv(uplo, trans, diag, n, k, a, lda, x, incx)
_DTBSV = _capsule_function(
    cython_blas, "dtbsv",
    ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT_P, _INT_P,
    ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P,
)
_ONE = ctypes.c_int(1)
_DOUBLE = np.dtype(np.float64).itemsize


def _address(array, shape, order):
    """Data address of ``array`` once it is known to be a writeable float64
    array of ``shape``, contiguous in ``order`` ("C" or "F")."""
    flags = array.flags
    contiguous = flags.f_contiguous if order == "F" else flags.c_contiguous
    if not (
        array.dtype == np.float64
        and array.shape == shape
        and contiguous
        and flags.writeable
    ):
        raise ValueError(
            f"a band kernel needs a writeable float64 array of shape {shape} "
            f"in {order} order, not {array.dtype} {array.shape} with strides "
            f"{array.strides}"
        )
    return array.ctypes.data


def dpbtrf(band):
    """Factor, in place, the symmetric positive definite matrix whose lower
    band is ``band``, (kd + 1, n) float64 in Fortran order, into its
    Cholesky factor L in the same storage (LAPACK dpbtrf, GIL released).
    Every factor in ``dbc`` is made here."""
    kd1, n = band.shape
    address = _address(band, (kd1, n), "F")
    info = ctypes.c_int()
    _DPBTRF(
        b"L", ctypes.c_int(n), ctypes.c_int(kd1 - 1), address,
        ctypes.c_int(kd1), ctypes.byref(info),
    )
    if info.value != 0:
        raise AssemblyError(
            f"matrix is not positive definite: leading minor {info.value} "
            f"of the reordered matrix"
        )
    return band


def dtbsv(band, x, trans=False):
    """x <- L^-1 x, or L^-T x with ``trans``, in place, for the lower band
    ``band`` of L, (kd + 1, n) float64 in Fortran order, and x float64 and
    contiguous of length n (BLAS dtbsv, GIL released)."""
    kd1, n = band.shape
    a = _address(band, (kd1, n), "F")
    _DTBSV(
        b"L", b"T" if trans else b"N", b"N", ctypes.c_int(n),
        ctypes.c_int(kd1 - 1), a, ctypes.c_int(kd1), _address(x, (n,), "C"), _ONE,
    )
    return x


class SlabSystem:
    """One slab system: ``matrix``, the CSR M_ii + k S_ii, and its Cholesky
    factor in the permutation ``order``, both built once.

    ``ordered_matrix`` is the matrix in ``order``, P A P^T.  The factor L
    of it is kept twice, in LAPACK lower band storage and as L^T in upper
    band storage, so that both substitutions of ``solve_ordered`` are
    non-transposed BLAS dtbsv calls.  The transposed dtbsv on the lower
    band takes about twice as long as the non-transposed one on the upper
    copy, because it runs row-oriented dot products.  With the reverse
    Cuthill-McKee order of ``Discretization`` the band of a structured
    n x n mesh is n - 1 wide, so each of the two bands holds 2.0 MB at
    64x46.  The factor comes from ``dpbtrf``.  A sweep solves its slabs
    one after another, so the substitutions call scipy's dtbsv wrapper,
    which costs less per call than the GIL-free kernel, whose arguments
    ctypes converts one by one.  ``solve`` permutes, solves and unpermutes;
    the slab sweeps stay in ``order`` and check residuals against
    ``ordered_matrix`` themselves.
    """

    def __init__(self, matrix, order):
        self.matrix = matrix
        self.order = order
        self.ordered_matrix = _reorder(matrix, order)
        self.kd = _band_width(self.ordered_matrix)
        self._lower = dpbtrf(_lower_band(self.ordered_matrix, self.kd))
        n = self._lower.shape[1]
        # Upper band storage: row kd - d holds the d-th superdiagonal of L^T,
        # which is the d-th subdiagonal of L.
        self._upper = np.zeros_like(self._lower)
        for d in range(self.kd + 1):
            self._upper[self.kd - d, d:] = self._lower[d, : n - d]

    def solve_ordered(self, rhs):
        """Solve P A P^T x = rhs, with rhs and x in ``order``."""
        y = blas.dtbsv(self.kd, self._lower, rhs, lower=1)
        return blas.dtbsv(self.kd, self._upper, y, overwrite_x=1)

    def solve(self, rhs):
        x = np.empty_like(rhs)
        x[self.order] = self.solve_ordered(rhs[self.order])
        return x


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
        self.shape = (time.shape[0] * space.shape[0],) * 2

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


def _interior_time_blocks(mesh):
    mt, st = time_mass_stiffness(mesh.time_partition.points)
    M = mesh.num_slabs
    return mt[1:M, 1:M], st[1:M, 1:M]


# -- one pool of pinned threads (see the module docstring) ---------------------

_pool = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _usable_cpus():
    """The CPUs this process may run on, ascending; none where the platform
    does not say."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _pin_thread(cpus):
    """Pool initializer: mark this thread as a pool thread and keep it on
    the next CPU of ``cpus``.  A new thread starts on its creator's CPU, and
    the scheduler can take a second or more to move one of two busy threads
    to an idle CPU."""
    _pool_thread.active = True
    try:
        os.sched_setaffinity(0, {cpus.get_nowait()})
    except OSError:  # the CPU has left the affinity set: run unpinned
        pass


def _openblas_thread_setters():
    """``openblas_set_num_threads_local`` of each OpenBLAS loaded in this
    process (numpy and scipy may each load their own), found through
    /proc/self/maps; none where the file or the function is missing.
    Despite its name the function sets the library's thread count for the
    whole process; it returns the count it replaces."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return setters


_blas_setters = None  # looked up on first use
_blas_lock = threading.Lock()
_blas_users = 0
_blas_threads = []


@contextlib.contextmanager
def _blas_on_one_thread():
    """Run the body with every OpenBLAS of the process on one thread: the
    dot products of ``Quadrature.integrate``, which may run on the pool.
    The pool keeps every CPU busy already; BLAS threads of their own
    compete with it for the same CPUs (with two BLAS threads on a 2-core
    host the split error norms at 64x46 took 0.63-0.73 s against 0.35-0.47
    s in one thread), and a threaded dot product sums in another order, so
    its answer would depend on the thread count.  Concurrent callers share
    one saved count, restored by the last to leave."""
    global _blas_setters, _blas_users, _blas_threads
    with _blas_lock:
        if _blas_setters is None:
            _blas_setters = _openblas_thread_setters()
        if _blas_users == 0:
            _blas_threads = [setter(1) for setter in _blas_setters]
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                for setter, threads in zip(_blas_setters, _blas_threads):
                    setter(threads)


def _shared_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            cpus = _usable_cpus()
            free_cpus = SimpleQueue()
            for cpu in cpus:
                free_cpus.put(cpu)
            _pool = ThreadPoolExecutor(
                len(cpus), thread_name_prefix="dbc",
                initializer=_pin_thread, initargs=(free_cpus,),
            )
        return _pool


def _forget_pool():
    """In a forked child: the pool's threads were not copied into it, so a
    task submitted to the inherited pool would never run.  Drop the pool;
    the child makes its own on first use."""
    global _pool, _pool_lock, _blas_lock, _blas_users
    _pool = None
    _pool_lock = threading.Lock()
    _blas_lock = threading.Lock()
    _blas_users = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split_ranges(size, work, gate):
    """Contiguous ranges that cover range(size): one per usable CPU, at most
    ``size``, if ``work`` reaches ``gate``, else the one range (0, size)."""
    parts = len(_usable_cpus()) if work >= gate else 1
    parts = max(1, min(parts, size))
    edges = [size * i // parts for i in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _run_ranges(task, ranges, *args):
    """``task(lo, hi, *args)`` on every range: in the calling thread if
    there is one range or the caller is a pool thread, else one range per
    pool task while the caller waits.  Raises the failure of the first range
    that failed, once every range is done."""
    if len(ranges) == 1 or getattr(_pool_thread, "active", False):
        for lo, hi in ranges:
            task(lo, hi, *args)
        return
    pool = _shared_pool()
    pending = [pool.submit(task, lo, hi, *args) for lo, hi in ranges]
    futures.wait(pending)
    for future in pending:
        future.result()


# Below this many band entries over all time modes, levels * n * (kd + 1),
# the extension runs its modes in the calling thread: handing them to the
# pool and waiting for it cost about as much as the split saves.  Two
# extension solves on a 2-core host, one thread against two: 0.73 -> 0.99
# ms at 24x17 (0.2 M entries), 2.0 -> 1.75 ms at 32x23 (0.68 M), 11.4 ->
# 6.8 ms at 48x34 (3.5 M).
_SPLIT_WORK = 400_000


class EnergyExtension:
    """Exact solver for the interior-vertex block of the control seminorm.

    The control is optimized through its boundary trace; interior-vertex
    DOFs follow by minimizing the space-time H1 seminorm, which means
    solving with A_ii, the seminorm matrix restricted to interior-vertex
    DOFs.  A_ii = kron(Mt, S_ii) + kron(St, M_ii) is separable, so instead
    of factoring one large space-time operator we eigen-decompose the small
    interior time pencil St Z = Mt Z diag(theta) (Z^T Mt Z = I) and factor
    the 2-D operator S_ii + theta_j M_ii once per time mode, as a band
    Cholesky factor in ``order``.  S_ii and M_ii are put into lower band
    storage once, and each mode's band is formed from the two bands, with
    the values of the sparse sum entry by entry.

    The trace reaches the interior only through ``tail``, the interior
    vertices coupled to one of ``boxed_vertices``: an extension's
    right-hand side lives there, and its transpose reads only there.  The
    factor order puts the interior vertices by decreasing graph distance
    from the tail, so the tail is the last block and ``solve_from_tail`` and
    ``solve_to_tail`` skip the other half of a substitution.  The level
    sets of that distance set the band width ``kd``.  With one edge of the
    unit square boxed they are grid rows, so the band is n - 1 for
    ``unit_square_mesh(n)``, as narrow as the slab systems'.  With the whole
    boundary boxed the tail is a ring and so is every level set: at 64 the
    band is 303 wide and each mode factor holds 9.7 MB, against 63 and
    2.0 MB for the bottom edge.

    The modes are independent, so the factorization and every solve split
    them into contiguous ranges, one per CPU in the process's affinity set,
    and run each range on the module's shared pool, one thread kept on each
    CPU, while the caller waits.  The kernels (``dpbtrf``, ``dtbsv``)
    release the GIL, so the ranges run at the same time.  A mode's
    arithmetic does not depend on the split, so the answers are the same
    bits on any number of CPUs.  With one CPU, or fewer than
    ``_SPLIT_WORK`` band entries in all, everything runs in the calling
    thread.  The time transforms and the permutation into ``order`` are
    applied to all modes at once, outside the ranges.
    """

    def __init__(self, disc, boxed_vertices):
        mt, st = _interior_time_blocks(disc.mesh)
        theta, modes = sla.eigh(st.toarray(), mt.toarray())
        self.modes = modes
        levels, n = len(theta), disc.mesh.num_interior
        self._levels, self._size = levels, n
        coupled = disc.mass_if[:, boxed_vertices]
        self.tail = np.flatnonzero(np.diff(coupled.indptr))
        distance = csgraph.dijkstra(
            disc.mass_ii, unweighted=True, indices=self.tail, min_only=True
        )
        # Farthest first; a stable sort keeps the tail, at distance 0, last
        # and in the ascending order of ``tail``.
        self.order = np.argsort(-distance, kind="stable")
        self._unorder = np.argsort(self.order)
        stiff = _reorder(disc.stiff_ii, self.order)
        mass = _reorder(disc.mass_ii, self.order)
        self.kd = max(_band_width(stiff), _band_width(mass))
        # Mode j's factor is bands[j].T: (kd + 1, n) in Fortran order.
        self._bands = np.empty((levels, n, self.kd + 1))
        self._bands_address = _address(self._bands, self._bands.shape, "C")

        self._ranges = _split_ranges(
            levels, levels * n * (self.kd + 1), _SPLIT_WORK
        )
        _run_ranges(
            self._factor, self._ranges, theta,
            _lower_band(stiff, self.kd), _lower_band(mass, self.kd),
        )

    def _factor(self, lo, hi, theta, stiff_band, mass_band):
        for j in range(lo, hi):
            band = self._bands[j].T
            np.multiply(mass_band, theta[j], out=band)
            band += stiff_band
            dpbtrf(band)

    def _substitute(self, lo, hi, work, steps):
        """Apply ``steps`` to the rows lo:hi of ``work``, the address of a
        checked (levels, n) array in ``order``.  A step (trans, start)
        solves in place on row j from ``start`` on with the trailing block
        of mode j's L, or of its transpose."""
        n, ld = self._size, self.kd + 1
        kd, ldab = ctypes.c_int(self.kd), ctypes.c_int(ld)
        calls = [(trans, ctypes.c_int(n - start), start) for trans, start in steps]
        for j in range(lo, hi):
            for trans, size, start in calls:
                first = j * n + start
                _DTBSV(
                    b"L", trans, b"N", size, kd,
                    self._bands_address + first * ld * _DOUBLE, ldab,
                    work + first * _DOUBLE, _ONE,
                )

    def _solve_modes(self, work, *steps):
        address = _address(work, (self._levels, self._size), "C")
        _run_ranges(self._substitute, self._ranges, address, steps)

    def _to_modes(self, rhs):
        """The (levels, n) ``rhs`` in the time modes and in ``order``."""
        return np.take(self.modes.T @ rhs, self.order, axis=1)

    def _from_modes(self, solved):
        return self.modes @ np.take(solved, self._unorder, axis=1)

    def solve(self, rhs):
        """Solve A_ii X = rhs for a level-major rhs, flat or of shape
        (levels, num_interior); X has shape (levels, num_interior)."""
        work = self._to_modes(rhs.reshape(self._levels, self._size))
        self._solve_modes(work, (b"N", 0), (b"T", 0))
        return self._from_modes(work)

    def solve_from_tail(self, tail_rhs):
        """``solve`` of the right-hand side that is ``tail_rhs``, level-major
        over the tail, on the tail and zero elsewhere; (levels,
        num_interior).  Zero off the tail, the right-hand side makes the
        forward substitution zero until the tail."""
        tail_rhs = tail_rhs.reshape(self._levels, len(self.tail))
        start = self._size - len(self.tail)
        work = np.zeros((self._levels, self._size))
        work[:, start:] = self.modes.T @ tail_rhs
        self._solve_modes(work, (b"N", start), (b"T", 0))
        return self._from_modes(work)

    def solve_to_tail(self, rhs):
        """The tail columns of ``solve(rhs)``; (levels, len(tail)).  Read
        only on the tail, the answer needs the backward substitution on the
        tail alone."""
        start = self._size - len(self.tail)
        work = self._to_modes(rhs.reshape(self._levels, self._size))
        self._solve_modes(work, (b"N", 0), (b"T", start))
        return self.modes @ work[:, start:]


# Below this many point evaluations, quadrature points * triangles * Gauss
# times, ``Quadrature.integrate`` and ``Discretization.time_loads`` run in the
# calling thread: two threads that hand the GIL back and forth between small
# numpy calls lose more than the second CPU gains.  Three error norms at
# bump-case levels on a 2-core host, one thread against two: 25 -> 28 ms at
# 24x17 (0.24 M evaluations), 58 -> 41-68 ms at 32x23 (0.57 M), 180 -> 111
# ms at 48x34 (1.9 M); the loads gain from 24x17 up.
_QUADRATURE_SPLIT_WORK = 400_000


class Quadrature:
    """One space-time quadrature rule on a mesh: a triangle rule of degree
    ``quad_degree`` on every triangle times a ``time_quad_points``-point Gauss
    rule on every slab.

    Spatial arrays have shape (nq, nt), one row per rule point: ``x`` and
    ``y`` are the points mapped onto every triangle and ``weights`` the rule
    weights times the triangle areas.  ``bary`` holds the barycentric values
    of the points, (nq, 3), and ``scatter`` the (nv, nq * nt) sparse map that
    sums point values, weighted, onto the P1 test functions, so a load
    vector is one matvec.  Temporal arrays have shape (M, time_quad_points):
    ``times`` and ``time_weights`` are each slab's Gauss rule, and ``lo`` and
    ``hi`` the P1-in-time hats of the slab's left and right end at ``times``.

    From ``_QUADRATURE_SPLIT_WORK`` point evaluations, nq * nt * M *
    time_quad_points, up, ``integrate`` and ``Discretization.time_loads``
    split the Gauss times into one contiguous range per CPU (``split``) and
    run the ranges on the module's shared pool.  Each Gauss time's result
    does not depend on the split, and the caller combines them in a fixed
    order, so both give the same bits on any number of CPUs.  ``integrate``
    runs the process's OpenBLAS on one thread (``_blas_on_one_thread``),
    so its dot products do not depend on the BLAS thread count either.
    """

    def __init__(self, mesh, quad_degree, time_quad_points):
        tri = mesh.triangulation
        bary, rule_weights = reference_triangle_rule(quad_degree)
        self.triangles = tri.triangles
        self.bary = bary
        # The points are the P1 interpolants of the vertex coordinates.
        self.x = self.interpolate(tri.vertices[:, 0])
        self.y = self.interpolate(tri.vertices[:, 1])
        self.weights = np.outer(rule_weights, tri.signed_areas)
        nq, nt = self.x.shape
        rows = np.broadcast_to(self.triangles, (nq, nt, 3))
        cols = np.broadcast_to(np.arange(nq * nt).reshape(nq, nt, 1), (nq, nt, 3))
        vals = bary[:, None, :] * self.weights[:, :, None]
        self.scatter = sp.csr_matrix(
            (vals.ravel(), (rows.ravel(), cols.ravel())),
            shape=(tri.num_vertices, nq * nt),
        )

        pts = mesh.time_partition.points
        left, right = pts[:-1, None], pts[1:, None]
        self.times, self.time_weights = gauss_interval(time_quad_points, left, right)
        self.lo = (right - self.times) / (right - left)
        self.hi = (self.times - left) / (right - left)

    def interpolate(self, nodal):
        """Values of the P1 field with vertex values ``nodal`` at the points;
        (nq, nt)."""
        return self.bary @ nodal[self.triangles].T

    def split(self):
        """The ranges of Gauss times, in ``times.ravel()`` order, that a
        quadrature over all of them splits into."""
        times = self.times.size
        return _split_ranges(times, self.x.size * times, _QUADRATURE_SPLIT_WORK)

    def integrate(self, integrand):
        """Space-time integral of ``integrand(m, j, t)``, the integrand's
        values at the points at the j-th Gauss time t of slab m.

        Each range of ``split`` evaluates its integrand values and their
        spatial sums on a pool thread; the caller adds the time-weighted
        sums in slab and time order, so the integral is the same bits on
        any number of CPUs.  The integrand is called from several threads
        at once, so it must not change shared state."""
        times = self.times.ravel()
        per_slab = self.times.shape[1]
        sums = np.empty(times.size)

        def evaluate(lo, hi):
            for i in range(lo, hi):
                m, j = divmod(i, per_slab)
                sums[i] = np.vdot(self.weights, integrand(m, j, times[i]))

        with _blas_on_one_thread():
            _run_ranges(evaluate, self.split())
        total = 0.0
        for weight, spatial in zip(self.time_weights.ravel(), sums):
            total += weight * float(spatial)
        return total


def spatial_load_vector(quad, g, t):
    """All-vertex load vector of x, y -> g(x, y, t) by the spatial rule of
    ``quad``."""
    vals = np.asarray(g(quad.x, quad.y, t), dtype=float)
    return quad.scatter @ np.broadcast_to(vals, quad.x.shape).ravel()


# Bytes of g values that ``Discretization.time_loads`` evaluates at once,
# over all the ranges it runs at the same time.
_LOAD_CHUNK_BYTES = 4 * 2**20


class Discretization:
    """All operators for one space-time mesh.

    Heavy objects (spatial matrices, quadrature geometry) are built once and
    shared by the forward, adjoint and optimization routines.  ``seminorm``
    and ``control_mass``, the space-time H1 seminorm and L2 mass of the
    control, are ``KroneckerSum``s of the temporal and spatial matrices.
    Slab systems are built on first use by ``slab_solver``, factored in the
    one ``slab_order``, and cached on the instance.  The sweeps march in
    that order too, with ``ordered_mass_ii`` and the ``sweep_buffers``;
    ``max_slab_residual`` is the largest relative residual that they have
    checked so far.
    ``quad_degree`` and ``time_quad_points`` choose the space-time rule that
    every load, the misfit and the error norms integrate with.
    """

    def __init__(self, mesh, quad_degree=4, time_quad_points=2):
        self.mesh = mesh
        tri = mesh.triangulation
        self.mass, self.stiffness = assemble_mass_stiffness(tri)
        idx = tri.interior_indices
        self.interior = idx
        self.mass_ii = self.mass[idx][:, idx].tocsr()
        self.stiff_ii = self.stiffness[idx][:, idx].tocsr()
        self.mass_if = self.mass[idx, :].tocsr()
        self.stiff_if = self.stiffness[idx, :].tocsr()
        self.mass_fi = self.mass_if.T.tocsr()
        self.stiff_fi = self.stiff_if.T.tocsr()
        # Space-time H1 seminorm and L2 mass on the control space, with the
        # t_0 and t_M levels eliminated; both symmetric positive definite,
        # and both kept as their temporal and spatial factors.
        mt, st = _interior_time_blocks(mesh)
        self.seminorm = KroneckerSum((mt, self.stiffness), (st, self.mass))
        self.control_mass = KroneckerSum((mt, self.mass))
        self.quad = Quadrature(mesh, quad_degree, time_quad_points)
        self.grads, self.areas = triangle_geometry(tri)
        # Two steps of a uniform partition differ only by the rounding of
        # the points T*i/M, at most one ulp of T per point.
        self._same_step = 4.0 * np.spacing(mesh.time_partition.final_time)
        self._slab_systems = {}
        # Every slab matrix has the pattern of mass_ii, so one reverse
        # Cuthill-McKee order narrows the band of all of them.
        self.slab_order = csgraph.reverse_cuthill_mckee(
            self.mass_ii, symmetric_mode=True
        )
        # The sweeps march in that order, so they apply mass_ii in it too.
        self.ordered_mass_ii = _reorder(self.mass_ii, self.slab_order)
        self._sweep_buffers = None
        # Largest relative residual of a checked slab solve so far.
        self.max_slab_residual = 0.0

    # -- slab systems ------------------------------------------------------

    def slab_solver(self, k):
        """Cached ``SlabSystem`` for M + k*S on the interior space.

        A step within rounding of a cached step (``_same_step``) reuses that
        step's system, and so its k: the steps of a uniform partition differ
        in their last bits, and this way it factorizes exactly once."""
        key = float(k)
        system = self._slab_systems.get(key)
        if system is None:
            for step, cached in self._slab_systems.items():
                if abs(step - key) <= self._same_step:
                    return cached
            system = SlabSystem(self.mass_ii + key * self.stiff_ii, self.slab_order)
            self._slab_systems[key] = system
        return system

    def sweep_buffers(self):
        """Work arrays of a slab sweep, allocated on first use and shared by
        every sweep: right-hand sides and solutions in ``slab_order``,
        (M, ni) each, and the solutions transposed, (ni, M), for the
        residual check."""
        if self._sweep_buffers is None:
            shape = (self.mesh.num_slabs, self.mesh.num_interior)
            self._sweep_buffers = (
                np.empty(shape), np.empty(shape), np.empty(shape[::-1])
            )
        return self._sweep_buffers

    # -- control coupling and pairings --------------------------------------

    def coupling_all(self, control_values):
        """Slab loads of the control: row m is M(q_m - q_{m-1}) +
        (k_m/2) S (q_{m-1} + q_m) on interior test functions; (M, ni)."""
        M = self.mesh.num_slabs
        pad = np.zeros((M + 1, self.mesh.num_nodes))
        pad[1:M] = control_values
        diff = pad[1:] - pad[:-1]
        ssum = pad[1:] + pad[:-1]
        k = self.mesh.time_partition.steps
        return (self.mass_if @ diff.T).T + 0.5 * k[:, None] * (
            self.stiff_if @ ssum.T
        ).T

    def coupling_transpose(self, slab_values):
        """Adjoint of coupling_all: state-type (M, ni) -> control-type
        (M-1, nv)."""
        phi = slab_values
        k = self.mesh.time_partition.steps
        w = k[:, None] * phi
        out = (self.mass_fi @ (phi[:-1] - phi[1:]).T).T
        out += 0.5 * (self.stiff_fi @ (w[:-1] + w[1:]).T).T
        return out

    def pair_state_control(self, slab_values):
        """L2(space-time) pairing of a state-type field with every control
        basis function; (M, ni) -> (M-1, nv)."""
        wk = self.mesh.time_partition.steps[:, None] * slab_values
        return 0.5 * (self.mass_fi @ (wk[:-1] + wk[1:]).T).T

    # -- quadrature loads ----------------------------------------------------

    def time_loads(self, g):
        """Loads of g at every slab's Gauss times, times the time weights;
        (M, time_quad_points, nv), zero for g None.  ``source_slabs`` and
        ``control_pairing`` integrate them in time.

        g is evaluated on a chunk of Gauss times at once, broadcasting t
        over a leading axis, and one product with ``Quadrature.scatter``
        turns the chunk into its loads.  Each range of ``Quadrature.split``
        runs its chunks on a pool thread, so g is called from several
        threads at once, and the chunks in flight hold at most
        ``_LOAD_CHUNK_BYTES`` of g values together.  A load's sums run over
        one row of ``scatter`` in its stored order, whatever the chunk, so
        the loads are the same bits on any number of CPUs."""
        q = self.quad
        times = q.times.ravel()
        loads = np.zeros((times.size, self.mesh.num_nodes))
        if g is not None:
            ranges = q.split()
            chunk = max(1, _LOAD_CHUNK_BYTES // (8 * q.x.size * len(ranges)))

            def load(lo, hi):
                for start in range(lo, hi, chunk):
                    t = times[start : min(start + chunk, hi)]
                    vals = np.asarray(g(q.x, q.y, t[:, None, None]), dtype=float)
                    vals = np.broadcast_to(vals, t.shape + q.x.shape)
                    loads[start : start + len(t)] = (
                        q.scatter @ vals.reshape(len(t), -1).T
                    ).T

            _run_ranges(load, ranges)
            loads *= q.time_weights.reshape(-1, 1)
        return loads.reshape(q.times.shape + (self.mesh.num_nodes,))

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
        """L2 projection of u0 onto the interior P1 space; (ni,)."""
        if u0 is None:
            return np.zeros(self.mesh.num_interior)
        rhs = spatial_load_vector(self.quad, lambda x, y, t: u0(x, y), 0.0)
        # The mass solve is the k = 0 slab system, so it shares the cache.
        return self.slab_solver(0.0).solve(rhs[self.interior])

    def misfit_quadrature(self, state_values, control_values, u_d):
        """|| (w + q) - u_d ||^2 over the space-time cylinder by quadrature."""
        q = self.quad
        M = self.mesh.num_slabs
        full = np.zeros((M, self.mesh.num_nodes))
        full[:, self.interior] = state_values
        pad = np.zeros((M + 1, self.mesh.num_nodes))
        if control_values is not None:
            pad[1:M] = control_values

        def squared_misfit(m, j, t):
            nodal = full[m] + q.lo[m, j] * pad[m] + q.hi[m, j] * pad[m + 1]
            diff = q.interpolate(nodal)
            if u_d is not None:
                diff = diff - u_d(q.x, q.y, t)
            return diff * diff

        return q.integrate(squared_misfit)


# -- dense bilinear form (diagnostics and tests) -----------------------------


def bilinear_form(disc, v_values, w_values):
    """B(v, w) for dG(0) x P1 fields given as (M, ni) coefficient arrays.

    Sum of slab stiffness terms, inter-slab jumps paired with the later
    slab value, and the initial pairing; evaluated directly from the
    matrices, no quadrature."""
    V = np.asarray(v_values, dtype=float)
    W = np.asarray(w_values, dtype=float)
    k = disc.mesh.time_partition.steps
    total = float(V[0] @ (disc.mass_ii @ W[0]))
    for m in range(len(k)):
        total += k[m] * float(V[m] @ (disc.stiff_ii @ W[m]))
        if m >= 1:
            total += float((V[m] - V[m - 1]) @ (disc.mass_ii @ W[m]))
    return total


def coercivity_gap(disc, v_values):
    """B(v, v) minus the slab-summed gradient seminorm; nonnegative for every
    discrete state."""
    V = np.asarray(v_values, dtype=float)
    k = disc.mesh.time_partition.steps
    grad = sum(
        k[m] * float(V[m] @ (disc.stiff_ii @ V[m])) for m in range(len(k))
    )
    return bilinear_form(disc, V, V) - grad


def control_state_form(disc, control, v_values):
    """B(q, v) of a control against a state-type field: the coupling pairing
    sum_m C_m(q)^T v_m."""
    values = control.values if isinstance(control, ControlField) else control
    return float(np.sum(disc.coupling_all(values) * np.asarray(v_values)))


def export_matrix_market(disc, directory):
    """Write mass, stiffness and control seminorm in Matrix Market format."""
    import os

    import scipy.io as sio

    os.makedirs(directory, exist_ok=True)
    sio.mmwrite(os.path.join(directory, "mass.mtx"), disc.mass)
    sio.mmwrite(os.path.join(directory, "stiffness.mtx"), disc.stiffness)
    sio.mmwrite(
        os.path.join(directory, "control_seminorm.mtx"), disc.seminorm.tocsr()
    )
