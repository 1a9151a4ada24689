"""Band kernels, the thread pool and the heap policy: the one module of
``dbc`` that touches ctypes, raw addresses, band storage or threads.

Every factor in ``dbc`` is a LAPACK band Cholesky factor A = U^T U made by
``dpbtrf`` in upper band storage, and every band substitution is a BLAS
dtbsv, both called through scipy's Cython capsules with ctypes, which
releases the GIL.  A pointer is taken only from an array whose dtype, shape
and memory order ``_address`` has checked.

Upper storage, because the transposed pass on a lower band, dtbsv
('L', 'T'), was the slow one: 6.42 ms over the 45 mode factors of the
extension at 64x46, against 3.19 ms for ('U', 'T').  So the slab system,
too, keeps U alone and solves with ('U', 'T') and then ('U', 'N'), with no
second band holding U^T.

The extension's mode factors are bands of one of two layouts (see
``dbc.assembly.EnergyExtension``): at 64x46 the band layout's are 63 wide
and take 87.2 MiB, the folded layout's four blocks per mode 32 wide and
45.0 MiB.  The kernels see one band either way.

One process-wide pool, one thread kept on each CPU the process may use and
made on first use, runs the work that ``split_ranges`` splits into
independent ranges: the extension's time modes, from one gate of work up,
and nothing else.  Below the gate, with one CPU, or on a pool thread, the
work runs in the calling thread.  ``start_ranges`` hands the ranges to the
pool and returns their wait, so the caller goes on while the pool works:
set-up evaluates the data while the pool factors the extension's modes,
in one task per range.  ``run_ranges`` is that start followed by its wait.
The ranges write
disjoint results, which the caller combines in a fixed order, so every
answer is the same bits on any number of CPUs.

Importing the module sets every OpenBLAS that the process has loaded to one
thread for good, so no BLAS threads compete with the pool, and every
product sums alike whatever the BLAS thread count.  It also fixes glibc's
mmap and trim thresholds, where the C library has ``mallopt``, so that the
arrays a Hessian action frees go back to the heap and are reused without
page faults (see ``_HEAP_THRESHOLDS``).
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from queue import SimpleQueue

import numpy as np
from scipy.linalg import cython_blas, cython_lapack


class AssemblyError(ValueError):
    """Raised for geometry or data that cannot be assembled."""


def band_width(matrix):
    """Widest coupling i - j, i >= j, among a CSR matrix's stored entries."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return int((rows - matrix.indices).max(initial=0))


def _upper_band(matrix, kd):
    """LAPACK upper band storage of a symmetric sparse matrix already in its
    band order, for a band of width ``kd`` that covers it: (kd + 1, n),
    Fortran-ordered, row kd - d holding the d-th superdiagonal, so row kd
    holds the diagonal."""
    matrix = matrix.tocoo()
    upper = matrix.row <= matrix.col
    rows, cols = matrix.row[upper], matrix.col[upper]
    band = np.zeros((kd + 1, matrix.shape[0]), order="F")
    band[kd + rows - cols, cols] = matrix.data[upper]
    return band


# -- GIL-free band kernels -----------------------------------------------------
#
# scipy's f2py wrappers of LAPACK and BLAS hold the GIL for the length of a
# call, so threads that call them run one at a time.  scipy also exports the
# routines as C function pointers in the Cython capsules of cython_lapack and
# cython_blas; a ctypes function made from such a pointer releases the GIL
# while it runs.

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
_BYTES = ctypes.c_char * 0
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
    # A zero-length ctypes view of the buffer (of the transpose, which starts
    # there too, in Fortran order) costs about 1 us less than ``ctypes.data``.
    view = _BYTES.from_buffer(array if order == "C" else array.T)
    return ctypes.addressof(view)


def dpbtrf(band):
    """Factor, in place, the symmetric positive definite matrix whose upper
    band is ``band``, (kd + 1, n) float64 in Fortran order, into its
    Cholesky factor U, A = U^T U, in the same storage (LAPACK dpbtrf,
    GIL released).  Every factor in ``dbc`` is made here."""
    kd1, n = band.shape
    address = _address(band, (kd1, n), "F")
    info = ctypes.c_int()
    _DPBTRF(
        b"U", ctypes.c_int(n), ctypes.c_int(kd1 - 1), address,
        ctypes.c_int(kd1), ctypes.byref(info),
    )
    if info.value != 0:
        raise AssemblyError(
            f"matrix is not positive definite: leading minor {info.value} "
            f"of the reordered matrix"
        )
    return band


class SlabSystem:
    """One slab system: the CSR ``matrix`` M_ii + k S_ii, in the band order
    of the mesh's ``interior_indices``, and its Cholesky factor U, both
    built once.

    U is kept once, in LAPACK upper band storage, and a solve is two BLAS
    dtbsv calls on it: ('U', 'T') with U^T, then ('U', 'N') with U.  The
    band of a structured n x n mesh is n - 1 wide, so it holds 2.0 MB at
    64x46.  Every argument of the two dtbsv calls but the vector's address
    is made once, here.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self.kd = band_width(matrix)
        self._upper = dpbtrf(_upper_band(matrix, self.kd))
        ld, n = self._upper.shape
        self.size = n
        self._kernel = (
            ctypes.c_int(n), ctypes.c_int(self.kd), ctypes.c_int(ld),
            _address(self._upper, (ld, n), "F"),
        )

    def solve_in_place(self, x):
        """Overwrite ``x``, a writeable contiguous float64 vector of ``size``
        entries, with the solution of ``matrix`` y = x."""
        n, kd, ld, upper = self._kernel
        address = _address(x, (self.size,), "C")
        _DTBSV(b"U", b"T", b"N", n, kd, upper, ld, address, _ONE)
        _DTBSV(b"U", b"N", b"N", n, kd, upper, ld, address, _ONE)


def factor_shifted(stiff, mass, shifts, kd, ranges):
    """Start the band Cholesky factors of stiff + s mass for every s in
    ``shifts``, for two symmetric CSR matrices in a band order whose band
    ``kd`` covers both, and return (bands, wait).  ``bands`` is a
    (len(shifts), n, kd + 1) array whose j-th entry, transposed, is factor
    j's upper band, formed from the two bands built once, so entry kd of
    each row is a diagonal entry; it holds the factors U_j once ``wait()``,
    the wait of ``start_ranges`` with each of ``ranges`` as one task, has
    returned.  A task per range, not one pool task for all the modes: with
    set-up evaluating the data meanwhile, 12 alternating pairs of fresh
    processes on a 2-core host timed set-up of the band layout at 32x23 at
    a median 35.4 ms with two ranges against 37.8 ms with one task (one
    task faster in 3 of 12), and 10 pairs of the folded layout at 64x46 at
    244 against 252 ms (3 of 10), whole 64x46 solves at 0.680 against
    0.648 s (6 of 10, inside a spread of 0.08 s)."""
    bands = np.empty((len(shifts), stiff.shape[0], kd + 1))
    stiff_band, mass_band = _upper_band(stiff, kd), _upper_band(mass, kd)

    def factor(lo, hi):
        for j in range(lo, hi):
            band = bands[j].T
            np.multiply(mass_band, shifts[j], out=band)
            band += stiff_band
            dpbtrf(band)

    return bands, start_ranges(factor, ranges)


def substitute_bands(bands, ranges, work, *steps):
    """Apply ``steps`` in place to every row j of ``ranges`` in ``work``, a
    C-contiguous (len(bands), n) array, with factor j of ``bands`` as
    ``factor_shifted`` makes them.  A step (trans, start) substitutes the
    entries from ``start`` on with the trailing block of U_j^T (trans b"T",
    the forward substitution of A_j = U_j^T U_j) or of U_j (b"N", the
    backward one).  In upper storage a trailing block's band starts at its
    first column and reads no entry above the block."""
    levels, n, ld = bands.shape
    factors = _address(bands, bands.shape, "C")
    rows = _address(work, (levels, n), "C")
    kd, ldab = ctypes.c_int(ld - 1), ctypes.c_int(ld)
    calls = [(trans, ctypes.c_int(n - start), start) for trans, start in steps]

    def substitute(lo, hi):
        for j in range(lo, hi):
            for trans, size, start in calls:
                first = j * n + start
                _DTBSV(
                    b"U", trans, b"N", size, kd,
                    factors + first * ld * _DOUBLE, ldab,
                    rows + first * _DOUBLE, _ONE,
                )

    run_ranges(substitute, ranges)


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


# ``dbc`` keeps every usable CPU busy with its own pool, so OpenBLAS threads
# would only compete with it, and a threaded product sums in an order that
# depends on the thread count: with two, the state's last bits differed
# between one and two CPUs.  So every OpenBLAS loaded by now, numpy's and
# scipy's, runs on one thread from this import on.
for _setter in _openblas_thread_setters():
    _setter(1)


# glibc's malloc moves its mmap and trim thresholds (128 KiB at first, 32
# MiB at most) by what was freed before, so a Hessian action's temporaries,
# 128 KiB to 1.5 MB, could be unmapped or trimmed and faulted back in at the
# next action.  Fixed, the thresholds keep every block below 32 MiB in the heap
# and trim only 64 MiB of free top: a 64x46 ``pdas_solve`` takes 344 minor
# faults instead of 41,137.  Each pair is (M_MMAP_THRESHOLD or
# M_TRIM_THRESHOLD, value); 32 MiB is the largest mmap threshold glibc
# accepts.
_HEAP_THRESHOLDS = ((-3, 32 << 20), (-1, 64 << 20))


def _fix_heap_thresholds():
    """Set ``_HEAP_THRESHOLDS`` with the C library's ``mallopt``; return what
    each call returned (1 for success), none where there is no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return []
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return [mallopt(option, value) for option, value in _HEAP_THRESHOLDS]


_heap_thresholds_set = _fix_heap_thresholds()


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
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


# Below this much work a split runs in the calling thread: handing the
# ranges to the pool and waiting for it cost about as much as the split
# saves.  Above it the pool also factors while its caller goes on.  The work
# is band entries over all time modes, levels * n * (kd + 1), of the
# extension, the only split, in the band of its layout.  Band layout: two
# threads lost at 0.2 M entries (24x17) and gained at 0.68 M (32x23).
# Folded layout, with the tail solves of an action timed: two threads lost
# 12% at 0.11 M (24x17 folded), broke even at 0.36 M (32x23 folded) and
# gained 12% at 1.8 M (48x34), so the same gate serves.  No level folds
# below the split gate: with the bottom edge boxed the first to fold is
# 64x46, at 5.9 M, and with the whole boundary, whose band layout is four
# times as wide, 40x28, at 0.86 M.  The quadrature's blocks do not split:
# two threads that hand the GIL back and forth between their small numpy
# calls gain little.
_SPLIT_WORK = 400_000


def split_ranges(size, work):
    """Contiguous ranges that cover range(size): one per usable CPU, at most
    ``size``, if ``work`` reaches ``_SPLIT_WORK``, else the one range
    (0, size)."""
    parts = len(_usable_cpus()) if work >= _SPLIT_WORK else 1
    parts = max(1, min(parts, size))
    edges = [size * i // parts for i in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def start_ranges(task, ranges):
    """Start ``task(lo, hi)`` on every range and return a wait, a function of
    no arguments that returns once every range is done and then raises the
    failure of the first range that failed, if one did.  With one range, or
    on a pool thread, the ranges run now, in the calling thread, and the
    wait does nothing; else each range is one pool task, and the caller
    goes on while they run."""
    if len(ranges) == 1 or getattr(_pool_thread, "active", False):
        for lo, hi in ranges:
            task(lo, hi)
        return lambda: None
    pool = _shared_pool()
    pending = [pool.submit(task, lo, hi) for lo, hi in ranges]

    def wait():
        futures.wait(pending)
        for future in pending:
            future.result()

    return wait


def run_ranges(task, ranges):
    """``task(lo, hi)`` on every range, as ``start_ranges`` runs them, while
    the caller waits."""
    start_ranges(task, ranges)()
