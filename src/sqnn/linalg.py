"""Dense real linear algebra for the one-shot least-squares trainer.

The factorizations are delegated to LAPACK; the truncation rule and the
minimum-norm solve are implemented here so their numerical contracts are
explicit. Solving goes through the SVD or a QR of the design matrix, not
the normal equations, which would square the condition number.

The OpenBLAS that numpy bundles: _openblas binds every routine this module
calls (_ROUTINES: the thread-count getter and setter, and the LAPACKE _work
routines of dgesdd, dgelsd, dgeqrt, dgemqrt and dtrtrs, with 64-bit integers)
on first use, or returns None if there is no such library or it lacks any
one of them. So either every routine below is used, or none is: svd then
calls np.linalg.svd and the thread guard does nothing. Where numpy bundles
MKL, Accelerate or a system BLAS, that is the case.

Memory: svd, which serves the small solves (WDBC's), calls LAPACK's
divide-and-conquer dgesdd (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16,
1995) with JOBZ='O' on one Fortran-ordered copy of the matrix. dgesdd
writes U (or V.T for a wide matrix) over that copy, so the factorization
holds one matrix-sized array beyond its input, plus the workspace LAPACK
asks for, where np.linalg.svd holds three: its working copy, its own U and
the returned U. With overwrite_a (lls_solve's overwrite_x) set, a
writeable, Fortran-ordered float64 matrix is itself that working array and
no copy is made, as for a design that lls_train's row source builds whole.
np.linalg.svd ignores the flag.

Threads: a matrix of at most _ONE_THREAD_MAX_CELLS cells (m * n) is
factorized on one OpenBLAS thread, and the earlier count is restored
afterwards, also when the factorization raises. On a 2-core x86-64 host
(OpenBLAS 0.3.31) one thread beat two from 512 x 31 up to 2,000 x 301
(69 vs 82 ms), and two beat one at 4,000 x 500 (274 vs 331 ms) and at
12,665 x 785 (1,525 vs 2,025 ms). The count is process-wide, so while a
small SVD runs every OpenBLAS call of the process uses one thread. The
guard only lowers the count, so OPENBLAS_NUM_THREADS still caps it.

Large designs: lls_solve hands a design of more than _ONE_THREAD_MAX_CELLS
cells (MNIST's) to LAPACK's least-squares driver dgelsd, which has the same
truncation rule and never forms U. A tall one, m >= int(1.6 n) (MNTHR, where
dgelsd would QR first by dgeqrf's matrix-vector panels), is QR factorized in
row blocks (Demmel et al., SIAM J. Sci. Comput. 34, 2012) by dgeqrt, whose
panel is recursive and GEMM-rich (Elmroth & Gustavson, IBM J. Res. Dev. 44,
2000): each block is factored stacked under the running R, and dgemqrt applies
Q.T to the right-hand side. dtrtrs then back-substitutes the n x n R if
||R||_F ||R^-1||_F rcond <= 2**-10 (rcond of the full shape): as s_max <=
||R||_F and 1 / s_min <= ||R^-1||_F, dgelsd would truncate nothing. The
diagonals of R and R^-1 (1 / r_ii) bound both norms below in O(n), which
fails an exactly rank-deficient R (an r_ii near 0) at once; else dtrtrs on
64-column slices of the identity and R's own slices give them. Only a
well-conditioned R gains (6.2 ms, not dgelsd's 130, on the MNIST stand-in);
any other goes to dgelsd. An ndarray is one block, in place under overwrite_x.
lls_train's row source comes in balanced blocks of mb rows, _BLOCK_CELLS
cells at most, each checked for non-finite cells before it is factorized, in
one (n + mb) x n buffer: at 12,665 x 785, 3 blocks in 30.0 MiB, not the
75.8 MiB design; each later block factors R again (2 n^3 flops: +12.6% there).
So mnist-pair-lls peaks at 159.0 MiB, not 204.6 (BENCH_lls_stream.json).
Without the library every design goes to svd.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

from .features import _all_finite, _check_shape, _real

__all__ = ["svd", "lls_solve", "default_rcond", "NumericFailure"]


class NumericFailure(RuntimeError):
    """Raised when the underlying factorization does not converge."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    _check_shape("matrix", m.shape)
    if not _all_finite(m):
        raise ValueError("matrix contains non-finite entries")
    return m


# LAPACKE's matrix_layout argument for column-major (Fortran) storage.
_COL_MAJOR = 102
# Largest matrix, in cells (m * n), that svd factorizes on one OpenBLAS thread.
_ONE_THREAD_MAX_CELLS = 1_000_000
# Most cells of one row block of a row source on lls_solve's large tall route.
_BLOCK_CELLS = 2 ** 22
_threads_lock = threading.Lock()
_i64, _doubles, _ints = (ctypes.c_int64, np.ctypeslib.ndpointer(np.float64),
                         np.ctypeslib.ndpointer(np.int64))
# Every routine this module calls, by its symbol in numpy's OpenBLAS: (restype, argtypes).
_ROUTINES = {
    "scipy_openblas_get_num_threads64_": (ctypes.c_int, []),
    "scipy_openblas_set_num_threads64_": (None, [ctypes.c_int]),
    "scipy_LAPACKE_dgesdd_work64_": (_i64, [ctypes.c_int, ctypes.c_char, _i64, _i64, _doubles,
                                            _i64, _doubles, _doubles, _i64, _doubles, _i64,
                                            _doubles, _i64, _ints]),
    "scipy_LAPACKE_dgelsd_work64_": (_i64, [ctypes.c_int, _i64, _i64, _i64, _doubles, _i64,
                                            _doubles, _i64, _doubles, ctypes.c_double, _ints,
                                            _doubles, _i64, _ints]),
    "scipy_LAPACKE_dgeqrt_work64_": (_i64, [ctypes.c_int, _i64, _i64, _i64, _doubles, _i64,
                                            _doubles, _i64, _doubles]),
    "scipy_LAPACKE_dgemqrt_work64_": (_i64, [ctypes.c_int, ctypes.c_char, ctypes.c_char, _i64,
                                             _i64, _i64, _i64, _doubles, _i64, _doubles, _i64,
                                             _doubles, _i64, _doubles]),
    "scipy_LAPACKE_dtrtrs_work64_": (_i64, [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                                            ctypes.c_char, _i64, _i64, _doubles, _i64, _doubles,
                                            _i64]),
}


@functools.cache
def _openblas():
    """The OpenBLAS in numpy's wheel as a ctypes library with every routine
    of _ROUTINES bound, or None where there is none or it lacks one of them.
    Resolved on first use, not at import."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(str(path))
            for name, (restype, argtypes) in _ROUTINES.items():
                routine = getattr(lib, name)
                routine.restype, routine.argtypes = restype, argtypes
            return lib
    return None


def _check(name: str, info: int) -> None:
    """Raise for the info a LAPACKE _work routine returned: RuntimeError for an
    invalid argument, NumericFailure for an SVD that does not converge (info > 0)."""
    if info < 0:
        raise RuntimeError(f"LAPACKE_{name}_work: argument {-info} is invalid")
    if info > 0:
        raise NumericFailure(f"SVD did not converge ({name} info {info})")


def _lapack(name: str, routine, *args, tail=()) -> None:
    """Call a LAPACKE _work routine, args then the workspace its own query (lwork
    = -1) asks for, then tail, and _check its info."""
    query = np.empty(1)
    _check(name, routine(*args, query, -1, *tail))
    lwork = int(query[0])
    _check(name, routine(*args, np.empty(lwork), lwork, *tail))


def _working_array(a, m: np.ndarray, overwrite: bool) -> np.ndarray:
    """What LAPACK may write over for a (checked as m): under overwrite a itself
    if it is a writeable, Fortran-ordered float64 array (only then is m a), else a copy."""
    in_place = overwrite and m is a and m.flags.f_contiguous and m.flags.writeable
    return m if in_place else np.array(m, order="F")


def _gesdd_overwrite(gesdd, a: np.ndarray):
    """(U, s, V) of the Fortran-ordered matrix a by LAPACK's dgesdd with
    JOBZ='O', which writes U (m >= n) or V.T (m < n) over a; the only
    other arrays are the small square factor, s and the workspace."""
    m, n = a.shape
    k = min(m, n)
    s = np.empty(k)
    square = np.empty((k, k), order="F")
    unused = np.empty(1)
    u, ldu, vt, ldvt = (unused, 1, square, k) if m >= n else (square, m, unused, 1)
    _lapack("dgesdd", gesdd, _COL_MAJOR, b"O", m, n, a, m, s, u, ldu, vt, ldvt,
            tail=(np.empty(8 * k, dtype=np.int64),))
    return (a, s, square.T) if m >= n else (square, s, a.T)


@contextlib.contextmanager
def _threads_for(shape: tuple[int, int]):
    """Run the block on one OpenBLAS thread if a matrix of this shape is
    small, then restore the count. Small solves in concurrent threads take
    turns, so each restores the count it found."""
    lib = _openblas() if shape[0] * shape[1] <= _ONE_THREAD_MAX_CELLS else None
    if lib is None:
        yield
        return
    with _threads_lock:
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(1)
        try:
            yield
        finally:
            lib.scipy_openblas_set_num_threads64_(before)


def default_rcond(shape: tuple[int, int]) -> float:
    """Relative truncation threshold: machine epsilon times max(n, m)."""
    return float(np.finfo(float).eps * max(shape))


def svd(a, *, overwrite_a: bool = False):
    """Thin singular value decomposition A = U @ diag(s) @ V.T.

    Returns (U, s, V) with orthonormal columns in U and V and singular
    values sorted in non-increasing order. a is left unchanged unless
    overwrite_a is set: then a writeable, Fortran-ordered float64 `a` is
    factorized in place, without a copy, and its contents afterwards are
    unspecified (U or V.T is written over it). Any other input is copied
    as without the flag. a is checked for non-finite entries first either
    way.
    """
    m = _as_matrix(a)
    lib = _openblas()
    try:
        with _threads_for(m.shape):
            if lib is not None:
                return _gesdd_overwrite(lib.scipy_LAPACKE_dgesdd_work64_,
                                        _working_array(a, m, overwrite_a))
            u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


def _back_substituted(trtrs, a: np.ndarray, n: int, b: np.ndarray, rcond: float) -> bool:
    """Whether dtrtrs solved R x = b[:n] in place (R: a's top n rows, upper
    triangle), only if ||R||_F ||R^-1||_F rcond <= 2**-10 (nan and inf fail
    it), which proves that dgelsd would truncate nothing; else b is as it was."""
    d = np.diagonal(a)[:n]  # d and 1 / d (R^-1's diagonal) bound both norms below, in O(n)
    with np.errstate(divide="ignore", over="ignore"):  # a zero or a tiny r_ii gives inf
        if not float(d @ d) ** 0.5 * float(np.sum(d ** -2.0)) ** 0.5 * rcond <= 2 ** -10:
            return False  # as a column in the span of the ones before it leaves r_ii ~ 0
    eye, r_sq, inv_sq = np.empty((n, 64), order="F"), 0.0, 0.0
    for j in range(0, n, 64):  # columns j:k of R^-1 (zero below row k) and of R
        k = min(n, j + 64)
        eye[:k] = 0.0
        np.fill_diagonal(eye[j:k], 1.0)
        _check("dtrtrs", trtrs(_COL_MAJOR, b"U", b"N", b"N", k, k - j, a, len(a), eye, n))
        inv_sq += float(np.einsum("ij,ij->", eye[:k, :k - j], eye[:k, :k - j]))
        r_sq += float(np.einsum("ij,ij->", a[:k, j:k], a[:k, j:k]))
        if not r_sq ** 0.5 * inv_sq ** 0.5 * rcond <= 2 ** -10:  # the sums only grow
            return False
    _check("dtrtrs", trtrs(_COL_MAJOR, b"U", b"N", b"N", n, 1, a, len(a), b, b.size))
    return True


def lls_solve(x, y, rcond: float | None = None, *, overwrite_x: bool = False) -> np.ndarray:
    """Minimum-norm least-squares solution of X @ S ~= Y.

    Computed as V @ diag(1/s) @ U.T @ Y on the retained-rank subspace,
    which equals the normal-equation solution (X.T @ X)^+ @ X.T @ Y but
    stays well conditioned. Singular values at or below rcond * s_max,
    the one truncation rule of this module, count as zero; rcond defaults
    to default_rcond(X.shape). A large X goes to LAPACK's dgelsd, which has the
    same rule; a tall one is QR factorized by dgeqrt in row blocks first, each
    checked for non-finite entries, and its R is back-substituted where a norm
    bound proves that dgelsd would truncate nothing (see the module notes).
    With overwrite_x set, a writeable, Fortran-ordered float64 X is itself
    the one block LAPACK works on; its contents are then unspecified.
    """
    shape = np.shape(x)
    _check_shape("matrix", shape)
    rhs = np.asarray(y, dtype=float).ravel()
    if rhs.size != shape[0]:
        raise ValueError(f"right-hand side has {rhs.size} entries, expected {shape[0]}")
    if not _all_finite(rhs):
        raise ValueError("right-hand side contains non-finite entries")
    rcond = default_rcond(shape) if rcond is None else _real("rcond", rcond)
    m, n = shape
    lib = _openblas() if m * n > _ONE_THREAD_MAX_CELLS else None
    tall = lib is not None and m >= int(1.6 * n)  # where dgelsd would QR first (MNTHR)
    fill = getattr(x, "fill", None) if tall and not isinstance(x, np.ndarray) else None
    x = x if fill else np.asarray(x)  # a row source off the streamed route is built whole
    if lib is not None:  # dgelsd writes over a, and the solution over b's first n entries
        b = np.pad(rhs, (0, max(0, n - m)))
        if fill:  # balanced blocks of at most _BLOCK_CELLS cells, each filled in under R
            mb = -(-m // -(-m // max(1, _BLOCK_CELLS // n)))
            a = np.empty((min(m, n + mb), n), order="F")
        else:  # x is the one block
            a, mb = _working_array(x, _as_matrix(x), overwrite_x), m
        rows, k, t = 0 if tall else m, min(m, n), np.empty((min(32, n), n), order="F")
        for start in range(0, m, mb) if tall else ():  # QR by dgeqrt instead of dgelsd's
            size = min(mb, m - start)
            if fill:  # each block is checked before it is factorized
                _as_matrix(fill(start, a[rows:rows + size]))
            b[rows:rows + size] = rhs[start:start + size]
            rows += size
            nb = min(32, rows, n)
            _check("dgeqrt", lib.scipy_LAPACKE_dgeqrt_work64_(_COL_MAJOR, rows, n, nb, a, len(a),
                                                              t, nb, np.empty(nb * n)))
            _check("dgemqrt", lib.scipy_LAPACKE_dgemqrt_work64_(
                _COL_MAJOR, b"L", b"T", rows, 1, min(rows, n), nb, a, len(a), t, nb, b, b.size,
                np.empty(nb)))
            rows = min(rows, n)
            for j in range(rows - 1):  # clear the Householder vectors under R's diagonal
                a[j + 1:rows, j] = 0.0
        if tall and _back_substituted(lib.scipy_LAPACKE_dtrtrs_work64_, a, n, b, rcond):
            return b[:n].copy()
        nlvl = max(0, int(np.log2(k / 26)) + 1)  # for iwork's documented size (SMLSIZ = 25)
        iwork = np.empty(3 * k * nlvl + 11 * k, dtype=np.int64)
        _lapack("dgelsd", lib.scipy_LAPACKE_dgelsd_work64_, _COL_MAJOR, rows, n, 1, a, len(a),
                b, b.size, np.empty(k), rcond, np.empty(1, dtype=np.int64), tail=(iwork,))
        return b[:n].copy()
    u, s, v = svd(x, overwrite_a=overwrite_x)
    scaled = np.divide(u.T @ rhs, s, where=s > rcond * s[0], out=np.zeros_like(s))
    return v @ scaled
