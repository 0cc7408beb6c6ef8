"""Dense real linear algebra for the one-shot least-squares trainer.

The factorization itself is delegated to LAPACK through numpy; the
truncation rule, the pseudoinverse assembly and the minimum-norm solve
are implemented here so their numerical contracts are explicit. Solving
goes through the SVD of the design matrix directly instead of forming
the normal equations, which would square the condition number.
"""

from __future__ import annotations

import numpy as np

__all__ = ["svd", "pinv", "lls_solve", "default_rcond", "NumericFailure"]


class NumericFailure(RuntimeError):
    """Raised when the underlying factorization does not converge."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def default_rcond(shape: tuple[int, int]) -> float:
    """Relative truncation threshold: machine epsilon times max(n, m)."""
    return float(np.finfo(float).eps * max(shape))


def svd(a):
    """Thin singular value decomposition A = U @ diag(s) @ V.T.

    Returns (U, s, V) with orthonormal columns in U and V and singular
    values sorted in non-increasing order.
    """
    m = _as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


def _kept(s: np.ndarray, shape: tuple[int, int], rcond: float | None) -> np.ndarray:
    """Mask of the singular values above rcond * s_max, the one truncation
    rule of this module; rcond defaults to default_rcond(shape)."""
    if rcond is None:
        rcond = default_rcond(shape)
    if rcond < 0:
        raise ValueError(f"rcond must be non-negative, got {rcond}")
    return s > rcond * (s[0] if s.size else 0.0)


def pinv(a, rcond: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via truncated SVD.

    Singular values at or below rcond * s_max are treated as zero. The
    default rcond is eps * max(n, m).
    """
    m = _as_matrix(a)
    u, s, v = svd(m)
    inv_s = np.divide(1.0, s, where=_kept(s, m.shape, rcond), out=np.zeros_like(s))
    return (v * inv_s) @ u.T


def lls_solve(x, y, rcond: float | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution of X @ S ~= Y.

    Computed as V @ diag(1/s) @ U.T @ Y on the retained-rank subspace,
    which equals pinv(X.T @ X) @ X.T @ Y but stays well conditioned.
    """
    m = _as_matrix(x)
    rhs = np.asarray(y, dtype=float).ravel()
    if rhs.size != m.shape[0]:
        raise ValueError(f"right-hand side has {rhs.size} entries, expected {m.shape[0]}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side contains non-finite entries")
    u, s, v = svd(m)
    scaled = np.divide(u.T @ rhs, s, where=_kept(s, m.shape, rcond), out=np.zeros_like(s))
    return v @ scaled
