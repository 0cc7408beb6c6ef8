"""Input-to-angle feature maps and preprocessing.

The polynomial weight function sums per-power dot products of the input
coordinates, c0 + sum_k sum_j c_kj * x_j^k, and feeds a rotation angle.
The least-squares model's output tanh of the polynomial is cos of the
angle arccos(tanh(.)). The polynomial is built in one place, by
build_design_matrix: the column-major power design [1, x, ..., x^K],
with the inputs min-max scaled inside its first block by a (lo, hi)
pair. The trainers fit the pair as the inputs' column minima and
maxima; prediction passes the stored pair and takes design @ flat.
Image preprocessing uses the orthonormal type-II DCT, applied as the
explicit basis matrix C: the coefficients of a square image X are
C @ X @ C.T.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PolynomialWeightFunction",
    "NormalizationRecord",
    "eval_angle",
    "build_design_matrix",
    "dct_features",
]


@dataclass(frozen=True)
class PolynomialWeightFunction:
    """Polynomial map from a p-vector to a scalar angle.

    `c` has shape (K, p); entry c[k-1, j-1] multiplies x_j^k. The flat
    coefficient layout is [c0, c_11..c_1p, ..., c_K1..c_Kp], matching the
    design-matrix column order.
    """

    K: int
    p: int
    c0: float = 0.0
    c: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        _count("K", self.K)
        _count("p", self.p)
        c = np.zeros((self.K, self.p)) if self.c is None else np.asarray(self.c, dtype=float)
        if c.shape != (self.K, self.p):
            raise ValueError(f"coefficient matrix must be {self.K}x{self.p}, got {c.shape}")
        for name, value in (("c0", np.asarray(self.c0, dtype=float)), ("c", c)):
            if not _all_finite(value):
                raise ValueError(f"{name!r} holds a non-finite value")
        object.__setattr__(self, "c", c)

    @classmethod
    def from_flat(cls, flat, K: int, p: int) -> "PolynomialWeightFunction":
        flat = np.asarray(flat, dtype=float).ravel()
        if flat.size != 1 + K * p:
            raise ValueError(f"expected {1 + K * p} coefficients for K={K}, p={p}, got {flat.size}")
        return cls(K=K, p=p, c0=float(flat[0]), c=flat[1:].reshape(K, p))

    def flat(self) -> np.ndarray:
        return np.concatenate([[self.c0], self.c.ravel()])


def _count(name: str, value, least: int = 1) -> int:
    """`value` as an int when it is an integer of at least `least`, else a
    ValueError naming `name`. A bool is an int to Python, but no count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        rule = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _real(name: str, value, positive: bool = False) -> float:
    """`value` as a float when it is a finite real of at least 0 (above 0
    when `positive`), else a ValueError naming `name`; never a bool. A nan
    rcond would truncate every singular value, nan noise spoil every sample."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real) and (
            0 < value < np.inf if positive else 0 <= value < np.inf):
        return float(value)
    rule = "positive" if positive else "non-negative"
    raise ValueError(f"{name} must be {rule} and finite, got {value!r}")


def _flag(name: str, value) -> bool:
    """`value` as a bool when it is a Python or numpy bool, else a ValueError naming `name`."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be True or False, got {value!r}")


def _check_shape(name: str, shape) -> None:
    """ValueError naming `name` unless `shape` is 2-D with at least one
    row and one column."""
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {shape}")


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array a is finite. min and max
    propagate NaN, and an infinity is one of them, so two reductions
    decide it without an isfinite mask the size of a. An empty array
    never reaches them and counts as finite."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _as_rows(x, p: int) -> tuple[np.ndarray, bool]:
    """Coerce a single p-vector or an (n, p) batch to 2-D; also whether
    it was a single vector."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"input must be a {p}-vector or an (n, {p}) array, "
                         f"got shape {arr.shape}")
    if arr.shape[-1] != p:
        raise ValueError(f"input has dimension {arr.shape[-1]}, model expects {p}")
    return (arr[None, :], True) if arr.ndim == 1 else (arr, False)


def eval_angle(f: PolynomialWeightFunction, x):
    """Evaluate c0 + sum_{k,j} c_kj x_j^k for one input or a batch."""
    rows, single = _as_rows(x, f.p)
    total = build_design_matrix(rows, f.K) @ f.flat()
    return float(total[0]) if single else total


# Cells (float64) per row tile of build_design_matrix's copy into the
# column-major design: 1 MiB, one tile for every input up to 2**17 cells,
# 167 rows at p = 784.
_TILE_CELLS = 2 ** 17


def build_design_matrix(inputs, K: int, bounds=None) -> np.ndarray:
    """Rows [1, x_1..x_p, x_1^2..x_p^2, ..., x_1^K..x_p^K] of the inputs,
    min-max scaled onto [-1, 1] by the (lo, hi) pair `bounds` first
    unless it is None.

    Column order matches PolynomialWeightFunction.flat(), so
    design @ flat is the polynomial row-wise. The array is column-major:
    the trainers' products design @ w and v @ design then read each
    column contiguously. The inputs are copied once, into the first
    power block in row tiles, and scaled there.
    """
    _count("K", K)
    X = np.asarray(inputs, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    _check_shape("inputs", X.shape)
    return _fill_design(X, K, bounds, np.empty((X.shape[0], 1 + K * X.shape[1]), order="F"))


def _fill_design(X, K: int, bounds, design) -> np.ndarray:
    """build_design_matrix's rows of the 2-D float inputs X, into design; returns it."""
    n, p = X.shape
    design[:, 0] = 1.0
    first = design[:, 1:1 + p]
    # a transposing copy, one cache-sized tile of rows at a time: each
    # column's run of the tile is written while the tile stays in cache
    tile = max(1, _TILE_CELLS // p)
    for start in range(0, n, tile):
        first[start:start + tile] = X[start:start + tile]
    if bounds is not None:
        _to_unit(first, *bounds)
    for k in range(2, K + 1):
        np.multiply(design[:, 1 + (k - 2) * p:1 + (k - 1) * p], first,
                    out=design[:, 1 + (k - 1) * p:1 + k * p])
    return design


def _to_unit(v, lo, hi):
    """Min-max map 2 (v - lo) / (hi - lo) - 1 onto [-1, 1], in place on
    the float array v; where the range has zero (or negative) width, the
    value maps to 0."""
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        v -= lo
        v *= 2.0
        v /= span
        v -= 1.0
    flat = np.logical_not(span > 0)
    if flat.any():
        np.copyto(v, 0.0, where=flat)
    return v


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-feature min/max for input rescaling to [-1, 1], plus optional
    target min/max for regression recalibration.

    `feature_min`/`feature_max` of None mean no input scaling was fitted
    (the record then only carries the target range)."""

    feature_min: np.ndarray | None
    feature_max: np.ndarray | None
    target_min: float | None = None
    target_max: float | None = None

    def __post_init__(self):
        for lo, hi, ndim in (("feature_min", "feature_max", 1), ("target_min", "target_max", 0)):
            low, high = getattr(self, lo), getattr(self, hi)
            if (low is None) != (high is None):
                raise ValueError(f"{lo!r} and {hi!r} must be given together")
            if low is None:
                continue
            low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
            if low.ndim != ndim or low.shape != high.shape:
                raise ValueError(f"{lo!r} and {hi!r} must be {'1-D' if ndim else 'scalars'} "
                                 f"of one size, got shapes {low.shape} and {high.shape}")
            for name, value in ((lo, low), (hi, high)):
                if not _all_finite(value):
                    raise ValueError(f"{name!r} holds a non-finite value")
                object.__setattr__(self, name, value if ndim else float(value))
            if (high < low).any():
                raise ValueError(f"{hi!r} lies below {lo!r}")

    def apply_features(self, inputs):
        if self.feature_min is None:
            return np.asarray(inputs, dtype=float)
        rows, single = _as_rows(inputs, self.feature_min.size)
        scaled = _to_unit(rows.copy(), self.feature_min, self.feature_max)
        return scaled[0] if single else scaled

    def _target_range(self) -> tuple[float, float]:
        if self.target_min is None:
            raise ValueError("record carries no target scaling")
        return self.target_min, self.target_max

    def apply_target(self, y):
        return _to_unit(np.array(y, dtype=float), *self._target_range())

    def invert_target(self, y):
        lo, hi = self._target_range()
        return (np.asarray(y, dtype=float) + 1.0) * (hi - lo) / 2.0 + lo


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT basis: row k is sqrt(2/n) cos(pi (2i+1) k / 2n)
    over i, with row 0 scaled by 1/sqrt(2), so C @ C.T is the identity."""
    k = np.arange(n)[:, None]
    c = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * np.arange(n) + 1) * k / (2 * n))
    c[0] /= np.sqrt(2.0)
    return c


def dct_features(images, keep: int | None = None) -> np.ndarray:
    """DCT-transform a stack of square images into flat feature rows.

    `images` has shape (n, s, s). By default all s*s coefficients are kept
    and flattened row-major; `keep=B` retains only the top-left BxB
    low-frequency block, computed from the first B basis rows alone.
    """
    imgs = np.asarray(images, dtype=float)
    if imgs.ndim != 3 or imgs.shape[1] != imgs.shape[2]:
        raise ValueError(f"expected (n, s, s) image stack, got shape {imgs.shape}")
    side = imgs.shape[1]
    if keep is None:
        keep = side
    elif _count("keep", keep) > side:
        raise ValueError(f"keep must be in [1, {side}], got {keep}")
    c = _dct_matrix(side)[:keep]
    return (c @ imgs @ c.T).reshape(imgs.shape[0], -1)
