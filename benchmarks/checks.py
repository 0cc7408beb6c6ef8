"""Reference computations and correctness checks made outside sqnn.

Nothing here imports sqnn. Each check returns a list of failure
messages, empty when the check passes, so the worker can attribute every
failure to the operation (one fit plus its checks) it belongs to.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# Predictions of the library and of the independent 2x2 matrix product
# agree to this relative tolerance; both are O(10) roundings of values
# in [-1, 1], so 1e-12 leaves three orders of margin.
PREDICTION_RTOL = 1e-12
# MSE recomputed from the independent predictions: the per-row errors
# are 1e-12 relative, so the mean of squares agrees far inside this.
MSE_RTOL = 1e-9
# Residual-norm tolerance of an LLS fit, in units of
# eps * cond(A) * ||b||: a backward-stable least-squares solver perturbs
# the residual by O(eps * cond * ||b||) (Golub and Van Loan, Thm 5.3.1),
# while one that forms the normal equations perturbs it by
# O(eps * cond^2) and fails this check on ill-conditioned designs.
RESIDUAL_FACTOR = 64.0


def scale_features(train_inputs: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Min-max map onto [-1, 1] with the training rows' per-feature range;
    a constant feature maps to 0."""
    lo, hi = train_inputs.min(axis=0), train_inputs.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, 2.0 * (inputs - lo) / safe - 1.0, 0.0)


def power_design(u: np.ndarray, K: int) -> np.ndarray:
    """Columns [1, u_1..u_p, u_1^2..u_p^2, ..., u_1^K..u_p^K]."""
    return np.hstack([np.ones((u.shape[0], 1))] + [u ** k for k in range(1, K + 1)])


def _rz(t):
    phase = np.exp(0.5j * t)
    out = np.zeros(np.shape(t) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.conj(phase), phase
    return out


def _ry(t):
    c, s = np.cos(0.5 * np.asarray(t)), np.sin(0.5 * np.asarray(t))
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


def circuit_expectation(alpha, beta, gamma, theta, omega) -> np.ndarray:
    """<Z'> of Rz(gamma) Ry(beta) Rz(alpha) applied to the state
    cos(theta/2)|0> + sin(theta/2)|1>, measured in the basis rotated by
    Ry(omega): computed by explicit 2x2 complex matrix products, one
    per row, not by the closed form the library uses."""
    beta = np.asarray(beta, dtype=float)
    n = beta.shape
    full = [np.broadcast_to(np.asarray(a, dtype=float), n) for a in (alpha, gamma)]
    unitary = _rz(full[1]) @ _ry(beta) @ _rz(full[0])
    state = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
    basis = _ry(omega)
    amp = np.einsum("ij,...jk,k->...i", basis, unitary, state)
    return np.abs(amp[..., 0]) ** 2 - np.abs(amp[..., 1]) ** 2


def gd_predictions(kind: str, K: int, params: dict, train_inputs, inputs) -> np.ndarray:
    """Output of a GD-trained model from its flat coefficient vectors
    (`alpha`, `beta`, `gamma`) and scalar angles (`theta`, `omega`)."""
    design = power_design(scale_features(train_inputs, inputs), K)
    beta = design @ params["beta"]
    if kind == "gd-reduced":
        return circuit_expectation(0.0, beta, 0.0, 0.0, 0.0)
    return circuit_expectation(design @ params["alpha"], beta, design @ params["gamma"],
                               params["theta"], params["omega"])


def arctanh_labels(labels: np.ndarray, epsilon: float) -> np.ndarray:
    y = np.clip(np.asarray(labels, dtype=float), -1.0 + epsilon, 1.0 - epsilon)
    return np.arctanh(y)


def close(name: str, got, want, rtol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= rtol * scale:
        return [f"{name}: max deviation {err:.3g} exceeds {rtol:g} x {scale:.3g}"]
    return []


def close_tanh(name: str, got, design: np.ndarray, coefficients: np.ndarray) -> list[str]:
    """`got` equals tanh(design @ coefficients) up to the rounding error
    of the polynomial: LLS coefficients on ill-conditioned designs are
    large and cancel, so the bound is per row: eps * sum_i |c_i x_i|
    times the rounded operations of both evaluations, at most K + 1 per
    term and n for the sum of n terms (and K < n), plus one rounding of
    tanh, which is 1-Lipschitz."""
    poly = design @ coefficients
    terms = np.abs(design) @ np.abs(coefficients)
    bound = 2.0 * (2 * design.shape[1] + 1) * EPS * terms + EPS
    err = np.abs(np.asarray(got, dtype=float) - np.tanh(poly))
    if not np.all(err <= bound):
        worst = int(np.argmax(err - bound))
        return [f"{name}: row {worst} deviates by {err[worst]:.3g}, "
                f"bound {bound[worst]:.3g}"]
    return []


def mse(predictions, targets) -> float:
    return float(np.mean((np.asarray(predictions) - np.asarray(targets)) ** 2))


class LstsqReference:
    """scipy.linalg.lstsq's residual norm and the design's condition
    number, keyed by a digest of the design and right-hand side bytes.

    The rounds of one run see the same inputs, so the table is kept in a
    file (`path`) and each distinct problem is solved once per run.
    """

    def __init__(self, path=None):
        self.path = path
        self.table = json.loads(path.read_text()) if path and path.exists() else {}

    def get(self, design: np.ndarray, rhs: np.ndarray) -> tuple[float, float]:
        key = hashlib.sha1(design.tobytes() + rhs.tobytes()).hexdigest()
        if key not in self.table:
            import scipy.linalg  # sqnn does not load it; keep it out of set-up time

            ref, _, _, sv = scipy.linalg.lstsq(design, rhs)
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
            self.table[key] = (float(np.linalg.norm(design @ ref - rhs)), cond)
        return tuple(self.table[key])

    def save(self) -> None:
        if self.path is not None:
            self.path.write_text(json.dumps(self.table))


def lls_residual(design: np.ndarray, labels: np.ndarray, epsilon: float,
                 coefficients: np.ndarray, reference: LstsqReference) -> list[str]:
    """The fit's residual ||A c - b|| in arctanh space reaches that of
    scipy.linalg.lstsq on the same design and labels, within a tolerance
    fixed by the float64 epsilon and the design's condition number."""
    rhs = arctanh_labels(labels, epsilon)
    r_ref, cond = reference.get(design, rhs)
    r_fit = float(np.linalg.norm(design @ coefficients - rhs))
    tol = RESIDUAL_FACTOR * EPS * cond * float(np.linalg.norm(rhs))
    if not r_fit <= r_ref + tol:
        return [f"LLS residual {r_fit:.12g} exceeds lstsq's {r_ref:.12g} "
                f"by more than {tol:.3g} (cond {cond:.3g})"]
    return []


def partition(folds, n: int) -> list[str]:
    """Fold index arrays are disjoint and together cover range(n)."""
    joined = np.sort(np.concatenate([np.asarray(f) for f in folds]))
    if joined.size != n or not np.array_equal(joined, np.arange(n)):
        return [f"fold plan is not a partition of range({n})"]
    return []


def accuracy_count(predicted_classes, labels) -> float:
    """Share of predictions (+-1) equal to the labels, counted here."""
    p, y = np.asarray(predicted_classes), np.asarray(labels)
    return int(np.count_nonzero(p == y)) / y.size


def equal(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: {got!r} != {want!r}"]


def recipe_bounds(result) -> list[str]:
    """The recipe checked at least one bound and every bound held."""
    if not result.assertions:
        return [f"recipe {result.name} checked 0 bounds"]
    return [f"recipe bound failed: {a.label}: {a.detail}"
            for a in result.assertions if not a.passed]


def read_csv_table(path, header: bool, target: int, drop=(), label_map=None):
    """Numeric table parsed with the csv module; returns (inputs, raw
    targets). `target` and `drop` index the file's columns."""
    label_map = label_map or {}
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1 if header else 0:]
    ncols = len(rows[0])
    keep = [j for j in range(ncols) if j not in drop]
    table = np.array([[float(label_map.get(row[j], row[j])) for j in keep] for row in rows])
    col = keep.index(target % ncols)
    return np.delete(table, col, axis=1), table[:, col]


def read_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Gzipped IDX pair parsed by header offset: uint8 images and labels."""
    with gzip.open(images_path, "rb") as fh:
        raw = fh.read()
    count, rows, cols = (int.from_bytes(raw[o:o + 4], "big") for o in (4, 8, 12))
    images = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows, cols)
    with gzip.open(labels_path, "rb") as fh:
        labels = np.frombuffer(fh.read(), dtype=np.uint8, offset=8)
    return images, labels


def dct_matrix(size: int) -> np.ndarray:
    """Orthonormal type-II DCT basis as an explicit matrix."""
    k = np.arange(size)[:, None]
    i = np.arange(size)[None, :]
    basis = np.sqrt(2.0 / size) * np.cos(np.pi * (2 * i + 1) * k / (2 * size))
    basis[0] /= np.sqrt(2.0)
    return basis


def dct_rows(images: np.ndarray) -> np.ndarray:
    """Flattened 2-D DCT coefficients C X C^T of each image in [0, 1]."""
    c = dct_matrix(images.shape[1])
    coeffs = c @ (images.astype(float) / 255.0) @ c.T
    return coeffs.reshape(images.shape[0], -1)
