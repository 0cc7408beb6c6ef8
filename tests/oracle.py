"""The tests' one reference for sqnn, on numpy and the standard library
alone: it imports nothing from sqnn, so a fault in the package cannot
also sit in the reference (tests/test_oracle.py fails on any such import).

- Circuit: the 2x2 matrix path Rz(gamma)Ry(beta)Rz(alpha) on a state and
  a projector-valued observable (`expectation_matrix`), the reference for
  the Bloch-vector chain in sqnn.circuit; it also models state and
  projector phases and arbitrary eigenvalues. `central_differences`
  differentiates any function of a vector numerically.
- Training: min-max scaling, the row-major power design, the MSE and
  hinge losses with their derivatives, the seeded start and the
  reduced-shape gradient descent built from them, in the trainer's order.
- Prediction: a power-loop polynomial and a model applied through its
  stored feature bounds and the matrix path.
- DCT: the orthonormal type-II basis from its cosine formula, dct2 and
  idct2.
- Least squares: `pinv` by np.linalg.svd, dropping singular values at
  or below eps * max(m, n) * s_max.
- CSV: `reference_load_csv`, the rows a CSV file keeps, each parsed
  across its kept columns, and the error of its first defective row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _require_finite(**angles: float) -> None:
    for name, value in angles.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AngleSet:
    """The five circuit angles for one evaluation: three neuron rotations,
    the input-state polar angle and the observable projector angle."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    theta: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        _require_finite(alpha=self.alpha, beta=self.beta, gamma=self.gamma,
                        theta=self.theta, omega=self.omega)


@dataclass(frozen=True)
class QubitState:
    """Input state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    The relative phase phi defaults to 0; a nonzero value only matters for
    the matrix evaluation path.
    """

    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        _require_finite(theta=self.theta, phi=self.phi)

    def amplitudes(self) -> np.ndarray:
        return np.array(
            [math.cos(self.theta / 2),
             np.exp(1j * self.phi) * math.sin(self.theta / 2)],
            dtype=complex,
        )


@dataclass(frozen=True)
class Observable:
    """Two-outcome observable lambda0*P0 + lambda1*P1.

    P1 is the rank-one projector onto the Bloch direction (omega, varphi)
    and P0 = I - P1. The eigenvalues are stored rather than hardcoded, but
    every trained model in this package uses the default +1/-1 pair.
    """

    omega: float = 0.0
    varphi: float = 0.0
    lambda0: float = 1.0
    lambda1: float = -1.0

    def __post_init__(self):
        _require_finite(omega=self.omega, varphi=self.varphi,
                        lambda0=self.lambda0, lambda1=self.lambda1)

    def projector_p1(self) -> np.ndarray:
        c, s = math.cos(self.omega / 2), math.sin(self.omega / 2)
        ph = np.exp(1j * self.varphi)
        return np.array([[c * c, c * s * ph.conjugate()],
                         [c * s * ph, s * s]], dtype=complex)

    def projector_p0(self) -> np.ndarray:
        return np.eye(2, dtype=complex) - self.projector_p1()

    def basis_change(self) -> np.ndarray:
        """Unitary whose columns are unit eigenvectors of the projector
        pair, so a computational-basis measurement after applying it
        realizes the observable."""
        c, s = math.cos(self.omega / 2), math.sin(self.omega / 2)
        ph = np.exp(1j * self.varphi)
        return np.array([[c, -s * ph.conjugate()], [s * ph, c]], dtype=complex)


def rotation_gate(axis: str, angle: float) -> np.ndarray:
    """Standard single-qubit rotation matrix about the x, y or z axis.

    Rx(t) = [[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]]
    Ry(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]
    Rz(t) = diag(e^{-i t/2}, e^{i t/2})
    """
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if axis == "z":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)
    raise ValueError(f"unknown rotation axis {axis!r}, expected 'x', 'y' or 'z'")


def neuron_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The general single-qubit neuron Rz(gamma) @ Ry(beta) @ Rz(alpha),
    the most general unitary up to a global phase."""
    return rotation_gate("z", gamma) @ rotation_gate("y", beta) @ rotation_gate("z", alpha)


def effective_neuron(neurons) -> np.ndarray:
    """Collapse a chain of neurons into one unitary.

    `neurons` is a sequence of (alpha, beta, gamma) triples applied in
    order, so the result is N_K @ ... @ N_2 @ N_1.
    """
    triples = list(neurons)
    if not triples:
        raise ValueError("effective_neuron requires at least one neuron")
    acc = np.eye(2, dtype=complex)
    for alpha, beta, gamma in triples:
        acc = neuron_matrix(alpha, beta, gamma) @ acc
    return acc


def expectation_matrix(angles: AngleSet,
                       state: QubitState | None = None,
                       obs: Observable | None = None) -> float:
    """Expectation value via explicit matrix-vector products.

    When `state` or `obs` is omitted it is built from the angle set with
    zero phase. Passing them explicitly allows nonzero state/projector
    phases, which sqnn.circuit deliberately does not model.
    """
    if state is None:
        state = QubitState(theta=angles.theta)
    if obs is None:
        obs = Observable(omega=angles.omega)
    amp = obs.basis_change() @ neuron_matrix(angles.alpha, angles.beta, angles.gamma) @ state.amplitudes()
    p0 = float(np.abs(amp[0]) ** 2)
    p1 = float(np.abs(amp[1]) ** 2)
    return obs.lambda0 * p0 + obs.lambda1 * p1


def central_differences(f, x, step: float = 1e-6) -> np.ndarray:
    """(f(x + h e_i) - f(x - h e_i)) / (2 h) in each coordinate of the
    vector x. 2 h is taken as the difference of the two rounded
    arguments, so the quotient stays exact at |x_i| near 1e3."""
    x = np.asarray(x, dtype=float)
    partials = np.empty(x.size)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        partials[i] = (f(hi) - f(lo)) / (hi[i] - lo[i])
    return partials


def min_max_scale(inputs, lo, hi) -> np.ndarray:
    """2 (x - lo) / (hi - lo) - 1 per column, so [lo, hi] maps onto
    [-1, 1]; 0 where the column's range has zero width."""
    X = np.asarray(inputs, dtype=float)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(span > 0, 2.0 * (X - lo) / span - 1.0, 0.0)


def hstack_design(inputs, K: int) -> np.ndarray:
    """Rows [1, x, x^2, ..., x^K] as one C-order np.hstack of the blocks."""
    X = np.asarray(inputs, dtype=float)
    blocks, powers = [np.ones((X.shape[0], 1))], X
    for k in range(1, K + 1):
        if k > 1:
            powers = powers * X
        blocks.append(powers)
    return np.hstack(blocks)


def reference_loss(kind: str, yhat, y) -> tuple[float, np.ndarray]:
    """(loss, d loss / d yhat). "mse": mean (yhat - y)^2, derivative
    2 (yhat - y) / n. "hinge": mean max(0, 1 - yhat y), derivative -y / n
    where the margin 1 - yhat y is positive and 0 elsewhere."""
    yhat, y = np.asarray(yhat, dtype=float), np.asarray(y, dtype=float)
    n = y.size
    if kind == "mse":
        diff = yhat - y
        return float(np.mean(diff ** 2)), 2.0 * diff / n
    margin = 1.0 - yhat * y
    return float(np.mean(np.maximum(0.0, margin))), np.where(margin > 0, -y, 0.0) / n


def reference_init(config, n_params: int) -> np.ndarray:
    """The trainer's seeded start: n_params draws from
    uniform(-init_scale, init_scale)."""
    return np.random.default_rng(config.seed).uniform(
        -config.init_scale, config.init_scale, n_params)


def reference_gd_reduced(data, config) -> tuple[np.ndarray, list[float]]:
    """Batch gradient descent on cos(design @ w); returns the final
    coefficients and the loss after each update, stopping as
    sqnn.training.gd_train does (target_loss, then max_epochs)."""
    X = data.inputs
    if config.normalize:
        X = min_max_scale(X, X.min(axis=0), X.max(axis=0))
    design = hstack_design(X, config.K)
    y = data.targets
    w = reference_init(config, design.shape[1])
    beta = design @ w
    loss, res = reference_loss(config.loss, np.cos(beta), y)
    history = []
    for _ in range(config.max_epochs):
        if loss <= config.target_loss:
            break
        w = w - config.learning_rate * ((res * -np.sin(beta)) @ design)
        beta = design @ w
        loss, res = reference_loss(config.loss, np.cos(beta), y)
        history.append(loss)
    return w, history or [loss]


def poly_angle(f, x):
    """c0 + sum_k (x^k) @ c[k-1] for one input or an (n, p) batch."""
    rows = np.asarray(x, dtype=float)
    single = rows.ndim == 1
    rows = np.atleast_2d(rows)
    total = np.full(rows.shape[0], f.c0)
    powers = rows.copy()
    for k in range(f.K):
        if k > 0:
            powers = powers * rows
        total = total + powers @ f.c[k]
    return float(total[0]) if single else total


def reference_predict(model, inputs) -> tuple[np.ndarray, float]:
    """(predictions, largest |angle|) of a TrainedModel on an (n, p)
    batch: the inputs scaled by the model's stored feature bounds through
    min_max_scale, every polynomial through poly_angle, the five-angle
    output row by row through expectation_matrix."""
    X = np.asarray(inputs, dtype=float)
    record = model.normalization
    if record is not None and record.feature_min is not None:
        X = min_max_scale(X, record.feature_min, record.feature_max)
    beta = poly_angle(model.beta, X)
    if model.kind == "lls":
        return np.tanh(beta), float(np.max(np.abs(beta)))
    if model.kind == "gd-reduced":
        return np.cos(beta), float(np.max(np.abs(beta)))
    alpha, gamma = poly_angle(model.alpha, X), poly_angle(model.gamma, X)
    preds = np.array([expectation_matrix(AngleSet(a, b, g, model.theta, model.omega))
                      for a, b, g in zip(alpha, beta, gamma)])
    return preds, float(np.max(np.abs([alpha, beta, gamma])))


def dct_basis(n: int) -> np.ndarray:
    """Orthonormal type-II DCT basis C[k, i] = a_k cos(pi (2 i + 1) k / 2n),
    with a_0 = 1 / sqrt(n) and a_k = sqrt(2 / n) for k > 0."""
    k, i = np.arange(n)[:, None], np.arange(n)[None, :]
    a = np.where(k == 0, 1.0 / np.sqrt(n), np.sqrt(2.0 / n))
    return a * np.cos(np.pi * (2 * i + 1) * k / (2 * n))


def _square(arr: np.ndarray, what: str) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square {what}, got shape {arr.shape}")
    return arr


def dct2(image) -> np.ndarray:
    """Orthonormal 2-D type-II DCT of a square image, C @ X @ C.T."""
    img = _square(np.asarray(image, dtype=float), "image")
    c = dct_basis(img.shape[0])
    return c @ img @ c.T


def idct2(coeffs) -> np.ndarray:
    """Inverse of dct2, C.T @ Y @ C."""
    arr = _square(np.asarray(coeffs, dtype=float), "coefficient block")
    c = dct_basis(arr.shape[0])
    return c.T @ arr @ c


def pinv(a, rcond: float | None = None) -> np.ndarray:
    """Pseudoinverse V @ diag(1/s) @ U.T; singular values at or below
    rcond * s_max count as zero, and rcond defaults to eps * max(m, n)."""
    m = np.asarray(a, dtype=float)
    if rcond is None:
        rcond = np.finfo(float).eps * max(m.shape)
    if rcond < 0:
        raise ValueError(f"rcond must be non-negative, got {rcond}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    inv_s = np.divide(1.0, s, where=s > rcond * s[0], out=np.zeros_like(s))
    return (vt.T * inv_s) @ u.T


CSV_MISSING = ("", "?", "NA")


def reference_load_csv(path, rows, target: int, drop_cols=(), drop_sparse_cols=None,
                       label_map=None) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, targets) of a CSV's data rows, given as lists of strings,
    by the row-by-row rule. Columns go by index: `drop_cols`, then each
    feature column whose share of missing markers ("", "?" or "NA" once
    stripped) exceeds `drop_sparse_cols`. Each row is parsed across the
    kept columns in order (`label_map` translates target cells); the
    first row with a non-numeric cell, or else a non-finite one, raises
    its ValueError. The rows with a missing marker are then dropped."""
    n_cols = len(rows[0])
    dropped = set(drop_cols)
    if drop_sparse_cols is not None:
        dropped |= {j for j in range(n_cols) if j != target and sum(
            row[j].strip() in CSV_MISSING for row in rows) / len(rows) > drop_sparse_cols}
    keep = [j for j in range(n_cols) if j not in dropped]
    if len(keep) < 2:
        raise ValueError(f"{path}: no feature column left after the target and "
                         "the dropped columns")
    table = []
    for i, row in enumerate(rows, start=1):
        values = []
        for j in keep:
            text = row[j].strip()
            if text in CSV_MISSING:
                values.append(None)
            elif j == target and label_map and text in label_map:
                values.append(float(label_map[text]))
            else:
                try:
                    values.append(float(text))
                except ValueError as exc:
                    raise ValueError(f"{path}: non-numeric cell: {exc}") from exc
        if not all(v is None or math.isfinite(v) for v in values):
            raise ValueError(f"{path}: non-finite cell in data row {i}; mark a "
                             "missing value with '?' or an empty cell")
        if None not in values:
            table.append(values)
    if not table:
        raise ValueError(f"{path}: all rows dropped for missing values")
    table = np.array(table)
    t = keep.index(target)
    return np.delete(table, t, axis=1), table[:, t]
