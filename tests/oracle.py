"""Explicit 2x2 matrix path of the single-qubit circuit: the reference
the Bloch-vector chain in sqnn.circuit is checked against.

Rotation gates, the three-rotation neuron Rz(gamma)Ry(beta)Rz(alpha), a
projector-valued observable and the measured expectation value, built by
matrix-vector products. Unlike the chain it also models nonzero state
and projector phases and arbitrary observable eigenvalues. `AngleSet`
and the scalar wrappers `expectation_closed_form` and
`expectation_gradient` evaluate sqnn.circuit's kernels on one angle set.

`fit_feature_scaling`, `hstack_design` and `reference_gd_reduced` are
the reduced-shape gradient-descent path written plainly: the inputs'
column min and max in a NormalizationRecord, a row-major design stacked
from the scaled inputs' power blocks, the gradient
(res * -sin(beta)) @ design and the MSE residual 2 (yhat - y) / n, in
the trainer's loop order.

`poly_angle` evaluates a polynomial angle function by a power loop, one
dot product per power, and `reference_predict` applies a trained model
through it and the 2x2 matrix path: the references for
TrainedModel.predict, which builds the design instead.

`dct2` and `idct2` are the orthonormal 2-D type-II DCT of one square
image and its inverse, C @ X @ C.T and C.T @ Y @ C, the reference for
sqnn.features.dct_features.

`pinv` is the Moore-Penrose pseudoinverse by truncated SVD, with the
truncation rule of sqnn.linalg.lls_solve: the Penrose conditions and the
normal-equation route check the solve through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sqnn.circuit import expectation_batch, gradient_batch
from sqnn.features import NormalizationRecord, _dct_matrix
from sqnn.linalg import default_rcond, svd


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


def expectation_closed_form(angles: AngleSet) -> float:
    """sqnn.circuit's expectation of one angle set (phases zero).

    Reduces to cos(b)cos(t) - cos(a)sin(b)sin(t) at omega = 0 and to
    cos(b) when theta = omega = 0.
    """
    return float(expectation_batch(angles.alpha, angles.beta, angles.gamma,
                                   angles.theta, angles.omega))


def expectation_gradient(angles: AngleSet) -> np.ndarray:
    """sqnn.circuit's gradient for one angle set, as the 5-vector
    (d/d alpha, d/d beta, d/d gamma, d/d theta, d/d omega)."""
    _, parts = gradient_batch(angles.alpha, angles.beta, angles.gamma,
                              angles.theta, angles.omega)
    return np.array([float(p) for p in parts])


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


def fit_feature_scaling(inputs) -> NormalizationRecord:
    """The record that min-max scales each input column onto [-1, 1]."""
    X = np.asarray(inputs, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("need at least one sample to fit feature scaling")
    return NormalizationRecord(feature_min=X.min(axis=0), feature_max=X.max(axis=0))


def hstack_design(inputs, K: int) -> np.ndarray:
    """Rows [1, x, x^2, ..., x^K] as one C-order np.hstack of the blocks."""
    X = np.asarray(inputs, dtype=float)
    blocks, powers = [np.ones((X.shape[0], 1))], X
    for k in range(1, K + 1):
        if k > 1:
            powers = powers * X
        blocks.append(powers)
    return np.hstack(blocks)


def reference_gd_reduced(data, config) -> tuple[np.ndarray, list[float]]:
    """Batch gradient descent on cos(design @ w); returns the final
    coefficients and the loss after each update, stopping as
    sqnn.training.gd_train does (target_loss, then max_epochs)."""
    X = data.inputs
    if config.normalize:
        X = fit_feature_scaling(X).apply_features(X)
    design = hstack_design(X, config.K)
    y, n = data.targets, data.targets.size
    w = np.random.default_rng(config.seed).uniform(
        -config.init_scale, config.init_scale, design.shape[1])

    def loss_and_residual(yhat):
        if config.loss == "mse":
            diff = yhat - y
            return float(np.mean(diff ** 2)), 2.0 * diff / n
        margin = 1.0 - yhat * y
        return (float(np.mean(np.maximum(0.0, margin))),
                np.where(margin > 0, -y, 0.0) / n)

    beta = design @ w
    loss, res = loss_and_residual(np.cos(beta))
    history = []
    for _ in range(config.max_epochs):
        if loss <= config.target_loss:
            break
        w = w - config.learning_rate * ((res * -np.sin(beta)) @ design)
        beta = design @ w
        loss, res = loss_and_residual(np.cos(beta))
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
    batch: the inputs scaled by apply_features, every polynomial through
    poly_angle, the five-angle output row by row through
    expectation_matrix."""
    X = np.asarray(inputs, dtype=float)
    if model.normalization is not None:
        X = model.normalization.apply_features(X)
    beta = poly_angle(model.beta, X)
    if model.kind == "lls":
        return np.tanh(beta), float(np.max(np.abs(beta)))
    if model.kind == "gd-reduced":
        return np.cos(beta), float(np.max(np.abs(beta)))
    alpha, gamma = poly_angle(model.alpha, X), poly_angle(model.gamma, X)
    preds = np.array([expectation_matrix(AngleSet(a, b, g, model.theta, model.omega))
                      for a, b, g in zip(alpha, beta, gamma)])
    return preds, float(np.max(np.abs([alpha, beta, gamma])))


def _square(arr: np.ndarray, what: str) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square {what}, got shape {arr.shape}")
    return arr


def dct2(image) -> np.ndarray:
    """Orthonormal 2-D type-II DCT of a square image, C @ X @ C.T."""
    img = _square(np.asarray(image, dtype=float), "image")
    c = _dct_matrix(img.shape[0])
    return c @ img @ c.T


def idct2(coeffs) -> np.ndarray:
    """Inverse of dct2, C.T @ Y @ C."""
    arr = _square(np.asarray(coeffs, dtype=float), "coefficient block")
    c = _dct_matrix(arr.shape[0])
    return c.T @ arr @ c


def pinv(a, rcond: float | None = None) -> np.ndarray:
    """Pseudoinverse V @ diag(1/s) @ U.T; singular values at or below
    rcond * s_max count as zero, and rcond defaults to eps * max(n, m)."""
    m = np.asarray(a, dtype=float)
    if rcond is None:
        rcond = default_rcond(m.shape)
    if rcond < 0:
        raise ValueError(f"rcond must be non-negative, got {rcond}")
    u, s, v = svd(m)
    inv_s = np.divide(1.0, s, where=s > rcond * s[0], out=np.zeros_like(s))
    return (v * inv_s) @ u.T
