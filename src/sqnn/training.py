"""Training procedures and the trained-model container.

Two trainers are provided. Gradient descent minimizes a batch loss over
the coefficients of polynomial angle functions (and, for the five-angle
network, the scalar state and observable angles), using the analytic
circuit derivatives chained with d(angle)/d(c_kj) = x_j^k. Per epoch, the
reduced network's cos(beta) and -sin(beta) come from the circuit's
half-angle rule into buffers made once per fit, and so does its
prediction; the five-angle network's value and partials come from one
pass of the Bloch-vector chain; the loss's 2/n or -1/n goes on the
coefficient gradient. The one-shot least-squares trainer maps labels
through arctanh and solves for the polynomial coefficients with a
pseudoinverse, which is a global minimum of the squared error in the
transformed space.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import circuit, features, linalg
from .features import (NormalizationRecord, PolynomialWeightFunction, _all_finite,
                       _as_rows, _check_shape, _count, _flag, _real, build_design_matrix)

__all__ = [
    "GdConfig",
    "LlsConfig",
    "trainer_config",
    "TrainedModel",
    "TrainingDiverged",
    "InvalidLabel",
    "mse_loss",
    "gd_train",
    "lls_train",
    "arctanh_labels",
]

DIVERGENCE_CAP = 1e6


class TrainingDiverged(RuntimeError):
    """Gradient descent produced a non-finite or runaway loss."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss={loss!r})")
        self.epoch = epoch
        self.loss = loss


class InvalidLabel(ValueError):
    """A label lies outside [-1, 1] and cannot pass through arctanh."""


def _finite_predictions(pred, lacks: str) -> np.ndarray:
    """pred as a float array, or ValueError naming its first non-finite
    row, which has no `lacks` (a class, a squared error)."""
    arr = np.asarray(pred, dtype=float)
    if not _all_finite(arr):
        row = np.flatnonzero(~np.isfinite(arr))[0]
        raise ValueError(f"prediction of row {row} is {arr.flat[row]}, which has no {lacks}")
    return arr


def mse_loss(predictions, targets) -> float:
    """Mean squared error (1/n) sum (yhat_i - y_i)^2 of finite predictions."""
    p = _finite_predictions(predictions, "squared error").ravel()
    t = np.asarray(targets, dtype=float).ravel()
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} predictions vs {t.size} targets")
    if p.size == 0:
        raise ValueError("empty prediction/target vectors")
    return float(np.mean((p - t) ** 2))


def _loss_and_residual(kind: str, yhat: np.ndarray, y: np.ndarray):
    """(loss, res, scale) with d(loss)/d(yhat) = scale * res, formed in
    place on yhat. MSE: res = yhat - y, scale 2/n. Hinge: res = y where
    the margin 1 - yhat y is positive (else 0), scale -1/n."""
    n = y.size
    if kind == "mse":
        diff = np.subtract(yhat, y, out=yhat)
        return float(diff @ diff) / n, diff, 2.0 / n
    margin = np.subtract(1.0, np.multiply(yhat, y, out=yhat), out=yhat)
    loss = float(np.maximum(margin, 0.0, out=margin).sum()) / n
    return loss, np.multiply(np.sign(margin, out=margin), y, out=margin), -1.0 / n


def _store(instance, **values) -> None:
    """Set checked values on a frozen dataclass: plain values, as saved."""
    for name, value in values.items():
        object.__setattr__(instance, name, value)


@dataclass(frozen=True)
class GdConfig:
    """Gradient-descent settings."""

    learning_rate: float = 0.05
    max_epochs: int = 500
    target_loss: float = 0.0
    seed: int = 0
    init_scale: float = 0.1
    K: int = 1
    loss: str = "mse"
    normalize: bool = True

    def __post_init__(self):
        _store(self, learning_rate=_real("learning_rate", self.learning_rate, positive=True),
               max_epochs=_count("max_epochs", self.max_epochs),
               seed=_count("seed", self.seed, least=0), K=_count("K", self.K),
               target_loss=_real("target_loss", self.target_loss),
               init_scale=_real("init_scale", self.init_scale),
               normalize=_flag("normalize", self.normalize))
        if self.loss not in ("mse", "hinge"):
            raise ValueError(f"loss must be 'mse' or 'hinge', got {self.loss!r}")


def _check_model_shape(shape: str) -> None:
    if shape not in _GD_SHAPES:
        raise ValueError(f"model_shape must be 'reduced' or 'full', got {shape!r}")


def _check_epsilon(epsilon) -> float:
    """epsilon as a float that nudges +-1 strictly inside (-1, 1): below
    about 1.1e-16, 1 - epsilon rounds to 1.0 and arctanh returns inf."""
    if not 0 < epsilon < 1 or 1.0 - float(epsilon) == 1.0:
        raise ValueError(f"epsilon must be in (0, 1) with 1 - epsilon < 1, got {epsilon}")
    return float(epsilon)


@dataclass(frozen=True)
class LlsConfig:
    """One-shot least-squares settings. `epsilon` nudges +-1 labels off
    the asymptotes of tanh before the arctanh transform."""

    K: int = 1
    epsilon: float = 1e-16
    rcond: Optional[float] = None
    normalize: bool = True

    def __post_init__(self):
        _store(self, K=_count("K", self.K), epsilon=_check_epsilon(self.epsilon),
               rcond=None if self.rcond is None else _real("rcond", self.rcond),
               normalize=_flag("normalize", self.normalize))


def trainer_config(settings: dict):
    """(config, shape) for trainer settings named by config field. A
    `shape` key selects GdConfig with that model shape; without one the
    config is an LlsConfig and the shape None. A key that names no field
    of the chosen class, or an unknown shape, raises ValueError."""
    settings = dict(settings)
    shape = settings.pop("shape", None)
    if shape is not None:
        _check_model_shape(shape)
    cls = LlsConfig if shape is None else GdConfig
    unknown = sorted(set(settings) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} setting(s): {', '.join(unknown)}")
    return cls(**settings), shape


@dataclass(frozen=True)
class TrainedModel:
    """A fitted network plus the preprocessing needed to apply it.

    `beta` always holds the polynomial for the Ry angle. The five-angle
    network ("gd-full") additionally carries polynomials for both Rz
    angles and scalar state/observable angles; they are None/0 otherwise.
    Whatever constructs is a valid model: it saves, and its file loads.
    """

    kind: str  # "gd-full" | "gd-reduced" | "lls"
    K: int
    p: int
    beta: PolynomialWeightFunction
    alpha: Optional[PolynomialWeightFunction] = None
    gamma: Optional[PolynomialWeightFunction] = None
    theta: float = 0.0
    omega: float = 0.0
    normalization: Optional[NormalizationRecord] = None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("gd-full", "gd-reduced", "lls"):
            raise ValueError(f"'kind' must be 'gd-full', 'gd-reduced' or 'lls', got {self.kind!r}")
        _store(self, K=_count("K", self.K), p=_count("p", self.p))
        for name in ("alpha", "beta", "gamma"):
            poly, needed = getattr(self, name), name == "beta" or self.kind == "gd-full"
            if (poly is not None) != needed:
                raise ValueError(f"kind {self.kind!r} {'needs' if needed else 'takes no'} {name}")
            if poly is not None and (poly.K, poly.p) != (self.K, self.p):
                raise ValueError(f"{name} has K={poly.K}, p={poly.p}, not K={self.K}, p={self.p}")
        if not isinstance(self.config, dict):
            raise ValueError(f"'config' must be a dict, got {self.config!r}")
        try:
            reloaded = json.loads(json.dumps(self.config))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"'config' must hold plain JSON values: {exc}") from None
        if reloaded != self.config:  # a tuple reloads as a list, a non-str key as a str
            raise ValueError(f"'config' must hold plain JSON values, but reloads as {reloaded!r}")
        for name in ("theta", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name!r} must be finite, got {getattr(self, name)!r}")
        lo = None if self.normalization is None else self.normalization.feature_min
        if lo is not None and lo.size != self.p:
            raise ValueError(f"'feature_min' and 'feature_max' have {lo.size} entries, "
                             f"not p={self.p}")

    def _design_for(self, x) -> np.ndarray:
        """The power design of one input vector or an (n, p) batch, scaled
        by the stored feature bounds."""
        arr = _as_rows(x, self.p)[0]
        if not _all_finite(arr):
            raise ValueError("input holds non-finite values")
        record = self.normalization
        bounds = (None if record is None or record.feature_min is None
                  else (record.feature_min, record.feature_max))
        return build_design_matrix(arr, self.K, bounds)

    def predict(self, x):
        """Model output in [-1, 1] for one input vector or an (n, p) batch;
        nan, without numpy's warnings, where extreme inputs overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            design = self._design_for(x)
            if self.kind == "lls":
                out = np.tanh(design @ self.beta.flat())
            elif self.kind == "gd-reduced":
                out = circuit._cos_and_sin(design @ (-0.5 * self.beta.flat()))[0]
            else:
                out = circuit.expectation_batch(
                    design @ self.alpha.flat(), design @ self.beta.flat(),
                    design @ self.gamma.flat(), self.theta, self.omega)
        return float(out[0]) if np.ndim(x) == 1 else out

    def predict_class(self, x):
        """Sign of the prediction in {-1, +1}; an exact 0 maps to +1. A
        non-finite prediction has no class: ValueError names its row."""
        pred = self.predict(x)
        arr = _finite_predictions(pred, "class")
        cls = np.where(arr >= 0, 1.0, -1.0)
        return float(cls) if np.isscalar(pred) or np.ndim(pred) == 0 else cls


class _DesignRows:
    """The design of inputs X on demand: whole by np.asarray, or rows start:start +
    len(out) into the column-major slice out by fill. Extreme powers overflow to inf
    without a warning: the solve's input check and the divergence guard reject them."""

    def __init__(self, X, K: int, bounds):
        self.X, self.K, self.bounds, self.shape = X, K, bounds, (len(X), 1 + K * X.shape[1])

    def __array__(self, *_):
        with np.errstate(over="ignore"):
            return build_design_matrix(self.X, self.K, self.bounds)

    def fill(self, start: int, out) -> np.ndarray:
        with np.errstate(over="ignore"):
            return features._fill_design(self.X[start:start + len(out)], self.K, self.bounds, out)


def _design(data, K: int, normalize: bool):
    """The design of the (scaled) inputs, as _DesignRows, plus the record a
    trained model must carry: fitted feature ranges and, when the dataset's
    targets were rescaled at load time, the original target range for
    recalibration (None when it has neither). The inputs are scaled inside
    the design, so no scaled copy of them is made."""
    X = data.inputs
    _check_shape("inputs", X.shape)  # min and max need a row
    bounds = (X.min(axis=0), X.max(axis=0)) if normalize else None
    design = _DesignRows(X, K, bounds)
    target_range = getattr(data, "target_range", None)
    record = NormalizationRecord(*(bounds or (None, None)), *(target_range or (None, None)))
    return design, record if normalize or target_range is not None else None


def _reduced_value_and_grad(design):
    """value_and_grad(w) for cos(beta), beta = design @ w: the |0> input
    measured in the computational basis after Ry(beta). Equals the
    five-angle expectation with the other four angles at zero. -beta / 2
    is design @ (-w / 2), exactly; tan is odd, so that half angle gives
    cos(beta) and its derivative -sin(beta). Every call reuses the
    buffers made here, two n-length and two coefficient-length: the
    gradient scales -sin(beta) in place and is written to one of them."""
    cos, dcos = np.empty((2, design.shape[0]))
    half_w, grad = np.empty((2, design.shape[1]))

    def value_and_grad(w):
        np.multiply(w, -0.5, out=half_w)
        circuit._cos_and_sin(np.matmul(design, half_w, out=dcos), out=cos)
        return cos, lambda res: np.matmul(np.multiply(dcos, res, out=dcos), design, out=grad)

    return value_and_grad


def _full_value_and_grad(design):
    """value_and_grad(w) for the five-angle expectation; w holds the
    alpha, beta and gamma coefficients followed by the scalar theta and
    omega. One pass of the circuit's Bloch-vector chain gives the value
    and all five partials, which the gradient scales in place."""
    n = design.shape[1]

    def value_and_grad(w):
        value, (*d_abg, d_th, d_om) = circuit.gradient_batch(
            design @ w[:n], design @ w[n:2 * n], design @ w[2 * n:3 * n], w[-2], w[-1])
        return value, lambda res: np.concatenate(
            [np.multiply(d, res, out=d) @ design for d in d_abg] + [[res @ d_th, res @ d_om]])

    return value_and_grad


def _reduced_model(w, n, K, p) -> dict:
    return {"kind": "gd-reduced", "beta": PolynomialWeightFunction.from_flat(w, K, p)}


def _full_model(w, n, K, p) -> dict:
    alpha, beta, gamma = (PolynomialWeightFunction.from_flat(w[i * n:(i + 1) * n], K, p)
                          for i in range(3))
    return {"kind": "gd-full", "alpha": alpha, "beta": beta, "gamma": gamma,
            "theta": float(w[-2]), "omega": float(w[-1])}


# Per shape: parameter count for n columns, the per-fit factory design ->
# value_and_grad(w) -> (yhat, res -> gradient / scale), and model fields.
_GD_SHAPES = {
    "reduced": (lambda n: n, _reduced_value_and_grad, _reduced_model),
    "full": (lambda n: 3 * n + 2, _full_value_and_grad, _full_model),
}


def gd_train(data, config: GdConfig = GdConfig(), model_shape: str = "reduced"):
    """Batch gradient descent; returns (model, loss_history).

    `model_shape` is "reduced" (single polynomial Ry angle, computational
    basis measurement of |0>-input) or "full" (polynomials for all three
    neuron angles plus scalar state and observable angles). Loss history
    holds the batch loss after each update (the last is the loss at the
    returned coefficients); training stops when it reaches `target_loss`
    or after `max_epochs` updates, and aborts if the loss leaves the
    finite range. The residual's scale goes on the gradient, in place:
    g = grad(res); g *= lr * scale; w -= g.
    """
    _check_model_shape(model_shape)
    n_params, make_value_and_grad, model_fields = _GD_SHAPES[model_shape]
    y = data.targets
    design, record = _design(data, config.K, config.normalize)
    n_coef = design.shape[1]
    rng = np.random.default_rng(config.seed)
    w = rng.uniform(-config.init_scale, config.init_scale, n_params(n_coef))
    value_and_grad = make_value_and_grad(np.asarray(design))

    history: list[float] = []
    # non-finite intermediates are expected on the way to the divergence
    # guard below, so numpy's warnings are silenced for the loop
    with np.errstate(invalid="ignore", over="ignore"):
        yhat, grad = value_and_grad(w)
        loss, res, scale = _loss_and_residual(config.loss, yhat, y)
        for _ in range(config.max_epochs):
            if loss <= config.target_loss:
                break
            g = grad(res)
            g *= config.learning_rate * scale
            w -= g
            yhat, grad = value_and_grad(w)
            loss, res, scale = _loss_and_residual(config.loss, yhat, y)
            history.append(loss)
            if not math.isfinite(loss) or loss > DIVERGENCE_CAP:
                raise TrainingDiverged(epoch=len(history), loss=loss)
    if not history:
        history.append(loss)

    model = TrainedModel(K=config.K, p=data.p, normalization=record,
                         config={"trainer": "gd", "shape": model_shape, **asdict(config)},
                         **model_fields(w, n_coef, config.K, data.p))
    return model, history


def arctanh_labels(targets, epsilon: float = 1e-16) -> np.ndarray:
    """arctanh of labels, with +-1 nudged inward by epsilon first;
    epsilon follows LlsConfig's rule."""
    _check_epsilon(epsilon)
    y = np.asarray(targets, dtype=float)
    if not _all_finite(y) or np.any(np.abs(y) > 1.0):
        raise InvalidLabel("labels must lie in [-1, 1]")
    clipped = np.where(y >= 1.0, 1.0 - epsilon, np.where(y <= -1.0, -1.0 + epsilon, y))
    return np.arctanh(clipped)


def lls_train(data, config: LlsConfig = LlsConfig()) -> TrainedModel:
    """One-shot least-squares fit of the reduced network.

    Transforms labels with arctanh (after nudging +-1 inward by epsilon)
    and solves the power design's linear system by pseudoinverse; the
    design is built where it is factorized, in row blocks on lls_solve's
    large tall route. The model prediction is tanh of the fitted polynomial.
    """
    design, record = _design(data, config.K, config.normalize)
    rhs = arctanh_labels(data.targets, config.epsilon)
    coeffs = linalg.lls_solve(design, rhs, rcond=config.rcond, overwrite_x=True)
    return TrainedModel(
        kind="lls", K=config.K, p=data.p,
        beta=PolynomialWeightFunction.from_flat(coeffs, config.K, data.p),
        normalization=record,
        config={"trainer": "lls", **asdict(config)})
