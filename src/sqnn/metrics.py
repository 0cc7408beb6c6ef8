"""Classification/regression evaluation and k-fold cross-validation.

The positive class is +1 throughout. Ratios with a zero denominator are
reported as 0 and flagged instead of propagating NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, kfold_plan, split
from .training import GdConfig, LlsConfig, gd_train, lls_train, mse_loss

__all__ = [
    "ConfusionMatrix",
    "MetricReport",
    "MetricSummary",
    "confusion",
    "metric_suite",
    "crossval",
    "CLASSIFICATION_METRICS",
]

CLASSIFICATION_METRICS = ("accuracy", "precision", "sensitivity", "specificity", "f1")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(predicted, actual) -> ConfusionMatrix:
    """Count outcomes of +-1 predictions against +-1 labels."""
    p = np.asarray(predicted, dtype=float).ravel()
    a = np.asarray(actual, dtype=float).ravel()
    if p.size != a.size:
        raise ValueError(f"length mismatch: {p.size} predictions vs {a.size} labels")
    if p.size == 0:
        raise ValueError("empty vectors")
    for name, v in (("predicted", p), ("actual", a)):
        if not np.all(np.isin(v, (-1.0, 1.0))):
            raise ValueError(f"{name} values must be -1 or +1")
    return ConfusionMatrix(
        tp=int(np.sum((p == 1) & (a == 1))),
        fp=int(np.sum((p == 1) & (a == -1))),
        tn=int(np.sum((p == -1) & (a == -1))),
        fn=int(np.sum((p == -1) & (a == 1))),
    )


@dataclass(frozen=True)
class MetricReport:
    """The five classification metrics; `undefined` names any metric whose
    denominator was zero (its value is reported as 0)."""

    accuracy: float
    precision: float
    sensitivity: float
    specificity: float
    f1: float
    undefined: frozenset = frozenset()

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in CLASSIFICATION_METRICS}


def metric_suite(cm: ConfusionMatrix) -> MetricReport:
    """Accuracy, precision, sensitivity, specificity and F1 from counts."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    undefined = set()

    def ratio(name: str, num: int, den: int) -> float:
        if den == 0:
            undefined.add(name)
            return 0.0
        return num / den

    accuracy = (cm.tp + cm.tn) / cm.total
    precision = ratio("precision", cm.tp, cm.tp + cm.fp)
    sensitivity = ratio("sensitivity", cm.tp, cm.tp + cm.fn)
    specificity = ratio("specificity", cm.tn, cm.tn + cm.fp)
    if precision + sensitivity == 0:
        undefined.add("f1")
        f1 = 0.0
    else:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    return MetricReport(accuracy=accuracy, precision=precision,
                        sensitivity=sensitivity, specificity=specificity,
                        f1=f1, undefined=frozenset(undefined))


@dataclass(frozen=True)
class MetricSummary:
    """Per-fold values of one metric with mean and sample std (ddof=1)."""

    name: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))


def _train_for(dataset: Dataset, trainer: str, config, model_shape: str):
    if trainer == "lls":
        return lls_train(dataset, config), None
    return gd_train(dataset, config, model_shape=model_shape)


def crossval(dataset: Dataset, *, trainer: str = "lls",
             config: GdConfig | LlsConfig | None = None,
             model_shape: str = "reduced", task: str = "classification",
             k: int = 10, seed: int = 0) -> dict[str, MetricSummary]:
    """k-fold cross-validation; deterministic for a given seed.

    Classification reports the five standard metrics per held-out fold,
    over stratified folds; regression reports the training-fold and
    held-out MSE. A GD fit on the MSE loss gives its last loss, the MSE
    at the returned coefficients; other fits predict their training fold.
    `config` must be an LlsConfig for trainer "lls" and a GdConfig for
    "gd"; None takes that class's defaults.
    """
    config_class = {"lls": LlsConfig, "gd": GdConfig}.get(trainer)
    if config_class is None:
        raise ValueError(f"unknown trainer {trainer!r}, expected 'lls' or 'gd'")
    if config is None:
        config = config_class()
    if not isinstance(config, config_class):
        raise ValueError(f"trainer {trainer!r} takes a {config_class.__name__}, "
                         f"got a {type(config).__name__}")
    if task not in ("classification", "regression"):
        raise ValueError(f"unknown task {task!r}")
    plan = kfold_plan(dataset.n, k=k, seed=seed,
                      labels=dataset.targets if task == "classification" else None)

    per_fold: dict[str, list[float]] = {}
    for fold in range(plan.k):
        train_set, test_set = split(dataset, plan, fold)
        model, history = _train_for(train_set, trainer, config, model_shape)
        if task == "classification":
            report = metric_suite(confusion(model.predict_class(test_set.inputs),
                                            test_set.targets))
            fold_values = report.as_dict()
        else:
            fold_values = {
                "train_mse": (history[-1] if history and config.loss == "mse" else
                              mse_loss(model.predict(train_set.inputs), train_set.targets)),
                "test_mse": mse_loss(model.predict(test_set.inputs), test_set.targets),
            }
        for name, value in fold_values.items():
            per_fold.setdefault(name, []).append(float(value))
    return {name: MetricSummary(name=name, values=tuple(vals))
            for name, vals in per_fold.items()}
