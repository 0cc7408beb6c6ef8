"""Single-qubit quantum neural network: exact expectation values of
parameterized one-qubit circuits, polynomial angle functions, gradient
descent with analytic derivatives, one-shot least-squares training, and
an experiment reproduction harness."""

from .datasets import (Dataset, FoldPlan, filter_pair, gen_logic_gate,
                       gen_sinc, gen_two_moons, kfold_plan, load_csv,
                       load_mnist_idx, split)
from .features import (NormalizationRecord, PolynomialWeightFunction,
                       build_design_matrix, dct_features, eval_angle)
from .linalg import lls_solve, svd
from .metrics import (ConfusionMatrix, MetricReport, MetricSummary,
                      confusion, crossval, metric_suite)
from .model_io import load as load_model
from .model_io import save as save_model
from .training import (GdConfig, InvalidLabel, LlsConfig, TrainedModel,
                       TrainingDiverged, gd_train, lls_train, mse_loss)

__version__ = "0.1.0"

__all__ = [
    "PolynomialWeightFunction", "NormalizationRecord", "eval_angle",
    "build_design_matrix", "dct_features",
    "svd", "lls_solve",
    "Dataset", "FoldPlan", "load_csv", "load_mnist_idx", "filter_pair",
    "gen_logic_gate", "gen_sinc", "gen_two_moons", "kfold_plan", "split",
    "ConfusionMatrix", "MetricReport", "MetricSummary", "confusion",
    "metric_suite", "crossval",
    "GdConfig", "LlsConfig", "TrainedModel", "TrainingDiverged", "InvalidLabel",
    "mse_loss", "gd_train", "lls_train",
    "save_model", "load_model",
    "__version__",
]
