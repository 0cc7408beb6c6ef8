"""Wrappers around sqnn's public functions: result capture and spans.

The library's modules import each other's functions by name (metrics
calls `gd_train`, training calls `build_design_matrix`, linalg's
`lls_solve` calls `svd`), so replacing one module attribute would miss
most calls. `Recorder.install` looks every wrapped function up under its
canonical dotted name, then replaces it under every name any loaded
sqnn module holds it by. A canonical name that no longer resolves stops
the run with `UnresolvedName` instead of reporting zero calls.

Capture is always on: the benchmark checks the models a recipe trains,
which the recipe does not return. It keeps the configuration and the
result of each call, never the training data, so it adds no memory that
scales with the data. Spans are recorded only when tracing is on.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "sqnn"

# Every function the traced run reports, as `<module>.<attribute path>`.
TRACED = (
    "circuit.expectation_batch", "circuit.gradient_batch",
    "training.gd_train", "training.lls_train", "training.TrainedModel.predict",
    "features.build_design_matrix", "features.eval_angle", "features.dct_features",
    "features.NormalizationRecord.apply_features",
    "linalg.lls_solve", "linalg.svd",
    "metrics.crossval", "metrics.confusion", "metrics.metric_suite",
    "datasets.load_csv", "datasets.kfold_plan", "datasets.split",
    "datasets.load_mnist_idx", "datasets.filter_pair",
    "model_io.save", "model_io.load",
    "experiments.run_recipe",
)
# Functions whose calls the checks need: the fitted models (and GD loss
# histories), the fold plans, and the digit-pair datasets.
CAPTURED = ("training.gd_train", "training.lls_train",
            "datasets.kfold_plan", "datasets.filter_pair")

# An epoch counts as flat when it lowers the loss by less than this
# share of the previous epoch's loss.
FLAT_EPOCH_IMPROVEMENT = 1e-6


class UnresolvedName(LookupError):
    """A wrapped function's canonical name no longer resolves."""


def resolve(dotted: str):
    """(owner, attribute, function) for `<module>.<attr>[.<attr>]`."""
    module_name, *path = dotted.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        return owner, path[-1], getattr(owner, path[-1])
    except (ImportError, AttributeError) as exc:
        raise UnresolvedName(f"{PACKAGE}.{dotted} does not resolve: {exc}") from exc


def _elements(args, kwargs) -> int:
    return int(np.broadcast(*args, *kwargs.values()).size)


def _svd_cells(args, kwargs) -> int:
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(shape[0] * shape[1])


def _epochs(result) -> tuple[int, int]:
    history = np.asarray(result[1], dtype=float)
    previous, current = history[:-1], history[1:]
    flat = (previous - current) < FLAT_EPOCH_IMPROVEMENT * previous
    return history.size, int(np.count_nonzero(flat))


class Recorder:
    """Installs the wrappers on the imported sqnn package.

    `captured[name]` lists `(args, kwargs, result)` of each captured call,
    with Dataset arguments left out. With `trace=True` every TRACED
    function also records a span (name index, start, end, parent span)
    and the per-call quantities of `extra`.
    """

    def __init__(self, trace: bool):
        self.names = list(TRACED) if trace else []
        self.captured: dict[str, list] = {name: [] for name in CAPTURED}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.extra: dict[str, float] = {}
        self._stack = [-1]
        self._patched: list = []

    def install(self) -> None:
        self._dataset = resolve("datasets.Dataset")[2]
        wrapped = set(CAPTURED) | set(self.names)
        resolved = {name: resolve(name) for name in sorted(wrapped)}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, (owner, attr, func) in resolved.items():
            wrapper = self._wrap(name, func)
            if isinstance(owner, type):
                targets = [(owner, attr)]
            else:
                targets = [(module, key) for module in modules
                           for key, value in vars(module).items() if value is func]
            for target, key in targets:
                self._patched.append((target, key, func))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back (tests install several times)."""
        for target, key, func in reversed(self._patched):
            setattr(target, key, func)
        self._patched.clear()

    def _wrap(self, name: str, func):
        capture = self.captured.get(name)
        index = self.names.index(name) if name in self.names else None
        count = {"circuit.expectation_batch": ("elements", _elements),
                 "circuit.gradient_batch": ("elements", _elements),
                 "linalg.svd": ("cells", _svd_cells)}.get(name)
        epochs = name == "training.gd_train"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if index is None:
                result = func(*args, **kwargs)
            else:
                span = len(self.span_start)
                self.span_name.append(index)
                self.span_parent.append(self._stack[-1])
                self.span_end.append(0.0)
                self._stack.append(span)
                self.span_start.append(perf_counter())
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.span_end[span] = perf_counter()
                    self._stack.pop()
                if count is not None:
                    key = f"{name}.{count[0]}"
                    self.extra[key] = self.extra.get(key, 0) + count[1](args, kwargs)
                if epochs:
                    total, flat = _epochs(result)
                    self.extra[f"{name}.epochs"] = self.extra.get(f"{name}.epochs", 0) + total
                    key = f"{name}.flat_epochs"
                    self.extra[key] = self.extra.get(key, 0) + flat
            if capture is not None:
                kept = tuple(a for a in args if not isinstance(a, self._dataset))
                capture.append((kept, kwargs, result))
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy seconds and self seconds of every traced name, from
        the spans, plus the derived per-call quantities."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = (np.frombuffer(self.span_end, dtype=np.float64)
                    - np.frombuffer(self.span_start, dtype=np.float64))
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested],
                               minlength=duration.size)
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        busy = np.bincount(names, weights=duration, minlength=size)
        own = np.bincount(names, weights=duration - children, minlength=size)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.s"] = float(busy[i])
            out[f"{name}.self_s"] = float(own[i])
        for name in ("circuit.expectation_batch", "circuit.gradient_batch"):
            n = calls[self.names.index(name)]
            out[f"{name}.us_per_call"] = 1e6 * out[f"{name}.s"] / n if n else 0.0
            out[f"{name}.elements"] = self.extra.get(f"{name}.elements", 0) / n if n else 0.0
        n = calls[self.names.index("linalg.svd")]
        out["linalg.svd.ms_per_call"] = 1e3 * out["linalg.svd.s"] / n if n else 0.0
        out["linalg.svd.cells"] = float(self.extra.get("linalg.svd.cells", 0))
        for key in ("training.gd_train.epochs", "training.gd_train.flat_epochs"):
            out[key] = float(self.extra.get(key, 0))
        return out

    def save_spans(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32),
                            start=np.frombuffer(self.span_start, dtype=np.float64),
                            end=np.frombuffer(self.span_end, dtype=np.float64))
