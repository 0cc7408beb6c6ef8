"""Named end-to-end experiment recipes.

Each recipe is a JSON document shipped with the package (recipes/*.json)
describing a dataset, a trainer configuration and a list of bounds the
run is expected to satisfy. The runner executes the pipeline, collects
named result values and checks every bound, so a recipe doubles as an
executable regression test of the published numbers it encodes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from . import datasets, metrics, training

__all__ = [
    "AssertionResult",
    "RecipeResult",
    "MissingData",
    "available_recipes",
    "load_recipe",
    "run_recipe",
    "resolve_data_dir",
    "DATA_DIR_ENV",
    "DATASET_SOURCES",
]

DATA_DIR_ENV = "SQNN_DATA_DIR"
RECIPE_FORMAT_VERSION = 1

# Download sources for the real datasets; file names are what the
# recipes look for inside the data directory.
DATASET_SOURCES = {
    "ccpp": {
        "files": ["ccpp.csv"],
        "urls": ["https://archive.ics.uci.edu/static/public/294/combined+cycle+power+plant.zip"],
        "note": ("the archive contains Folds5x2_pp.xlsx; export sheet 1 "
                 "as CSV with the header row to ccpp.csv"),
    },
    "communities": {
        "files": ["communities.data"],
        "urls": ["https://archive.ics.uci.edu/static/public/183/communities+and+crime.zip"],
        "note": "extract communities.data from the archive",
    },
    "wdbc": {
        "files": ["wdbc.data"],
        "urls": ["https://archive.ics.uci.edu/static/public/17/breast+cancer+wisconsin+diagnostic.zip"],
        "note": ("extract wdbc.data; `sqnn fetch wdbc` can also materialize "
                 "it from scikit-learn's bundled copy without network access"),
    },
    "mnist": {
        "files": [
            "train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz",
            "t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz",
        ],
        "urls": ["https://ossci-datasets.s3.amazonaws.com/mnist/" + f for f in (
            "train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz",
            "t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz")],
        "note": "four IDX files, gzip accepted as-is",
    },
}


class MissingData(FileNotFoundError):
    """A required data file is absent; the message explains how to get it."""

    def __init__(self, dataset: str, missing: list[str], data_dir: Path):
        source = DATASET_SOURCES[dataset]
        lines = [f"missing data file(s) for {dataset!r} in {data_dir}: "
                 + ", ".join(missing),
                 f"fetch with: sqnn fetch {dataset} --data-dir {data_dir}",
                 "or download manually:"]
        lines += [f"  {u}" for u in source["urls"]]
        lines.append(f"  ({source['note']})")
        super().__init__("\n".join(lines))
        self.dataset = dataset
        self.missing = missing


@dataclass(frozen=True)
class AssertionResult:
    label: str
    passed: bool
    detail: str


@dataclass
class RecipeResult:
    name: str
    values: dict[str, float] = field(default_factory=dict)
    assertions: list[AssertionResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def report_lines(self) -> list[str]:
        lines = [f"recipe {self.name} ({self.elapsed:.1f}s)"]
        for key in sorted(self.values):
            lines.append(f"  {key} = {self.values[key]:.6g}")
        for a in self.assertions:
            lines.append(f"  [{'PASS' if a.passed else 'FAIL'}] {a.label}: {a.detail}")
        return lines


def resolve_data_dir(data_dir=None) -> Path:
    if data_dir is not None:
        return Path(data_dir)
    return Path(os.environ.get(DATA_DIR_ENV, "data"))


def require_files(dataset: str, data_dir: Path) -> list[Path]:
    paths = [data_dir / name for name in DATASET_SOURCES[dataset]["files"]]
    missing = [p.name for p in paths if not p.exists()]
    if missing:
        raise MissingData(dataset, missing, data_dir)
    return paths


def materialize_wdbc(path: Path) -> bool:
    """Write wdbc.data from scikit-learn's bundled copy of the same UCI
    table (id, M/B diagnosis, 30 features per row). Returns False when
    scikit-learn is not installed."""
    try:
        from sklearn.datasets import load_breast_cancer
    except ImportError:
        return False
    bunch = load_breast_cancer()
    rows = []
    for i, (features, label) in enumerate(zip(bunch.data, bunch.target)):
        diagnosis = "M" if label == 0 else "B"
        rows.append(",".join([str(842301 + i), diagnosis]
                             + [f"{v:.17g}" for v in features]))
    Path(path).write_text("\n".join(rows) + "\n")
    return True


def available_recipes() -> list[str]:
    root = resources.files("sqnn") / "recipes"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_recipe(name: str) -> dict:
    ref = resources.files("sqnn") / "recipes" / f"{name}.json"
    if not ref.is_file():
        raise ValueError(f"unknown recipe {name!r}; available: {', '.join(available_recipes())}")
    recipe = json.loads(ref.read_text())
    version = recipe.get("format_version")
    if version != RECIPE_FORMAT_VERSION:
        raise ValueError(f"recipe {name!r} has format_version {version!r}, "
                         f"expected {RECIPE_FORMAT_VERSION}")
    return recipe


def _config(cls, trainer: dict):
    """A recipe's trainer settings, minus `shape`, as a GdConfig or
    LlsConfig; a key that names no setting raises ValueError."""
    settings = {k: v for k, v in trainer.items() if k != "shape"}
    unknown = sorted(set(settings) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"recipe trainer has unknown {cls.__name__} "
                         f"setting(s): {', '.join(unknown)}")
    return cls(**settings)


def _check(values: dict[str, float], spec: dict) -> AssertionResult:
    key = spec["value"]
    value = values[key]
    lo, hi = spec.get("min"), spec.get("max")
    exceeds = spec.get("exceeds")  # name of a value this one must be above
    ok = (lo is None or value >= lo) and (hi is None or value <= hi)
    bounds = []
    if lo is not None:
        bounds.append(f">= {lo:g}")
    if hi is not None:
        bounds.append(f"<= {hi:g}")
    if exceeds is not None:
        ok = ok and value > values[exceeds]
        bounds.append(f"> {exceeds} ({values[exceeds]:.6g})")
    return AssertionResult(label=spec.get("label", key), passed=ok,
                           detail=f"{key} = {value:.6g} (required {' and '.join(bounds)})")


def _run_logic_gates(recipe: dict, result: RecipeResult, log) -> None:
    trainer = recipe["trainer"]
    config = _config(training.GdConfig, trainer)
    for gate in recipe.get("gates", sorted(datasets.LOGIC_GATES)):
        data = datasets.gen_logic_gate(gate)
        model, history = training.gd_train(data, config,
                                           model_shape=trainer.get("shape", "full"))
        result.values[f"{gate}.mse"] = history[-1]
        result.values[f"{gate}.epochs"] = float(len(history))
        log(f"  {gate}: mse={history[-1]:.2e} epochs={len(history)}")


def _run_sinc(recipe: dict, result: RecipeResult, log) -> None:
    trainer = recipe["trainer"]
    config = _config(training.GdConfig, trainer)
    gen = recipe.get("dataset", {})
    for variant in recipe["variants"]:
        name = variant["name"]
        train, _val, test = datasets.gen_sinc(
            n_train=gen.get("n_train", 800), n_val=gen.get("n_val", 100),
            n_test=gen.get("n_test", 100), noise_sigma=variant.get("noise_sigma", 0.0),
            seed=gen.get("seed", 0))
        model, history = training.gd_train(train, config,
                                           model_shape=trainer.get("shape", "full"))
        train_mse = history[-1]
        test_mse = training.mse_loss(model.predict(test.inputs), test.targets)
        result.values[f"{name}.train_mse"] = train_mse
        result.values[f"{name}.test_mse"] = test_mse
        log(f"  {name}: train_mse={train_mse:.2e} test_mse={test_mse:.2e} "
            f"epochs={len(history)}")


def _load_recipe_csv(recipe: dict, data_dir: Path) -> datasets.Dataset:
    loader = recipe["loader"]
    paths = require_files(recipe["requires"], data_dir)
    return datasets.load_csv(
        paths[0],
        target_column=loader.get("target_column", -1),
        has_header=loader.get("has_header"),
        label_map=loader.get("label_map"),
        drop_cols=loader.get("drop_cols", ()),
        drop_sparse_cols=loader.get("drop_sparse_cols"),
        scale_targets=loader.get("scale_targets", "auto"),
    )


def _run_regression_crossval(recipe: dict, result: RecipeResult, log,
                             data_dir: Path) -> None:
    data = _load_recipe_csv(recipe, data_dir)
    log(f"  loaded {data.tag}: n={data.n} p={data.p} (dropped {data.dropped_rows} rows)")
    trainer = recipe["trainer"]
    for K in recipe["K_values"]:
        config = _config(training.GdConfig, {**trainer, "K": K})
        summary = metrics.crossval(
            data, trainer="gd", config=config,
            model_shape=trainer.get("shape", "reduced"), task="regression",
            k=recipe.get("k", 10), seed=recipe.get("cv_seed", 0))
        for name, s in summary.items():
            result.values[f"K{K}.{name}.mean"] = s.mean
            result.values[f"K{K}.{name}.std"] = s.std
        log(f"  K={K}: test_mse={summary['test_mse'].mean:.4f}"
            f" +- {summary['test_mse'].std:.4f}")


def _run_classification_crossval(recipe: dict, result: RecipeResult, log,
                                 data_dir: Path) -> None:
    data = _load_recipe_csv(recipe, data_dir)
    log(f"  loaded {data.tag}: n={data.n} p={data.p}")
    trainer = recipe["trainer"]
    for K in recipe["K_values"]:
        config = _config(training.LlsConfig, {**trainer, "K": K})
        summary = metrics.crossval(
            data, trainer="lls", config=config, task="classification",
            k=recipe.get("k", 10), seed=recipe.get("cv_seed", 0))
        for name, s in summary.items():
            result.values[f"K{K}.{name}.mean"] = s.mean
            result.values[f"K{K}.{name}.std"] = s.std
        log(f"  K={K}: accuracy={summary['accuracy'].mean:.4f}"
            f" +- {summary['accuracy'].std:.4f}")


def _run_moons(recipe: dict, result: RecipeResult, log) -> None:
    gen = recipe.get("dataset", {})
    train = datasets.gen_two_moons(n=gen.get("n_train", 1000),
                                   noise=gen.get("noise", 0.07),
                                   seed=gen.get("seed", 0))
    test = datasets.gen_two_moons(n=gen.get("n_test", 100),
                                  noise=gen.get("noise", 0.07),
                                  seed=gen.get("test_seed", 1000))
    for K in recipe["K_values"]:
        config = _config(training.LlsConfig, {**recipe["trainer"], "K": K})
        model = training.lls_train(train, config)
        report = metrics.metric_suite(metrics.confusion(
            model.predict_class(test.inputs), test.targets))
        for name, value in report.as_dict().items():
            result.values[f"K{K}.{name}"] = value
        log(f"  K={K}: accuracy={report.accuracy:.3f} f1={report.f1:.3f}")


def _run_mnist_pairs(recipe: dict, result: RecipeResult, log,
                     data_dir: Path, pair=None, dct_keep=None) -> None:
    paths = require_files("mnist", data_dir)
    train_images, train_labels = datasets.load_mnist_idx(paths[0], paths[1])
    test_images, test_labels = datasets.load_mnist_idx(paths[2], paths[3])
    pairs = [tuple(pair)] if pair else [tuple(p) for p in recipe["pairs"]]
    dct_block = dct_keep if dct_keep is not None else recipe.get("dct_block")
    config = _config(training.LlsConfig, recipe["trainer"])
    for a, b in pairs:
        start = time.monotonic()
        train = datasets.filter_pair(train_images, train_labels, a, b, dct_block=dct_block)
        test = datasets.filter_pair(test_images, test_labels, a, b, dct_block=dct_block)
        model = training.lls_train(train, config)
        report = metrics.metric_suite(metrics.confusion(
            model.predict_class(test.inputs), test.targets))
        took = time.monotonic() - start
        key = f"{a}v{b}"
        for name, value in report.as_dict().items():
            result.values[f"{key}.{name}"] = value
        result.values[f"{key}.seconds"] = took
        log(f"  {key}: accuracy={report.accuracy:.4f} ({took:.1f}s, "
            f"n_train={train.n}, n_test={test.n})")


def run_recipe(name: str, data_dir=None, pair=None, dct_keep=None,
               log=None) -> RecipeResult:
    """Run one named recipe and evaluate its bounds.

    `pair` restricts the MNIST recipe to a single digit pair and
    `dct_keep` overrides its low-frequency block selection. Raises
    MissingData when a required file is absent.
    """
    recipe = load_recipe(name)
    log = log or (lambda msg: None)
    directory = resolve_data_dir(data_dir)
    result = RecipeResult(name=name)
    start = time.monotonic()

    experiment = recipe["experiment"]
    if experiment == "logic-gates":
        _run_logic_gates(recipe, result, log)
    elif experiment == "sinc":
        _run_sinc(recipe, result, log)
    elif experiment == "regression-crossval":
        _run_regression_crossval(recipe, result, log, directory)
    elif experiment == "classification-crossval":
        _run_classification_crossval(recipe, result, log, directory)
    elif experiment == "moons":
        _run_moons(recipe, result, log)
    elif experiment == "mnist-pairs":
        _run_mnist_pairs(recipe, result, log, directory, pair=pair,
                         dct_keep=dct_keep)
    else:
        raise ValueError(f"recipe {name!r} has unknown experiment {experiment!r}")

    result.elapsed = time.monotonic() - start
    checked = recipe.get("assertions", [])
    if pair is not None:
        prefix = f"{pair[0]}v{pair[1]}."
        checked = [a for a in checked if a["value"].startswith(prefix)]
    for spec in checked:
        if spec["value"] in result.values:
            result.assertions.append(_check(result.values, spec))
        elif spec.get("optional"):
            continue
        else:
            result.assertions.append(AssertionResult(
                label=spec.get("label", spec["value"]), passed=False,
                detail=f"value {spec['value']!r} was not produced by the run"))
    return result
