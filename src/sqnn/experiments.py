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
from dataclasses import dataclass, field
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
        "note": "extract wdbc.data",
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


def _score(model, test, result: RecipeResult, key: str) -> metrics.MetricReport:
    """Classify the held-out set and store its metric suite under `key`."""
    report = metrics.metric_suite(metrics.confusion(
        model.predict_class(test.inputs), test.targets))
    for name, value in report.as_dict().items():
        result.values[f"{key}.{name}"] = value
    return report


# Every runner takes (recipe, result, log, data_dir) and fills
# result.values; run_recipe checks the recipe's bounds afterwards.

def _run_logic_gates(recipe: dict, result: RecipeResult, log, data_dir: Path) -> None:
    config, shape = training.trainer_config(recipe["trainer"])
    for gate in recipe["gates"]:
        data = datasets.gen_logic_gate(gate)
        model, history = training.gd_train(data, config, model_shape=shape)
        result.values[f"{gate}.mse"] = history[-1]
        result.values[f"{gate}.epochs"] = float(len(history))
        log(f"  {gate}: mse={history[-1]:.2e} epochs={len(history)}")


def _run_sinc(recipe: dict, result: RecipeResult, log, data_dir: Path) -> None:
    config, shape = training.trainer_config(recipe["trainer"])
    for variant in recipe["variants"]:
        name = variant["name"]
        train, _val, test = datasets.gen_sinc(**recipe["dataset"],
                                              noise_sigma=variant["noise_sigma"])
        model, history = training.gd_train(train, config, model_shape=shape)
        train_mse = history[-1]
        test_mse = training.mse_loss(model.predict(test.inputs), test.targets)
        result.values[f"{name}.train_mse"] = train_mse
        result.values[f"{name}.test_mse"] = test_mse
        log(f"  {name}: train_mse={train_mse:.2e} test_mse={test_mse:.2e} "
            f"epochs={len(history)}")


def _run_crossval(recipe: dict, result: RecipeResult, log, data_dir: Path) -> None:
    """K-sweep of k-fold cross-validation; the task is the experiment
    name's prefix ("regression" or "classification")."""
    task = recipe["experiment"].removesuffix("-crossval")
    metric = "test_mse" if task == "regression" else "accuracy"
    path = require_files(recipe["requires"], data_dir)[0]
    data = datasets.load_csv(path, **recipe["loader"])
    log(f"  loaded {data.tag}: n={data.n} p={data.p} (dropped {data.dropped_rows} rows)")
    for K in recipe["K_values"]:
        config, shape = training.trainer_config({**recipe["trainer"], "K": K})
        fit = {"trainer": "lls"} if shape is None else {"trainer": "gd", "model_shape": shape}
        summary = metrics.crossval(data, config=config, task=task, k=recipe["k"],
                                   seed=recipe["cv_seed"], **fit)
        for name, s in summary.items():
            result.values[f"K{K}.{name}.mean"] = s.mean
            result.values[f"K{K}.{name}.std"] = s.std
        log(f"  K={K}: {metric}={summary[metric].mean:.4f}"
            f" +- {summary[metric].std:.4f}")


def _run_moons(recipe: dict, result: RecipeResult, log, data_dir: Path) -> None:
    gen = recipe["dataset"]
    train = datasets.gen_two_moons(n=gen["n_train"], noise=gen["noise"], seed=gen["seed"])
    test = datasets.gen_two_moons(n=gen["n_test"], noise=gen["noise"], seed=gen["test_seed"])
    for K in recipe["K_values"]:
        config, _ = training.trainer_config({**recipe["trainer"], "K": K})
        report = _score(training.lls_train(train, config), test, result, f"K{K}")
        log(f"  K={K}: accuracy={report.accuracy:.3f} f1={report.f1:.3f}")


def _run_mnist_pairs(recipe: dict, result: RecipeResult, log, data_dir: Path) -> None:
    paths = require_files("mnist", data_dir)
    train_images, train_labels = datasets.load_mnist_idx(paths[0], paths[1])
    test_images, test_labels = datasets.load_mnist_idx(paths[2], paths[3])
    config, _ = training.trainer_config(recipe["trainer"])
    for a, b in recipe["pairs"]:
        start = time.monotonic()
        train = datasets.filter_pair(train_images, train_labels, a, b,
                                     dct_block=recipe["dct_block"])
        model = training.lls_train(train, config)
        # built after the solve, so its features are not live during it
        test = datasets.filter_pair(test_images, test_labels, a, b,
                                    dct_block=recipe["dct_block"])
        key = f"{a}v{b}"
        report = _score(model, test, result, key)
        took = time.monotonic() - start
        result.values[f"{key}.seconds"] = took
        log(f"  {key}: accuracy={report.accuracy:.4f} ({took:.1f}s, "
            f"n_train={train.n}, n_test={test.n})")


_RUNNERS = {
    "logic-gates": _run_logic_gates,
    "sinc": _run_sinc,
    "regression-crossval": _run_crossval,
    "classification-crossval": _run_crossval,
    "moons": _run_moons,
    "mnist-pairs": _run_mnist_pairs,
}


def check_overrides(recipe: dict, pair=None, dct_keep=None) -> None:
    """ValueError when `pair` or `dct_keep` is given for a recipe without
    the `pairs` or `dct_block` it would override."""
    missing = " or ".join(key for key, value in (("pairs", pair), ("dct_block", dct_keep))
                          if value is not None and key not in recipe)
    if missing:
        raise ValueError(f"recipe {recipe['name']!r} has no {missing} to override")


def run_recipe(name: str, data_dir=None, pair=None, dct_keep=None,
               log=None) -> RecipeResult:
    """Run one named recipe and evaluate its bounds.

    `pair` and `dct_keep` override the recipe's `pairs` and `dct_block`:
    the MNIST recipe then runs a single digit pair, or keeps another
    low-frequency block, and only the bounds of that pair are checked.
    `dct_keep` on a recipe without `dct_block` raises ValueError before
    the run; `pair` on one without `pairs` checks no bound, as none is
    named after a pair. Raises MissingData when a required file is absent.
    """
    recipe = load_recipe(name)
    runner = _RUNNERS.get(recipe["experiment"])
    if runner is None:
        raise ValueError(f"recipe {name!r} has unknown experiment {recipe['experiment']!r}")
    check_overrides(recipe, dct_keep=dct_keep)
    overrides = {"pairs": pair and [pair], "dct_block": dct_keep}
    recipe = {**recipe, **{key: value for key, value in overrides.items() if value is not None}}
    result = RecipeResult(name=name)
    start = time.monotonic()
    runner(recipe, result, log or (lambda msg: None), resolve_data_dir(data_dir))
    result.elapsed = time.monotonic() - start

    checked = recipe["assertions"]
    if pair is not None:
        prefix = f"{pair[0]}v{pair[1]}."
        checked = [a for a in checked if a["value"].startswith(prefix)]
    for spec in checked:
        if spec["value"] in result.values:
            result.assertions.append(_check(result.values, spec))
        else:
            result.assertions.append(AssertionResult(
                label=spec.get("label", spec["value"]), passed=False,
                detail=f"value {spec['value']!r} was not produced by the run"))
    return result
