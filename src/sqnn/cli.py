"""Command-line interface.

Exit codes: 0 success, 1 training/assertion failure or a value the
library rejects, 2 usage error, 3 missing or unreadable data, or an
output file that cannot be written.
The data directory for the real-dataset recipes defaults to ./data and
can be set with SQNN_DATA_DIR or --data-dir.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import datasets, experiments, features, linalg, metrics, model_io, training

EXIT_FAILURE = 1
EXIT_IO = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_label_map(text: str | None):
    if not text:
        return None
    mapping = {}
    for item in text.split(","):
        key, sep, value = item.partition(":")
        key = key.strip()
        if key in mapping:
            raise click.UsageError(f"label-map name {key!r} is given more than once")
        try:
            mapping[key] = float(value if sep else "")
        except ValueError:
            raise click.UsageError(f"bad label-map entry {item!r}, expected NAME:NUMBER") from None
    return mapping


def _load_dataset(path, target_column, label_map, no_scale_targets, drop_cols, header):
    # an index is one optional sign and decimal digits (those int() reads);
    # anything else names a column
    column = int(target_column) if re.fullmatch(r"[+-]?\d+", target_column) else target_column
    try:
        return datasets.load_csv(
            path, target_column=column, has_header=header,
            label_map=_parse_label_map(label_map), drop_cols=tuple(drop_cols),
            scale_targets=False if no_scale_targets else "auto")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {path}: {exc}")
    except ValueError as exc:
        _fail(EXIT_IO, str(exc).replace("set has_header", "pass --header or --no-header"))


def _model_scale_targets(model, data):
    """The file's targets on the scale the model was trained on. When the
    model carries a target range, the file's raw targets are mapped
    through it, not through the file's own min and max."""
    record = model.normalization
    if record is None or record.target_min is None:
        return data.targets
    raw = data.targets
    if data.target_range is not None:
        raw = features.NormalizationRecord(None, None, *data.target_range).invert_target(raw)
    return record.apply_target(raw)


def _write_csv(path, header, columns):
    """Write equal-length columns under a header row, each number as %.17g
    (it reads back as the same float). savetxt would gzip a path named *.gz."""
    try:
        with open(path, "w") as fh:
            np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",",
                       header=",".join(header), comments="")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {path}: {exc}")


def _stack(*options):
    """One decorator that applies `options` as if written above the
    command in this order."""
    def apply(command):
        for option in reversed(options):
            command = option(command)
        return command
    return apply


# The dataset options of `train`, `eval` and `crossval`; _load_dataset takes them.
_data_options = _stack(
    click.option("--data", "data_path", required=True,
                 type=click.Path(exists=False), help="CSV dataset path."),
    click.option("--target-column", default="-1", show_default=True,
                 help="Target column index or header name."),
    click.option("--label-map", default=None,
                 help="Categorical target mapping, e.g. 'M:1,B:-1'."),
    click.option("--drop-col", "drop_cols", multiple=True, type=int,
                 help="Column index to drop (repeatable)."),
    click.option("--no-scale-targets", is_flag=True,
                 help="Fail instead of rescaling out-of-range targets."),
    click.option("--header/--no-header", default=None,
                 help="First row is a header (default: when it holds no number)."),
)


class _Commands(click.Group):
    """The command group. A fit that diverges, a factorization that fails
    or a value the library rejects ends any command with exit 1 and its
    message; a command maps the failures that name a file to exit 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (training.TrainingDiverged, linalg.NumericFailure, ValueError) as exc:
            _fail(EXIT_FAILURE, str(exc))


@click.group(cls=_Commands)
def main():
    """Single-qubit network trainer and experiment harness."""


@main.command("gen")
@click.argument("dataset_name")
@click.option("--n", default=1000, show_default=True, type=click.IntRange(min=2),
              help="Sample count (two-moons).")
@click.option("--noise", default=0.07, show_default=True, type=click.FloatRange(min=0),
              help="Noise level (two-moons).")
@click.option("--n-train", default=800, show_default=True, type=click.IntRange(min=1))
@click.option("--n-val", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--n-test", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--noise-sigma", default=0.0, show_default=True, type=click.FloatRange(min=0),
              help="Target noise level (sinc).")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Output CSV path (default <name>.csv).")
def cmd_gen(dataset_name, n, noise, n_train, n_val, n_test, noise_sigma, seed, out_path):
    """Write a synthetic dataset (logic gate, 'sinc' or 'two-moons') as CSV.

    The sinc generator writes three files with -train/-val/-test suffixes.
    """
    name = dataset_name.lower()
    out = Path(out_path) if out_path else Path(f"{name}.csv")
    if name == "sinc":
        parts = datasets.gen_sinc(n_train=n_train, n_val=n_val, n_test=n_test,
                                  noise_sigma=noise_sigma, seed=seed)
        files = [(out.with_name(f"{out.stem}-{part}{out.suffix or '.csv'}"), ["x", "y"], ds)
                 for part, ds in zip(("train", "val", "test"), parts)]
    elif name == "two-moons":
        files = [(out, ["x1", "x2", "y"], datasets.gen_two_moons(n=n, noise=noise, seed=seed))]
    elif name.upper() in datasets.LOGIC_GATES:
        files = [(out, ["x1", "x2", "y"], datasets.gen_logic_gate(name))]
    else:
        raise click.UsageError(
            f"unknown dataset {dataset_name!r}; expected 'sinc', 'two-moons' "
            f"or a gate name {sorted(datasets.LOGIC_GATES)}")
    for path, header, ds in files:
        _write_csv(path, header, [*ds.inputs.T, ds.targets])
        click.echo(f"wrote {path} ({ds.n} rows)")


# --method value -> gd model shape; None is the least-squares trainer
_METHOD_SHAPES = {"lls": None, "gd": "full", "gd-full": "full", "gd-reduced": "reduced"}


# The trainer options `train` and `crossval` share. Each binds to the
# config field of its name; the defaults shown are the config classes' defaults.
_trainer_options = _stack(
    click.option("--method", default="lls", show_default=True,
                 type=click.Choice(list(_METHOD_SHAPES), case_sensitive=False),
                 help="lls, gd (five-angle network), gd-full or gd-reduced."),
    click.option("--K", "K", default=training.LlsConfig.K, show_default=True,
                 type=click.IntRange(min=1), help="Polynomial degree / neuron count."),
    click.option("--lr", "learning_rate", default=training.GdConfig.learning_rate,
                 show_default=True, type=click.FloatRange(min=0, min_open=True)),
    click.option("--max-epochs", default=training.GdConfig.max_epochs, show_default=True,
                 type=click.IntRange(min=1)),
    click.option("--target-loss", default=training.GdConfig.target_loss, show_default=True,
                 type=click.FloatRange(min=0)),
    click.option("--init-scale", default=training.GdConfig.init_scale, show_default=True,
                 type=click.FloatRange(min=0)),
    click.option("--loss", default=training.GdConfig.loss, show_default=True,
                 type=click.Choice(["mse", "hinge"])),
    click.option("--no-normalize", "normalize", flag_value=False, default=True,
                 help="Skip input min-max scaling."),
)


def _trainer_config(method: str, **settings):
    """(trainer, model_shape, config) for a --method value and the
    trainer options given on the command line; the config class supplies
    the rest. An option the method does not take is a usage error."""
    ctx = click.get_current_context()
    given = {name: value for name, value in settings.items()
             if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT}
    try:
        config, shape = training.trainer_config({**given, "shape": _METHOD_SHAPES[method]})
    except ValueError as exc:
        raise click.UsageError(f"--method {method}: {exc}") from None
    return ("lls" if shape is None else "gd"), shape, config


@main.command("train")
@_data_options
@_trainer_options
@click.option("--seed", default=training.GdConfig.seed, show_default=True,
              type=click.IntRange(min=0))
@click.option("--rcond", default=training.LlsConfig.rcond, type=float,
              help="LLS truncation threshold.")
@click.option("--out", "model_path", required=True, type=click.Path(),
              help="Where to write the trained model.")
@click.option("--loss-curve", default=None, type=click.Path(),
              help="Write per-epoch loss values as CSV (gd only).")
def cmd_train(data_path, target_column, label_map, drop_cols, no_scale_targets, header,
              model_path, loss_curve, **settings):
    """Fit a model on a CSV dataset and save it."""
    trainer, shape, config = _trainer_config(**settings)
    if loss_curve and trainer == "lls":
        raise click.UsageError("--loss-curve needs a gd method; lls has no epochs")
    data = _load_dataset(data_path, target_column, label_map, no_scale_targets, drop_cols,
                         header)
    if trainer == "lls":
        model = training.lls_train(data, config)
        step = max(1, linalg._BLOCK_CELLS // (1 + config.K * data.p))  # rows of one fit block
        angle = np.concatenate([model._design_for(data.inputs[i:i + step]) @ model.beta.flat()
                                for i in range(0, data.n, step)])
        rhs = training.arctanh_labels(data.targets, config.epsilon)
        click.echo(f"lls fit: residual (arctanh space) = {np.mean((angle - rhs) ** 2):.6g}, "
                   f"training mse = {training.mse_loss(np.tanh(angle), data.targets):.6g}")
    else:
        model, history = training.gd_train(data, config, model_shape=shape)
        click.echo(f"gd fit ({shape}): final {config.loss} = {history[-1]:.6g} "
                   f"after {len(history)} epoch(s)")
    try:
        model_io.save(model, model_path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write model: {exc}")
    click.echo(f"saved model to {model_path}")
    if loss_curve:
        _write_csv(loss_curve, ["epoch", "loss"], [np.arange(1, len(history) + 1), history])
        click.echo(f"wrote {loss_curve}")


def _echo_metrics(columns, rows, fmt):
    """Print (name, value, ...) rows as CSV under the `columns` header, or
    as a table with aligned names and the values joined by ' +- '."""
    if fmt == "csv":
        click.echo(",".join(columns))
        for name, *values in rows:
            click.echo(",".join([name] + [f"{v:.6f}" for v in values]))
    else:
        width = max(len(name) for name, *_ in rows)
        for name, *values in rows:
            click.echo(f"{name:<{width}}  " + " +- ".join(f"{v:.6f}" for v in values))


@main.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path())
@_data_options
@click.option("--task", default="classification", show_default=True,
              type=click.Choice(["regression", "classification"]))
@click.option("--format", "fmt", default="table", show_default=True,
              type=click.Choice(["table", "csv"]))
@click.option("--boundary", default=None, type=click.Path(),
              help="For 2-feature models: write a prediction grid CSV.")
@click.option("--resolution", default=100, show_default=True, type=click.IntRange(min=2))
def cmd_eval(model_path, data_path, target_column, label_map, drop_cols,
             no_scale_targets, header, task, fmt, boundary, resolution):
    """Evaluate a saved model on a CSV dataset."""
    try:
        model = model_io.load(model_path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read model: {exc}")
    except (model_io.UnsupportedFormat, model_io.ModelFormatError) as exc:
        _fail(EXIT_IO, f"bad model file: {exc}")
    if boundary and model.p != 2:
        raise click.UsageError("--boundary requires a 2-feature model")
    data = _load_dataset(data_path, target_column, label_map, no_scale_targets, drop_cols,
                         header)
    if data.p != model.p:
        _fail(EXIT_FAILURE, f"dimension mismatch: model expects p={model.p} features "
                            f"but dataset has p={data.p}")
    if task == "regression":
        rows = [("mse", training.mse_loss(model.predict(data.inputs),
                                          _model_scale_targets(model, data)))]
    else:
        report = metrics.metric_suite(metrics.confusion(
            model.predict_class(data.inputs), data.targets))
        rows = list(report.as_dict().items())
        for name in sorted(report.undefined):
            click.echo(f"note: {name} had a zero denominator and is reported as 0", err=True)
    _echo_metrics(("metric", "value"), rows, fmt)
    if boundary:
        lo = data.inputs.min(axis=0)
        hi = data.inputs.max(axis=0)
        gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], resolution),
                             np.linspace(lo[1], hi[1], resolution))
        points = np.column_stack([gx.ravel(), gy.ravel()])  # x1 varies fastest
        _write_csv(boundary, ["x1", "x2", "prediction"], [*points.T, model.predict(points)])
        click.echo(f"wrote {boundary}")


@main.command("crossval")
@_data_options
@_trainer_options
@click.option("--task", default="classification", show_default=True,
              type=click.Choice(["regression", "classification"]))
@click.option("--k", "k_folds", default=10, show_default=True, type=click.IntRange(min=2))
@click.option("--seed", default=training.GdConfig.seed, show_default=True,
              type=click.IntRange(min=0),
              help="Seeds both the fold plan and the gd initialization.")
@click.option("--format", "fmt", default="table", show_default=True,
              type=click.Choice(["table", "csv"]))
def cmd_crossval(data_path, target_column, label_map, drop_cols, no_scale_targets, header,
                 task, k_folds, seed, fmt, **settings):
    """k-fold cross-validation; prints mean and std per metric."""
    gd_seed = {"seed": seed} if _METHOD_SHAPES[settings["method"]] else {}
    trainer, shape, config = _trainer_config(**settings, **gd_seed)
    data = _load_dataset(data_path, target_column, label_map, no_scale_targets, drop_cols,
                         header)
    if k_folds > data.n:
        raise click.UsageError(f"--k {k_folds} exceeds the dataset size n={data.n}")
    summary = metrics.crossval(data, trainer=trainer, config=config, model_shape=shape,
                               task=task, k=k_folds, seed=seed)
    _echo_metrics(("metric", "mean", "std"),
                  [(name, s.mean, s.std) for name, s in sorted(summary.items())], fmt)


@main.command("recipes")
def cmd_recipes():
    """List the named experiment recipes."""
    for name in experiments.available_recipes():
        click.echo(name)


@main.command("reproduce")
@click.argument("recipe_name")
@click.option("--data-dir", default=None, type=click.Path(),
              help="Data directory (default $" + experiments.DATA_DIR_ENV + " or ./data).")
@click.option("--pair", nargs=2, type=click.IntRange(0, 9), default=None,
              help="Restrict the MNIST recipe to one digit pair.")
@click.option("--dct-keep", default=None, type=click.IntRange(1, 28),
              help="Keep only the top-left BxB DCT block (MNIST recipe).")
def cmd_reproduce(recipe_name, data_dir, pair, dct_keep):
    """Run a named experiment recipe and check its expected bounds."""
    if pair and pair[0] == pair[1]:
        raise click.UsageError("--pair needs two distinct digits")
    try:
        experiments.check_overrides(experiments.load_recipe(recipe_name), pair or None, dct_keep)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    # what fails once the recipe runs is its data: absent or malformed
    try:
        result = experiments.run_recipe(recipe_name, data_dir=data_dir,
                                        pair=pair or None, dct_keep=dct_keep,
                                        log=click.echo)
    except (experiments.MissingData, ValueError) as exc:
        _fail(EXIT_IO, str(exc))
    for line in result.report_lines():
        click.echo(line)
    if not result.assertions:
        _fail(EXIT_FAILURE, f"recipe {recipe_name} checked no bound")
    if not result.passed:
        _fail(EXIT_FAILURE, f"recipe {recipe_name} failed "
              f"{sum(not a.passed for a in result.assertions)} assertion(s)")
    click.echo(f"recipe {recipe_name}: all {len(result.assertions)} assertion(s) passed")


@main.command("fetch")
@click.argument("dataset", type=click.Choice([*experiments.DATASET_SOURCES, "all"]))
@click.option("--data-dir", default=None, type=click.Path())
def cmd_fetch(dataset, data_dir):
    """Download the real datasets."""
    directory = experiments.resolve_data_dir(data_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot create {directory}: {exc}")
    names = list(experiments.DATASET_SOURCES) if dataset == "all" else [dataset]
    failures = 0
    for name in names:
        failures += 0 if _fetch_one(name, directory) else 1
    if failures:
        _fail(EXIT_IO, f"{failures} dataset(s) could not be fetched")


def _fetch_one(name: str, directory: Path) -> bool:
    source = experiments.DATASET_SOURCES[name]
    targets = [directory / f for f in source["files"]]
    if all(t.exists() for t in targets):
        click.echo(f"{name}: already present in {directory}")
        return True
    ok = True
    for url in source["urls"]:
        ok = _download(url, directory) and ok
    missing = [t.name for t in targets if not t.exists()]
    if missing:
        click.echo(f"{name}: still missing {', '.join(missing)}; {source['note']}", err=True)
        return False
    return ok


def _download(url: str, directory: Path) -> bool:
    import urllib.request
    from urllib.parse import unquote, urlparse

    filename = unquote(Path(urlparse(url).path).name)
    dest = directory / filename
    try:
        click.echo(f"downloading {url}")
        urllib.request.urlretrieve(url, dest)
    except OSError as exc:
        click.echo(f"download failed: {exc}", err=True)
        return False
    if dest.suffix == ".zip":
        import zipfile
        try:
            with zipfile.ZipFile(dest) as zf:
                zf.extractall(directory)
        except (zipfile.BadZipFile, OSError) as exc:
            click.echo(f"error: cannot extract {dest}: {exc}", err=True)
            return False
        click.echo(f"extracted {dest.name}")
    return True


if __name__ == "__main__":
    main()
