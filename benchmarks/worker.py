"""One round of one workload, in a fresh process.

The worker writes the workload's inputs (through inputs.py, as its own
process), imports sqnn from the checkout's src/, installs the capture
(and, when tracing, the span) wrappers, times the workload's fixed work
once, checks every output against computations made outside sqnn, and
prints one JSON object as its last line. run.py starts one worker per
round and aggregates them.

    python3 benchmarks/worker.py --workload wdbc-lls-cv --seed 1 \\
        --t0 "$(python3 -c 'import time; print(time.monotonic())')" \\
        --trace 0 --workdir .bench_out/work/manual
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402  (the benchmark's own modules)
import inputs  # noqa: E402
import tracing  # noqa: E402

# Epochs per fit on the CCPP stand-in, cut down from table2-ccpp's 3000
# so that its 60 fits (10 folds x K = 1..6) take seconds, not minutes.
CCPP_EPOCHS = 100


def load_sqnn():
    """Import sqnn from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "sqnn" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sqnn package under {src}")
    sys.path.insert(0, str(src))
    import sqnn
    import sqnn.experiments  # noqa: F401  (loads every module the recipes use)
    import sqnn.model_io  # noqa: F401
    if Path(sqnn.__file__).resolve().parent != (src / "sqnn").resolve():
        raise SystemExit(f"benchmark: imported sqnn from {sqnn.__file__}, not {src}")
    return sqnn


# --- the fixed work of each workload ---------------------------------------
# Each `run_*` is timed as a whole; it returns what its `check_*` needs
# beyond the captured calls.

def run_sinc(sqnn, ctx):
    return sqnn.experiments.run_recipe("fig5-sinc")


def run_ccpp(sqnn, ctx):
    recipe = ctx["recipe"]
    trainer = recipe["trainer"]
    settings = {k: v for k, v in trainer.items() if k not in ("shape", "max_epochs")}
    data = sqnn.datasets.load_csv(ctx["workdir"] / inputs.CCPP_FILE, **recipe["loader"])
    summaries = {}
    for K in recipe["K_values"]:
        config = sqnn.training.GdConfig(K=K, max_epochs=CCPP_EPOCHS, **settings)
        summaries[K] = sqnn.metrics.crossval(
            data, trainer="gd", config=config, model_shape=trainer["shape"],
            task="regression", k=recipe["k"], seed=recipe["cv_seed"])
    return data, summaries


def run_wdbc(sqnn, ctx):
    return sqnn.experiments.run_recipe("table5-wbcd", data_dir=ROOT / "data")


def run_mnist(sqnn, ctx):
    result = sqnn.experiments.run_recipe("table6-mnist", data_dir=ctx["workdir"],
                                         pair=inputs.MNIST_PAIR)
    (_, _, model), = ctx["recorder"].captured["training.lls_train"]
    _, (_, _, test) = ctx["recorder"].captured["datasets.filter_pair"]
    path = ctx["workdir"] / "model.json"
    sqnn.model_io.save(model, path)
    reloaded = sqnn.model_io.load(path)
    return result, model, reloaded, test, reloaded.predict(test.inputs)


# --- checks ----------------------------------------------------------------
# Each `check_*` returns (per-operation failure lists, round-level
# failures, training rows consumed). One operation is one fit plus its
# checks; round-level failures concern the recipe or the inputs as a whole.

def _gd_params(model) -> dict:
    params = {"beta": model.beta.flat(), "theta": model.theta, "omega": model.omega}
    if model.kind == "gd-full":
        params.update(alpha=model.alpha.flat(), gamma=model.gamma.flat())
    return params


def _folds(plan, fold: int, n: int):
    test = plan.folds[fold]
    return np.setdiff1d(np.arange(n), test), test


def check_sinc(sqnn, ctx, result):
    recipe = ctx["recipe"]
    fits = ctx["recorder"].captured["training.gd_train"]
    gen = recipe["dataset"]
    variants = recipe["variants"]
    ops, rows, mine = [], 0, {}
    failures = checks.recipe_bounds(result)
    failures += checks.equal("gd fits", len(fits), len(variants))
    for variant, (_, _, (model, history)) in zip(variants, fits):
        name = variant["name"]
        train, _, test = sqnn.datasets.gen_sinc(
            n_train=gen["n_train"], n_val=gen["n_val"], n_test=gen["n_test"],
            noise_sigma=variant["noise_sigma"], seed=gen["seed"])
        errors = []
        params = _gd_params(model)
        for part, data in (("train", train), ("test", test)):
            own = checks.gd_predictions(model.kind, model.K, params, train.inputs, data.inputs)
            errors += checks.close(f"{name} {part} predictions", model.predict(data.inputs),
                                   own, checks.PREDICTION_RTOL)
            mine[f"{name}.{part}_mse"] = checks.mse(own, data.targets)
            errors += checks.close(f"{name}.{part}_mse", result.values[f"{name}.{part}_mse"],
                                   mine[f"{name}.{part}_mse"], checks.MSE_RTOL)
        rows += train.n * len(history)
        ops.append(errors)
    for spec in recipe["assertions"]:
        if not mine.get(spec["value"], float("inf")) <= spec["max"]:
            failures.append(f"own {spec['value']} = {mine.get(spec['value'])} "
                            f"above {spec['max']}")
    return ops, failures, rows


def check_ccpp(sqnn, ctx, out):
    data, summaries = out
    recipe = ctx["recipe"]
    x, pe = checks.read_csv_table(ctx["workdir"] / inputs.CCPP_FILE, header=True, target=-1)
    y = 2.0 * (pe - pe.min()) / (pe.max() - pe.min()) - 1.0
    failures = checks.close("loaded inputs", data.inputs, x, 0.0)
    failures += checks.close("loaded targets", data.targets, y, 1e-15)
    plans = [plan for _, _, plan in ctx["recorder"].captured["datasets.kfold_plan"]]
    fits = ctx["recorder"].captured["training.gd_train"]
    k_values = recipe["K_values"]
    failures += checks.equal("fold plans", len(plans), len(k_values))
    failures += checks.equal("gd fits", len(fits), len(k_values) * recipe["k"])
    for plan in plans:
        failures += checks.partition(plan.folds, y.size)
    ops, rows = [], 0
    for i, (_, _, (model, history)) in enumerate(fits):
        K, fold = k_values[i // recipe["k"]], i % recipe["k"]
        train, test = _folds(plans[i // recipe["k"]], fold, y.size)
        own = checks.gd_predictions(model.kind, K, _gd_params(model), x[train], x[test])
        errors = checks.close(f"K={K} fold {fold} predictions", model.predict(x[test]),
                              own, checks.PREDICTION_RTOL)
        test_mse = checks.mse(own, y[test])
        errors += checks.close(f"K={K} fold {fold} test_mse",
                               summaries[K]["test_mse"].values[fold], test_mse, checks.MSE_RTOL)
        baseline = checks.mse(np.full(test.size, y[train].mean()), y[test])
        if not test_mse < baseline:
            errors.append(f"K={K} fold {fold}: test MSE {test_mse:.4g} does not beat "
                          f"the training mean's {baseline:.4g}")
        rows += train.size * len(history)
        ops.append(errors)
    return ops, failures, rows


def check_wdbc(sqnn, ctx, result):
    recipe = ctx["recipe"]
    loader = recipe["loader"]
    x, y = checks.read_csv_table(ROOT / "data" / "wdbc.data", header=False,
                                 target=loader["target_column"], drop=loader["drop_cols"],
                                 label_map=loader["label_map"])
    plans = [plan for _, _, plan in ctx["recorder"].captured["datasets.kfold_plan"]]
    fits = ctx["recorder"].captured["training.lls_train"]
    k, k_values = recipe["k"], recipe["K_values"]
    failures = checks.recipe_bounds(result)
    failures += checks.equal("fold plans", len(plans), len(k_values))
    failures += checks.equal("lls fits", len(fits), len(k_values) * k)
    for plan in plans:
        failures += checks.partition(plan.folds, y.size)
    ops, rows, accuracy = [], 0, {K: [] for K in k_values}
    for i, ((config,), _, model) in enumerate(fits):
        K, fold = k_values[i // k], i % k
        train, test = _folds(plans[i // k], fold, y.size)
        coef = model.beta.flat()
        design = checks.power_design(checks.scale_features(x[train], x[train]), K)
        errors = checks.lls_residual(design, y[train], config.epsilon, coef, ctx["lstsq"])
        test_design = checks.power_design(checks.scale_features(x[train], x[test]), K)
        errors += checks.close_tanh(f"K={K} fold {fold} predictions",
                                    model.predict(x[test]), test_design, coef)
        accuracy[K].append(checks.accuracy_count(model.predict_class(x[test]), y[test]))
        rows += train.size
        ops.append(errors)
    for K, values in accuracy.items():
        for stat, own in (("mean", np.mean(values)), ("std", np.std(values, ddof=1))):
            failures += checks.close(f"K{K}.accuracy.{stat}",
                                     result.values[f"K{K}.accuracy.{stat}"], own, 1e-12)
    return ops, failures, rows


def check_mnist(sqnn, ctx, out):
    result, model, reloaded, test, predictions = out
    workdir = ctx["workdir"]
    a, b = inputs.MNIST_PAIR
    failures = checks.recipe_bounds(result)
    (_, _, train), _ = ctx["recorder"].captured["datasets.filter_pair"]
    ((config,), _, _), = ctx["recorder"].captured["training.lls_train"]
    own = {}
    for part, files, data in (("train", inputs.MNIST_FILES[:2], train),
                              ("test", inputs.MNIST_FILES[2:], test)):
        images, labels = checks.read_idx(workdir / files[0], workdir / files[1])
        own[part] = checks.dct_rows(images)
        failures += checks.close(f"{part} DCT features", data.inputs, own[part], 1e-12)
        failures += checks.close(f"{part} labels", data.targets,
                                 np.where(labels == min(a, b), 1.0, -1.0), 0.0)
    coef = reloaded.beta.flat()
    design = checks.power_design(checks.scale_features(own["train"], own["train"]), 1)
    errors = checks.lls_residual(design, train.targets, config.epsilon, model.beta.flat(),
                                 ctx["lstsq"])
    test_design = checks.power_design(checks.scale_features(own["train"], own["test"]), 1)
    errors += checks.close_tanh("reloaded predictions", predictions, test_design, coef)
    if not np.array_equal(predictions, model.predict(test.inputs)):
        errors.append("reloaded model does not predict bit for bit what the fitted one does")
    classes = np.where(predictions >= 0, 1.0, -1.0)
    errors += checks.equal(f"{a}v{b}.accuracy", result.values[f"{a}v{b}.accuracy"],
                           checks.accuracy_count(classes, test.targets))
    return [errors], failures, train.n


WORKLOADS = {
    "sinc-gd-full": ("fig5-sinc", run_sinc, check_sinc),
    "ccpp-gd-reduced-cv": ("table2-ccpp", run_ccpp, check_ccpp),
    "wdbc-lls-cv": ("table5-wbcd", run_wdbc, check_wdbc),
    "mnist-pair-lls": ("table6-mnist", run_mnist, check_mnist),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced round writes its spans")
    parser.add_argument("--lstsq-cache", type=Path,
                        help="file that keeps lstsq references between the rounds of a run")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed call and report set-up time only")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.workload in inputs.WRITERS:
        subprocess.run([sys.executable, str(HERE / "inputs.py"), args.workload,
                        str(args.seed), str(args.workdir)], check=True)
    sqnn = load_sqnn()
    recorder = tracing.Recorder(trace=bool(args.trace))
    recorder.install()
    recipe_name, run, check = WORKLOADS[args.workload]
    ctx = {"workdir": args.workdir, "recorder": recorder,
           "recipe": sqnn.experiments.load_recipe(recipe_name),
           "lstsq": checks.LstsqReference(args.lstsq_cache)}
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu0, wall0 = time.process_time(), time.perf_counter()
    out = run(sqnn, ctx)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the checks call sqnn too: take the layer figures before they run
    layers = recorder.layer_metrics() if args.trace else None
    if args.trace and args.spans is not None:
        recorder.save_spans(args.spans)

    ops, failures, rows = check(sqnn, ctx, out)
    ctx["lstsq"].save()
    report = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "rows": rows,
        "peak_rss_mb": peak_rss_mb, "attempted": len(ops),
        "failed": sum(1 for errors in ops if errors),
        "failures": failures + [e for errors in ops for e in errors],
    }
    if layers is not None:
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
