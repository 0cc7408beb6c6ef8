"""Tests of the benchmark itself.

Each correctness check must reject a deliberately corrupted result, and
the traced run must refuse a wrapped name that no longer resolves. Run
from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import checks
import inputs
import run
import tracing
import worker

sqnn = worker.load_sqnn()


def _round(workload: str, workdir=None, seed: int = 3):
    """Run one untraced round in-process; returns (ctx, output)."""
    recipe_name, run_work, _ = worker.WORKLOADS[workload]
    if workdir is not None:
        inputs.WRITERS[workload](seed, workdir)
    recorder = tracing.Recorder(trace=False)
    recorder.install()
    try:
        ctx = {"workdir": workdir, "recorder": recorder,
               "recipe": sqnn.experiments.load_recipe(recipe_name),
               "lstsq": checks.LstsqReference()}
        return ctx, run_work(sqnn, ctx)
    finally:
        recorder.uninstall()


def _check(workload: str, ctx, out):
    return worker.WORKLOADS[workload][2](sqnn, ctx, out)


@pytest.fixture(scope="module")
def wdbc():
    return _round("wdbc-lls-cv")


@pytest.fixture(scope="module")
def ccpp(tmp_path_factory):
    return _round("ccpp-gd-reduced-cv", tmp_path_factory.mktemp("ccpp"))


@pytest.fixture(scope="module")
def mnist(tmp_path_factory):
    return _round("mnist-pair-lls", tmp_path_factory.mktemp("mnist"))


@pytest.mark.parametrize("name", ["wdbc", "ccpp", "mnist"])
def test_checks_pass_on_real_results(name, request):
    workload = {"wdbc": "wdbc-lls-cv", "ccpp": "ccpp-gd-reduced-cv",
                "mnist": "mnist-pair-lls"}[name]
    ops, failures, rows = _check(workload, *request.getfixturevalue(name))
    assert failures == []
    assert ops and all(errors == [] for errors in ops)
    assert rows > 0


def test_perturbed_lls_coefficient_fails(wdbc):
    ctx, result = copy.deepcopy(wdbc)
    _, _, model = ctx["recorder"].captured["training.lls_train"][13]
    model.beta.c[0, 0] += 1e-2
    ops, failures, _ = _check("wdbc-lls-cv", ctx, result)
    assert [i for i, errors in enumerate(ops) if errors] == [13]
    assert any("LLS residual" in e for e in ops[13])


def test_perturbed_gd_coefficient_fails(ccpp):
    ctx, out = copy.deepcopy(ccpp)
    _, _, (model, _) = ctx["recorder"].captured["training.gd_train"][42]
    # the model no longer is the one whose held-out MSE crossval reported
    model.beta.c[0, 0] *= 1 + 1e-6
    ops, failures, _ = _check("ccpp-gd-reduced-cv", ctx, out)
    assert failures == []
    assert [i for i, errors in enumerate(ops) if errors] == [42]
    assert any("test_mse" in e for e in ops[42])


def test_full_shape_matrix_product_matches_and_rejects_perturbation():
    train, _, _ = sqnn.datasets.gen_sinc(n_train=100, n_val=1, n_test=1, seed=5)
    config = sqnn.training.GdConfig(learning_rate=0.2, init_scale=1.5, max_epochs=50)
    model, _ = sqnn.training.gd_train(train, config, model_shape="full")
    params = worker._gd_params(model)
    own = checks.gd_predictions(model.kind, 1, params, train.inputs, train.inputs)
    assert checks.close("full", model.predict(train.inputs), own, checks.PREDICTION_RTOL) == []
    params["theta"] += 1e-9
    own = checks.gd_predictions(model.kind, 1, params, train.inputs, train.inputs)
    assert checks.close("full", model.predict(train.inputs), own, checks.PREDICTION_RTOL)


def test_normal_equations_fail_the_residual_check(wdbc):
    # a solver that squares the condition number misses lstsq's residual
    # on the K=10 designs (condition numbers near 1e9)
    x, y = checks.read_csv_table(worker.ROOT / "data" / "wdbc.data", header=False,
                                 target=1, drop=(0,), label_map={"M": 1, "B": -1})
    ctx, _ = wdbc
    plan = ctx["recorder"].captured["datasets.kfold_plan"][-1][2]
    train, _ = worker._folds(plan, 0, y.size)
    design = checks.power_design(checks.scale_features(x[train], x[train]), 10)
    rhs = checks.arctanh_labels(y[train], 1e-16)
    normal = np.linalg.solve(design.T @ design, design.T @ rhs)
    reference = checks.LstsqReference()
    assert checks.lls_residual(design, y[train], 1e-16, normal, reference)
    good = sqnn.linalg.lls_solve(design, rhs)
    assert checks.lls_residual(design, y[train], 1e-16, good, reference) == []


def test_flipped_label_fails(mnist):
    ctx, out = copy.deepcopy(mnist)
    (_, _, train), _ = ctx["recorder"].captured["datasets.filter_pair"]
    train.targets[7] *= -1
    _, failures, _ = _check("mnist-pair-lls", ctx, out)
    assert any("train labels" in f for f in failures)


def test_miscounted_accuracy_fails(wdbc):
    ctx, result = copy.deepcopy(wdbc)
    # one more wrong prediction in one of the ten folds of K=2
    result.values["K2.accuracy.mean"] -= 1 / 57 / 10
    _, failures, _ = _check("wdbc-lls-cv", ctx, result)
    assert any("K2.accuracy.mean" in f for f in failures)


def test_reloaded_model_must_predict_bit_for_bit(mnist):
    ctx, out = copy.deepcopy(mnist)
    result, model, reloaded, test, predictions = out
    predictions = predictions.copy()
    predictions[0] = np.nextafter(predictions[0], 2.0)
    ops, _, _ = _check("mnist-pair-lls", ctx, (result, model, reloaded, test, predictions))
    assert any("bit for bit" in e for e in ops[0])


def test_recipe_that_checked_zero_bounds_fails(wdbc):
    # `pair` filters the moons recipe's bounds by a "1v2." prefix none has
    moons = sqnn.experiments.run_recipe("table4-moons", pair=(1, 2))
    assert moons.passed and checks.recipe_bounds(moons) == [
        "recipe table4-moons checked 0 bounds"]
    ctx, result = copy.deepcopy(wdbc)
    result.assertions.clear()
    _, failures, _ = _check("wdbc-lls-cv", ctx, result)
    assert "recipe table5-wbcd checked 0 bounds" in failures


def test_fold_plan_that_misses_a_row_fails():
    folds = [np.array([0, 2]), np.array([1, 3])]
    assert checks.partition(folds, 4) == []
    assert checks.partition([folds[0], np.array([1, 2])], 4)


def test_unresolved_name_stops_the_traced_run(monkeypatch):
    monkeypatch.delattr(sqnn.linalg, "svd")
    with pytest.raises(tracing.UnresolvedName, match="sqnn.linalg.svd"):
        tracing.Recorder(trace=True).install()


def test_tracing_reaches_every_alias():
    data = sqnn.datasets.gen_two_moons(n=200, seed=1)
    recorder = tracing.Recorder(trace=True)
    recorder.install()
    try:
        sqnn.metrics.crossval(data, trainer="lls", config=sqnn.training.LlsConfig(K=2))
    finally:
        recorder.uninstall()
    layers = recorder.layer_metrics()
    # crossval reaches lls_train, split and kfold_plan through metrics'
    # own names, and svd through linalg's
    for name in ("training.lls_train", "datasets.split", "linalg.svd", "linalg.lls_solve"):
        assert layers[f"{name}.calls"] == 10
    assert layers["datasets.kfold_plan.calls"] == 1
    assert layers["circuit.gradient_batch.calls"] == 0
    assert layers["linalg.svd.cells"] == sum(
        (200 - f.size) * 5 for f in recorder.captured["datasets.kfold_plan"][0][2].folds)
    assert layers["metrics.crossval.self_s"] < layers["metrics.crossval.s"]


def test_benchmark_json_matches_what_runs_report():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS[1:])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    reported = set(tracing.Recorder(trace=True).layer_metrics()) | {"trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in reported}
