"""Acceptance suite.

Each test pins one acceptance criterion of the build: either an
algebraic identity checked at a fixed tolerance, or an end-to-end
experiment checked against its expected result bounds and runtime
budget. Criteria needing real datasets (CCPP, communities, breast
cancer, MNIST) skip with fetch instructions when the files are absent;
everything else runs from a clean checkout. A summary line per
criterion is printed at the end of the session.
"""

import time

import numpy as np
import pytest

from sqnn.circuit import expectation_batch, gradient_batch
from sqnn.datasets import gen_sinc
from sqnn.linalg import lls_solve
from sqnn.training import GdConfig, gd_train, mse_loss

from conftest import require_dataset
from oracle import (AngleSet, Observable, QubitState, central_differences,
                    effective_neuron, expectation_matrix, neuron_matrix, pinv,
                    rotation_gate)

ANGLE_FIELDS = ("alpha", "beta", "gamma", "theta", "omega")


def assert_recipe_passed(result):
    failed = [a for a in result.assertions if not a.passed]
    assert not failed, "failed assertions:\n" + "\n".join(
        f"  {a.label}: {a.detail}" for a in failed)


def test_c01_closed_form_equals_matrix_path():
    rng = np.random.default_rng(101)
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=(10_000, 5))
    start = time.monotonic()
    worst = 0.0
    for row in angles:
        worst = max(worst, abs(expectation_matrix(AngleSet(*row)) - expectation_batch(*row)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"max |matrix - closed| = {worst:.3e}"
    assert elapsed < 5.0, f"10k comparisons took {elapsed:.2f}s (budget 5s)"


def test_c02_gradient_matches_finite_differences():
    rng = np.random.default_rng(102)
    for row in rng.uniform(-2 * np.pi, 2 * np.pi, size=(1000, 5)):
        _, grad = gradient_batch(*row)
        fd = central_differences(lambda a: expectation_batch(*a), row, step=1e-6)
        for i, name in enumerate(ANGLE_FIELDS):
            assert abs(grad[i] - fd[i]) <= 1e-6, \
                f"d/d{name}: analytic {grad[i]:.9f} vs fd {fd[i]:.9f}"


def test_c03_effective_neuron_collapse():
    rng = np.random.default_rng(103)
    for _ in range(200):
        triples = [tuple(rng.uniform(-2 * np.pi, 2 * np.pi, 3)) for _ in range(5)]
        theta, omega = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
        state = QubitState(theta=theta)
        obs = Observable(omega=omega)
        psi = state.amplitudes()
        for alpha, beta, gamma in triples:  # apply neurons one by one
            psi = neuron_matrix(alpha, beta, gamma) @ psi
        amp_seq = obs.basis_change() @ psi
        y_seq = obs.lambda0 * abs(amp_seq[0]) ** 2 + obs.lambda1 * abs(amp_seq[1]) ** 2
        amp_one = obs.basis_change() @ effective_neuron(triples) @ state.amplitudes()
        y_one = obs.lambda0 * abs(amp_one[0]) ** 2 + obs.lambda1 * abs(amp_one[1]) ** 2
        assert abs(y_seq - y_one) <= 1e-12
    # chain of y-rotations is a single rotation by the summed angle
    for _ in range(200):
        betas = rng.uniform(-2 * np.pi, 2 * np.pi, 5)
        chain = effective_neuron([(0.0, b, 0.0) for b in betas])
        np.testing.assert_allclose(chain, rotation_gate("y", betas.sum()),
                                   atol=1e-12)


def test_c04_penrose_and_least_squares_optimality():
    rng = np.random.default_rng(104)
    for _ in range(200):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(1, 31))
        a = rng.normal(size=(n, m))
        if m > 1 and rng.uniform() < 0.25:
            a[:, -1] = a[:, 0] * rng.normal()  # rank-deficient case
        ap = pinv(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.max(np.abs(a @ ap @ a - a)) <= 1e-8 * scale
        assert np.max(np.abs(ap @ a @ ap - ap)) <= 1e-8 * scale
        np.testing.assert_allclose(a @ ap, (a @ ap).T, atol=1e-8 * scale)
        np.testing.assert_allclose(ap @ a, (ap @ a).T, atol=1e-8 * scale)
        y = rng.normal(size=n)
        s = lls_solve(a, y)
        assert np.max(np.abs(a.T @ (a @ s - y))) <= 1e-6 * (1 + np.max(np.abs(a.T @ y)))
        np.testing.assert_allclose(s, ap @ y, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(s))))


def test_c05_logic_gates_recipe(recipe_run):
    result = recipe_run("table1")
    assert_recipe_passed(result)
    assert result.elapsed < 10.0, f"gates took {result.elapsed:.1f}s (budget 10s)"


@pytest.mark.xfail(
    strict=True,
    reason="the reduced single-power model on a one-dimensional input is the "
           "ridge family cos(c0 + c1*x); exhaustive search over (c0, c1) puts "
           "its best possible MSE on this curve near 0.126, so the 5e-3 bound "
           "is unreachable for this model class regardless of training")
def test_c06_sinc_reduced_single_power_as_stated():
    train, _val, test = gen_sinc(seed=12345)
    config = GdConfig(learning_rate=0.2, max_epochs=20000, seed=0,
                      init_scale=0.1, K=1)
    model, history = gd_train(train, config, model_shape="reduced")
    test_mse = mse_loss(model.predict(test.inputs), test.targets)
    assert test_mse <= 5e-3, f"test MSE {test_mse:.4f} (family optimum ~0.126)"


def test_c06_sinc_five_angle_neuron(recipe_run):
    result = recipe_run("fig5-sinc")
    assert_recipe_passed(result)
    assert result.values["clean.test_mse"] <= 5e-3
    assert result.values["noisy.test_mse"] <= 1e-2
    assert result.elapsed < 120.0, f"sinc took {result.elapsed:.1f}s (budget 2min)"


def test_c07_ccpp_crossval(data_dir, recipe_run):
    require_dataset("ccpp", data_dir)
    start = time.monotonic()
    result = recipe_run("table2-ccpp")
    assert_recipe_passed(result)
    assert 0.004 <= result.values["K1.test_mse.mean"] <= 0.009
    assert 0.002 <= result.values["K6.test_mse.mean"] <= 0.006
    assert time.monotonic() - start < 600.0


def test_c08_communities_crossval(data_dir, recipe_run):
    require_dataset("communities", data_dir)
    start = time.monotonic()
    result = recipe_run("table3-crime")
    assert_recipe_passed(result)
    assert 0.03 <= result.values["K1.test_mse.mean"] <= 0.06
    assert result.values["K6.test_mse.mean"] > result.values["K1.test_mse.mean"]
    assert time.monotonic() - start < 600.0


def test_c09_two_moons_recipe(recipe_run):
    result = recipe_run("table4-moons")
    assert_recipe_passed(result)
    assert result.values["K4.accuracy"] >= 0.99
    assert 0.80 <= result.values["K1.accuracy"] <= 0.95
    assert result.elapsed < 5.0, f"moons took {result.elapsed:.1f}s (budget 5s)"


def test_c10_wbcd_crossval(data_dir, recipe_run):
    require_dataset("wdbc", data_dir)
    result = recipe_run("table5-wbcd")
    assert_recipe_passed(result)
    assert 0.92 <= result.values["K2.accuracy.mean"] <= 0.99
    assert result.values["K2.accuracy.std"] <= 0.06
    assert result.elapsed < 30.0, f"wbcd took {result.elapsed:.1f}s (budget 30s)"


def test_c11_mnist_pairs(data_dir, recipe_run):
    require_dataset("mnist", data_dir)
    result = recipe_run("table6-mnist")
    assert_recipe_passed(result)
    bounds = {"0v1": 0.995, "2v3": 0.97, "3v5": 0.955, "7v9": 0.96}
    for pair, minimum in bounds.items():
        assert result.values[f"{pair}.accuracy"] >= minimum
        assert result.values[f"{pair}.seconds"] <= 60.0
