"""Metamorphic properties of the one-step least-squares fit.

Each test fits a dataset, then fits it again after a transform of its
inputs whose effect on the answer is known: permuting the feature
columns, a per-feature affine map a·x + b (a < 0 allowed), permuting the
rows, or repeating every row twice. The min-max scaling and the power
design absorb the first two, and the last two leave the least-squares
problem's normal equations unchanged, so at every original input the
second fit's angle `design @ beta` must equal the first's up to
rounding, and no class may change. No oracle fit is needed.

Rounding bound: max |angle' - angle| <= sqrt(m) · eps · cond(design) ·
max |angle|, with m the design's rows and cond its 2-norm condition
number, computed here with np.linalg on a design built by tests/oracle.py.
eps · cond is the sensitivity of the fitted values to a relative
perturbation of the design; sqrt(m) is the probabilistic growth of
rounding errors in m-term sums (Higham & Mary, SIAM J. Sci. Comput. 41,
2019). Over 15 draws per case, the worst change stayed 17 times below
the bound (two-moons, K = 1) and at least 795 times below it on WDBC.

Gradient descent: 20 epochs of the reduced shape under a row permutation,
on the same cases. Only the order of the sums over rows changes. Each
epoch's gradient (2/m) · Σ_i res_i · sin(angle_i) · design_i, with
|res_i| <= 1 + max |y| and |sin| <= 1, then moves by at most
sqrt(m) · eps · 2 (1 + max |y|) · mean_i |design_ij| in coefficient j, and
20 steps of the learning rate lr move coefficient j by at most 20 · lr
times that; the angle at row i moves by at most Σ_j |design_ij| times the
coefficient's bound. The rule adds the epochs' rounding and does not let
it grow from epoch to epoch. Over 15 permutations per case the worst
change stayed 70 times below it (two-moons, K = 3) and at least 368
times below it on WDBC.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqnn.datasets import Dataset, gen_two_moons, load_csv
from sqnn.training import GdConfig, LlsConfig, gd_train, lls_train

from conftest import require_dataset
from oracle import hstack_design, min_max_scale

EPS = np.finfo(float).eps
CASES = [("two-moons", 1), ("two-moons", 3), ("two-moons", 6),
         ("wdbc", 1), ("wdbc", 4), ("wdbc", 8)]


def angle(model, inputs):
    """The fitted angle at each input, by the oracle's design builder."""
    return oracle_design(model, inputs) @ model.beta.flat()


def columns(x, y, rng):
    perm = rng.permutation(x.shape[1])
    return x[:, perm], y, x[:, perm]


def affine(x, y, rng):
    p = x.shape[1]
    a = rng.choice([-1.0, 1.0], p) * rng.uniform(0.5, 2.0, p)
    b = rng.uniform(-1.0, 1.0, p) * np.ptp(x, axis=0)
    return a * x + b, y, a * x + b


def rows(x, y, rng):
    perm = rng.permutation(x.shape[0])
    return x[perm], y[perm], x


def twice(x, y, rng):
    return np.repeat(x, 2, axis=0), np.repeat(y, 2), x


def load(name, data_dir):
    if name == "wdbc":
        require_dataset("wdbc", data_dir)
        return load_csv(data_dir / "wdbc.data", target_column=1, has_header=False,
                        drop_cols=(0,), label_map={"M": 1, "B": -1}, scale_targets=False)
    return gen_two_moons(1000, noise=0.07, seed=0)


def oracle_design(model, inputs):
    record = model.normalization
    return hstack_design(min_max_scale(inputs, record.feature_min, record.feature_max), model.K)


@pytest.fixture(scope="module")
def fitted(data_dir):
    """fitted(dataset, K) -> (data, model, its angle at data.inputs, tolerance),
    made once per case."""
    @functools.cache
    def fit(name, K):
        data = load(name, data_dir)
        model = lls_train(data, LlsConfig(K=K))
        design = oracle_design(model, data.inputs)
        fitted_angle = angle(model, data.inputs)
        tolerance = np.sqrt(data.n) * EPS * np.linalg.cond(design) * np.max(np.abs(fitted_angle))
        return data, model, fitted_angle, tolerance

    return fit


@pytest.mark.parametrize("transform", [columns, affine, rows, twice],
                         ids=lambda t: t.__name__)
@pytest.mark.parametrize("name, K", CASES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_fit_does_not_move_under_the_transform(fitted, name, K, transform, seed):
    data, model, fitted_angle, tolerance = fitted(name, K)
    inputs, targets, seen_as = transform(data.inputs, data.targets,
                                         np.random.default_rng(seed))
    again = lls_train(Dataset(inputs, targets), LlsConfig(K=K))
    moved = np.max(np.abs(angle(again, seen_as) - fitted_angle))
    assert moved <= tolerance, (moved, tolerance)
    assert np.array_equal(again.predict_class(seen_as), model.predict_class(data.inputs))


GD_EPOCHS = 20


@pytest.fixture(scope="module")
def gd_fitted(data_dir):
    """gd_fitted(dataset, K) -> (data, model, its angle at data.inputs, tolerance)
    of a 20-epoch reduced-shape GD fit, made once per case."""
    @functools.cache
    def fit(name, K):
        data = load(name, data_dir)
        config = GdConfig(K=K, max_epochs=GD_EPOCHS)
        model, _ = gd_train(data, config)
        design = oracle_design(model, data.inputs)
        per_coef = (config.max_epochs * config.learning_rate * np.sqrt(data.n) * EPS * 2
                    * (1 + np.max(np.abs(data.targets))) * np.mean(np.abs(design), axis=0))
        return data, model, angle(model, data.inputs), np.max(np.abs(design) @ per_coef)

    return fit


@pytest.mark.parametrize("name, K", CASES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gd_does_not_move_under_a_row_permutation(gd_fitted, name, K, seed):
    data, model, fitted_angle, tolerance = gd_fitted(name, K)
    inputs, targets, seen_as = rows(data.inputs, data.targets, np.random.default_rng(seed))
    again, _ = gd_train(Dataset(inputs, targets), GdConfig(K=K, max_epochs=GD_EPOCHS))
    moved = np.max(np.abs(angle(again, seen_as) - fitted_angle))
    assert moved <= tolerance, (moved, tolerance)
    assert np.array_equal(again.predict_class(seen_as), model.predict_class(data.inputs))
