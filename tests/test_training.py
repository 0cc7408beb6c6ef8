"""Losses, gradient-descent and least-squares trainers, prediction paths."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqnn import linalg, training
from sqnn.circuit import _cos_and_sin, expectation_batch
from sqnn.datasets import Dataset, gen_logic_gate, gen_two_moons, load_csv
from sqnn.features import (_TILE_CELLS, PolynomialWeightFunction, build_design_matrix,
                           eval_angle)
from sqnn.training import (GdConfig, InvalidLabel, LlsConfig, TrainedModel,
                           TrainingDiverged, _design,
                           _loss_and_residual, arctanh_labels, gd_train, lls_train,
                           mse_loss, trainer_config)

from oracle import (central_differences, hstack_design, min_max_scale, poly_angle,
                    reference_gd_reduced, reference_init, reference_loss,
                    reference_predict)
from conftest import require_dataset


def make_dataset(rng, n=12, p=2, classification=False):
    X = rng.uniform(-1, 1, (n, p))
    if classification:
        y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    else:
        y = rng.uniform(-1, 1, n)
    return Dataset(inputs=X, targets=y)


def scaled_like(model, x):
    """x scaled by the model's stored feature bounds."""
    record = model.normalization
    return min_max_scale(x, record.feature_min, record.feature_max)


def hinge(predictions, targets):
    """The trainer's hinge loss and its derivative in the predictions,
    scale * res, from a copy of the predictions."""
    loss, res, scale = _loss_and_residual("hinge", np.array(predictions, dtype=float),
                                          np.asarray(targets, dtype=float))
    return loss, scale * res


class TestLosses:
    def test_mse_identical(self):
        assert mse_loss([0.1, -0.4], [0.1, -0.4]) == 0.0

    def test_mse_hand_case(self):
        assert mse_loss([1.0, -1.0], [-1.0, 1.0]) == pytest.approx(4.0, abs=1e-15)

    def test_mse_matches_accumulation(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = rng.integers(1, 20)
            p, t = rng.normal(size=n), rng.normal(size=n)
            acc = 0.0
            for a, b in zip(p, t):
                acc += (a - b) ** 2
            assert mse_loss(p, t) == pytest.approx(acc / n, rel=1e-12)

    def test_hinge_zero_when_margins_met(self):
        assert hinge([1.0, -1.0, 1.0], [1.0, -1.0, 1.0])[0] == 0.0

    def test_hinge_hand_case(self):
        assert hinge([0.0], [1.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_hinge_matches_accumulation(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = rng.integers(1, 20)
            p = rng.uniform(-2, 2, n)
            t = rng.choice([-1.0, 1.0], n)
            acc = sum(max(0.0, 1.0 - a * b) for a, b in zip(p, t))
            loss, derivative = hinge(p, t)
            assert loss == pytest.approx(acc / n, rel=1e-12)
            np.testing.assert_allclose(derivative, reference_loss("hinge", p, t)[1],
                                       rtol=1e-15, atol=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss([1.0], [1.0, 2.0])

    def test_non_finite_prediction_has_no_squared_error(self):
        with pytest.raises(ValueError, match="^prediction of row 0 is nan, which has no "
                                             "squared error$"):
            mse_loss([np.nan, 0.0], [0.0, 0.0])

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, t = rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)
            assert mse_loss(p, t) >= 0.0
            assert hinge(p, t)[0] >= 0.0


class TestGdTrain:
    def test_zero_gradient_start_leaves_coefficients(self):
        # all-zero inputs and a target equal to the initial constant
        # output: the gradient vanishes and nothing moves
        data = Dataset(inputs=np.zeros((4, 2)), targets=np.ones(4))
        config = GdConfig(init_scale=0.0, max_epochs=1, learning_rate=0.5,
                          normalize=False)
        model, history = gd_train(data, config, model_shape="reduced")
        np.testing.assert_array_equal(model.beta.flat(), np.zeros(3))
        assert history == [0.0]

    def test_and_gate_reduced_hits_its_floor_not_the_target(self):
        # On {-1,+1}^2 inputs every power of a coordinate collapses to the
        # coordinate itself or to 1, so the reduced network is cos(affine)
        # for every K. For the AND pattern that family bottoms out near
        # MSE 0.086 and cannot reach 5e-3.
        data = gen_logic_gate("AND")
        config = GdConfig(learning_rate=0.3, max_epochs=3000, init_scale=0.1,
                          seed=0, target_loss=5e-3)
        model, history = gd_train(data, config, model_shape="reduced")
        assert history[-1] > 5e-3
        assert history[-1] == pytest.approx(0.0858, abs=0.02)

    def test_and_gate_five_angle_reaches_target(self):
        data = gen_logic_gate("AND")
        config = GdConfig(learning_rate=0.3, max_epochs=500, init_scale=1.0,
                          seed=0, target_loss=5e-3)
        model, history = gd_train(data, config, model_shape="full")
        assert history[-1] <= 5e-3
        assert len(history) <= 500

    def test_single_step_descends_on_one_sample(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            data = Dataset(inputs=rng.uniform(-1, 1, (1, 2)),
                           targets=[rng.uniform(-1, 1)])
            config = GdConfig(learning_rate=1e-3, max_epochs=1, seed=seed,
                              init_scale=0.5, normalize=False)
            w0 = reference_init(config, 3)
            design = build_design_matrix(data.inputs, 1)
            loss0 = mse_loss(np.cos(design @ w0), data.targets)
            _, history = gd_train(data, config, model_shape="reduced")
            assert history[-1] <= loss0 + 1e-15

    def test_small_eta_never_increases_loss(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (20, 1))
        truth = PolynomialWeightFunction(K=1, p=1, c0=0.3, c=np.array([[0.8]]))
        data = Dataset(inputs=X, targets=np.cos(eval_angle(truth, X)))
        config = GdConfig(learning_rate=1e-4, max_epochs=10, seed=1,
                          init_scale=0.3, normalize=False)
        _, history = gd_train(data, config, model_shape="reduced")
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_reduced_chain_rule_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        checked = 0
        for trial in range(100):
            K = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            data = make_dataset(rng, n=n, p=p)
            config = GdConfig(learning_rate=0.05, max_epochs=1, seed=trial,
                              init_scale=0.5, K=K, normalize=False)
            n_coef = 1 + K * p
            w0 = reference_init(config, n_coef)
            design = build_design_matrix(data.inputs, K)

            def loss_at(w):
                return mse_loss(np.cos(design @ w), data.targets)

            fd = central_differences(loss_at, w0)
            model, _ = gd_train(data, config, model_shape="reduced")
            taken = (w0 - model.beta.flat()) / config.learning_rate
            np.testing.assert_allclose(taken, fd, atol=1e-6)
            checked += 1
        assert checked == 100

    @pytest.mark.parametrize("loss", ["mse", "hinge"])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_reduced_matches_the_plain_reference_loop(self, loss, K):
        rng = np.random.default_rng(40 + K)
        data = make_dataset(rng, n=150, p=3, classification=loss == "hinge")
        config = GdConfig(learning_rate=0.2, max_epochs=300, seed=K, K=K, loss=loss)
        w_ref, history_ref = reference_gd_reduced(data, config)
        model, history = gd_train(data, config, model_shape="reduced")
        np.testing.assert_allclose(model.beta.flat(), w_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(history, history_ref, rtol=1e-12, atol=0)

        # a target met part-way, halfway between two losses so rounding
        # cannot move it, stops both loops after the same update
        halfway = (history_ref[0] + history_ref[-1]) / 2
        h = next(i for i, loss_i in enumerate(history_ref) if loss_i < halfway)
        above, below = history_ref[h - 1], history_ref[h]
        assert above - below > 1e-9 * below
        target = replace(config, target_loss=(above + below) / 2)
        _, stopped_ref = reference_gd_reduced(data, target)
        _, stopped = gd_train(data, target, model_shape="reduced")
        assert len(stopped) == len(stopped_ref) < config.max_epochs

    @pytest.mark.parametrize("loss", ["mse", "hinge"])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_reduced_matches_the_reference_loop_at_wide_angles(self, loss, K):
        # init_scale 10 puts beta far outside [-pi, pi], so beta / 2 crosses
        # the poles of tan many times over the fit
        rng = np.random.default_rng(60 + K)
        data = make_dataset(rng, n=150, p=3, classification=loss == "hinge")
        config = GdConfig(learning_rate=0.05, max_epochs=300, seed=K, K=K, loss=loss,
                          init_scale=10.0)
        w_ref, history_ref = reference_gd_reduced(data, config)
        model, history = gd_train(data, config, model_shape="reduced")
        np.testing.assert_allclose(model.beta.flat(), w_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(history, history_ref, rtol=1e-12, atol=0)

    def test_full_chain_rule_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            p = int(rng.integers(1, 3))
            data = make_dataset(rng, n=6, p=p)
            config = GdConfig(learning_rate=0.05, max_epochs=1, seed=trial,
                              init_scale=0.5, K=1, normalize=False)
            n_coef = 1 + p
            w0 = reference_init(config, 3 * n_coef + 2)
            design = build_design_matrix(data.inputs, 1)

            def loss_at(w):
                al = design @ w[:n_coef]
                be = design @ w[n_coef:2 * n_coef]
                ga = design @ w[2 * n_coef:3 * n_coef]
                return mse_loss(expectation_batch(al, be, ga, w[-2], w[-1]),
                                data.targets)

            fd = central_differences(loss_at, w0)
            model, _ = gd_train(data, config, model_shape="full")
            w1 = np.concatenate([model.alpha.flat(), model.beta.flat(),
                                 model.gamma.flat(), [model.theta, model.omega]])
            taken = (w0 - w1) / config.learning_rate
            np.testing.assert_allclose(taken, fd, atol=1e-6)

    def test_divergence_reports_epoch(self):
        data = Dataset(inputs=np.array([[1e308]]), targets=[0.5])
        config = GdConfig(K=2, normalize=False, max_epochs=10)
        with pytest.raises(TrainingDiverged) as err:
            with np.errstate(invalid="ignore", over="ignore"):
                gd_train(data, config, model_shape="reduced")
        assert err.value.epoch == 1

    def test_hinge_training_improves_separable_data(self):
        data = gen_two_moons(n=60, noise=0.0, seed=2)
        config = GdConfig(learning_rate=0.2, max_epochs=300, loss="hinge", seed=0,
                          init_scale=0.1)
        model, history = gd_train(data, config, model_shape="reduced")
        assert history[-1] < history[0]
        preds = model.predict_class(data.inputs)
        assert np.mean(preds == data.targets) >= 0.8

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="model_shape"):
            gd_train(gen_logic_gate("AND"), GdConfig(), model_shape="wide")


class TestDesign:
    """The trainers' design scales the inputs inside its first power
    block; it must equal the plain path (fit the column ranges, scale a
    copy, stack the powers) bit for bit."""

    @staticmethod
    def check(data, K, normalize=True):
        rows, record = _design(data, K, normalize)
        design = np.asarray(rows)
        X = data.inputs
        if normalize:
            lo, hi = X.min(axis=0), X.max(axis=0)
            np.testing.assert_array_equal(record.feature_min, lo)
            np.testing.assert_array_equal(record.feature_max, hi)
            X = min_max_scale(X, lo, hi)
        np.testing.assert_array_equal(design, hstack_design(X, K))
        assert design.flags.f_contiguous
        return design, record

    @pytest.mark.parametrize("K", range(1, 7))
    def test_equals_the_plain_path_for_each_degree(self, K):
        self.check(make_dataset(np.random.default_rng(30 + K), n=57, p=4), K)

    def test_constant_column_maps_to_zero(self):
        data = make_dataset(np.random.default_rng(37), n=20, p=3)
        data = replace(data, inputs=np.column_stack([data.inputs[:, :2], np.full(20, 7.5)]))
        design, _ = self.check(data, 3)
        np.testing.assert_array_equal(design[:, [3, 6, 9]], np.zeros((20, 3)))

    def test_without_normalization(self):
        data = make_dataset(np.random.default_rng(38), n=30, p=2)
        data = replace(data, inputs=data.inputs * 40.0 + 300.0)
        _, record = self.check(data, 3, normalize=False)
        assert record is None

    @pytest.mark.parametrize("normalize", [True, False])
    def test_target_range_is_carried(self, normalize):
        data = replace(make_dataset(np.random.default_rng(39), n=25, p=3),
                       target_range=(420.0, 500.0))
        _, record = self.check(data, 2, normalize)
        assert (record.target_min, record.target_max) == (420.0, 500.0)
        assert (record.feature_min is not None) == normalize

    def test_one_row(self):
        data = Dataset(inputs=np.array([[3.0, -2.0, 0.5]]), targets=np.array([0.25]))
        design, _ = self.check(data, 4)
        np.testing.assert_array_equal(design, [[1.0] + [0.0] * 12])

    def test_wide_input(self):
        self.check(make_dataset(np.random.default_rng(40), n=30, p=784), 2)

    # build_design_matrix copies the inputs in tiles of TILE rows at p = 784
    TILE = max(1, _TILE_CELLS // 784)

    def test_rows_past_two_tiles(self):
        self.check(make_dataset(np.random.default_rng(42), n=2 * self.TILE + 3, p=784), 2)

    def test_rows_within_one_tile(self):
        self.check(make_dataset(np.random.default_rng(43), n=self.TILE - 1, p=784), 1)

    def test_flat_columns_and_a_range_only_in_the_last_tile(self):
        data = make_dataset(np.random.default_rng(44), n=2 * self.TILE + 3, p=784)
        X = data.inputs.copy()
        X[:, 5] = 0.25  # flat
        X[:, 9] = -0.5
        X[-2, 9] = 0.75  # flat except in the last tile
        design, record = self.check(replace(data, inputs=X), 1)
        np.testing.assert_array_equal(design[:, 1 + 5], np.zeros(X.shape[0]))
        assert (record.feature_min[9], record.feature_max[9]) == (-0.5, 0.75)
        assert design[-2, 1 + 9] == 1.0

    def test_stored_bounds_equal_the_plain_path(self):
        # prediction scales a new batch by the fitted bounds, outside [-1, 1]
        rng = np.random.default_rng(45)
        fitted = rng.uniform(-1, 1, (50, 784))
        lo, hi = fitted.min(axis=0), fitted.max(axis=0)
        X = rng.uniform(-2, 2, (2 * self.TILE + 3, 784))
        lo[3] = hi[3] = X[:, 3] = 0.5  # zero width
        design = build_design_matrix(X, 2, (lo, hi))
        np.testing.assert_array_equal(design, hstack_design(min_max_scale(X, lo, hi), 2))
        assert design.flags.f_contiguous

    def test_makes_no_scaled_copy_of_the_inputs(self):
        # tracemalloc counts numpy's allocations: building the design
        # holds the design and a few p-sized arrays, not a scaled copy
        data = make_dataset(np.random.default_rng(41), n=2_000, p=784)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            design = np.asarray(_design(data, 1, True)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < design.nbytes + data.inputs.nbytes // 2


BETAS = st.floats(min_value=-1e6, max_value=1e6)


class TestCosAndSin:
    """The package's one cos and sin rule, from tan(beta / 2), against
    numpy's, over angles far past the poles of tan. _cos_and_sin takes
    the half angle."""

    @settings(max_examples=300)
    @given(st.one_of(BETAS, st.lists(BETAS, min_size=1, max_size=64)))
    def test_matches_numpy(self, betas):
        beta = np.array(betas)  # a 0-d array for a scalar
        half = beta.copy()
        half *= 0.5
        cos, sin = _cos_and_sin(half)
        np.testing.assert_allclose(cos, np.cos(beta), rtol=0, atol=4.5e-16)
        np.testing.assert_allclose(sin, np.sin(beta), rtol=0, atol=4.5e-16)

    def test_special_inputs(self):
        # each of these is its own half
        with np.errstate(invalid="ignore"):
            cos, sin = _cos_and_sin(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        np.testing.assert_array_equal(cos[:2], [1.0, 1.0])
        np.testing.assert_array_equal(np.signbit(sin[:2]), [False, True])
        np.testing.assert_array_equal(sin[:2], [0.0, 0.0])
        assert np.isnan(cos[2:]).all() and np.isnan(sin[2:]).all()


class TestPredictionPaths:
    def test_reduced_predict_is_cos_of_angle(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng, n=20, p=3)
        model, _ = gd_train(data, GdConfig(max_epochs=3, seed=5, K=2),
                            model_shape="reduced")
        for x in rng.uniform(-1, 1, (50, 3)):
            scaled = scaled_like(model, x)
            assert model.predict(x) == pytest.approx(
                math.cos(poly_angle(model.beta, scaled)), abs=1e-12)

    @pytest.mark.parametrize("loss", ["mse", "hinge"])
    @pytest.mark.parametrize("n, p, K", [(800, 1, 1), (8611, 4, 6), (957, 4, 3)])
    def test_reduced_predict_equals_the_trainers_last_cos(self, monkeypatch, n, p, K, loss):
        # the trainer's value_and_grad returns each epoch's cos(beta); the
        # last one is at the coefficients the model holds
        n_params, make_value_and_grad, model_fields = training._GD_SHAPES["reduced"]
        last = []

        def spy(design):
            value_and_grad = make_value_and_grad(design)

            def recorded(w):
                cos, grad = value_and_grad(w)
                last[:] = [cos.copy()]  # the loss then overwrites cos
                return cos, grad
            return recorded

        monkeypatch.setitem(training._GD_SHAPES, "reduced", (n_params, spy, model_fields))
        rng = np.random.default_rng(n)
        X = rng.uniform(-3.0, 5.0, (n, p))
        data = Dataset(inputs=X, targets=np.where(rng.random(n) < 0.5, -1.0, 1.0))
        model, _ = gd_train(data, GdConfig(max_epochs=20, K=K, loss=loss, init_scale=1.0),
                            model_shape="reduced")
        assert np.array_equal(model.predict(X), last[0])

    def test_full_predict_matches_closed_form(self):
        rng = np.random.default_rng(9)
        data = make_dataset(rng, n=15, p=2)
        model, _ = gd_train(data, GdConfig(max_epochs=3, seed=6),
                            model_shape="full")
        for x in rng.uniform(-1, 1, (50, 2)):
            scaled = scaled_like(model, x)
            value = expectation_batch(poly_angle(model.alpha, scaled),
                                      poly_angle(model.beta, scaled),
                                      poly_angle(model.gamma, scaled),
                                      model.theta, model.omega)
            assert model.predict(x) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("case", ["scaled", "unscaled-with-target-range",
                                      "constant-column"])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["lls", "gd-reduced", "gd-full"])
    def test_predict_matches_power_loop_reference(self, kind, K, case):
        # predict takes design @ flat; the reference sums one dot product
        # per power, so the two agree to rounding: 1e-12 of the largest
        # |angle|, and at least 1e-12
        rng = np.random.default_rng(K)
        X = rng.uniform(-2.0, 3.0, (40, 3))
        if case == "constant-column":
            X[:, 1] = 2.5
        data = Dataset(inputs=X, targets=rng.uniform(-0.9, 0.9, 40),
                       target_range=(420.0, 500.0) if case.startswith("unscaled") else None)
        normalize = not case.startswith("unscaled")
        if kind == "lls":
            model = lls_train(data, LlsConfig(K=K, normalize=normalize))
        else:
            model, _ = gd_train(data, GdConfig(K=K, max_epochs=3, normalize=normalize),
                                model_shape=kind.removeprefix("gd-"))
        if not normalize:
            assert model.normalization.feature_min is None
        batch = rng.uniform(-3.0, 4.0, (30, 3))
        expected, largest_angle = reference_predict(model, batch)
        tol = 1e-12 * max(1.0, largest_angle)
        preds = model.predict(batch)
        np.testing.assert_allclose(preds, expected, rtol=0, atol=tol)
        for row, value in zip(batch[:5], preds[:5]):
            single = model.predict(row)
            assert isinstance(single, float)
            assert single == pytest.approx(value, rel=0, abs=tol)

    def test_predictions_stay_bounded(self):
        rng = np.random.default_rng(10)
        data = make_dataset(rng, n=30, p=2, classification=True)
        models = [
            lls_train(data, LlsConfig(K=3)),
            gd_train(data, GdConfig(max_epochs=5, seed=1), model_shape="full")[0],
            gd_train(data, GdConfig(max_epochs=5, seed=1), model_shape="reduced")[0],
        ]
        X = rng.uniform(-5, 5, (200, 2))
        for model in models:
            preds = model.predict(X)
            assert np.all(np.abs(preds) <= 1.0 + 1e-12)

    def test_zero_model_predicts_zero_class_plus_one(self):
        model = TrainedModel(kind="lls", K=1, p=2,
                             beta=PolynomialWeightFunction(K=1, p=2))
        assert model.predict([0.3, -0.8]) == 0.0
        assert model.predict_class([0.3, -0.8]) == 1.0

    @pytest.mark.parametrize("x, row", [([1e200], 0), (np.array([[1.0], [1e200]]), 1)])
    def test_non_finite_prediction_has_no_class(self, x, row):
        # finite inputs, but x**2 overflows and 0 * inf is nan
        model = TrainedModel(kind="lls", K=3, p=1, beta=PolynomialWeightFunction(K=3, p=1))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.ravel(model.predict(x))[row])
        with pytest.raises(ValueError, match=f"prediction of row {row} is nan"):
            model.predict_class(x)

    def test_dimension_mismatch_names_sizes(self):
        model = TrainedModel(kind="lls", K=1, p=2,
                             beta=PolynomialWeightFunction(K=1, p=2))
        with pytest.raises(ValueError, match="dimension 3.*expects 2"):
            model.predict([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x, shape", [(1.0, r"\(\)"), (np.zeros((2, 3, 2)), r"\(2, 3, 2\)")])
    def test_input_of_wrong_rank_names_its_shape(self, x, shape):
        model = TrainedModel(kind="lls", K=1, p=2,
                             beta=PolynomialWeightFunction(K=1, p=2))
        with pytest.raises(ValueError, match=f"got shape {shape}"):
            model.predict(x)

    @pytest.mark.parametrize("kind, K, p, parts, field", [
        ("lls", 2, 3, {"beta": (1, 3)}, "beta has K=1, p=3, not K=2, p=3"),
        ("gd-reduced", 1, 2, {"beta": (1, 3)}, "beta has K=1, p=3, not K=1, p=2"),
        ("gd-full", 2, 2, {"beta": (2, 2), "alpha": (2, 2), "gamma": (1, 2)},
         "gamma has K=1, p=2, not K=2, p=2"),
        ("gd-reduced", 1, 2, {"beta": (1, 2), "alpha": (1, 2), "gamma": (1, 2)}, "takes no alpha"),
        ("lls", 1, 2, {"beta": (1, 2), "gamma": (1, 2)}, "takes no gamma"),
        ("gd-full", 1, 2, {"beta": (1, 2), "alpha": (1, 2)}, "needs gamma"),
    ])
    def test_parts_that_contradict_the_model_rejected(self, kind, K, p, parts, field):
        polys = {name: PolynomialWeightFunction(K=k, p=q) for name, (k, q) in parts.items()}
        with pytest.raises(ValueError, match=field):
            TrainedModel(kind=kind, K=K, p=p, **polys)

    @pytest.mark.parametrize("kind", ["lls", "gd-full", "gd-reduced"])
    def test_one_design_build_per_fit_and_per_predict(self, kind, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return build_design_matrix(*args, **kwargs)

        monkeypatch.setattr(training, "build_design_matrix", counting)
        data = make_dataset(np.random.default_rng(46), n=20, p=3, classification=True)
        if kind == "lls":
            model = lls_train(data, LlsConfig(K=2))
        else:
            model, _ = gd_train(data, GdConfig(K=2, max_epochs=4),
                                model_shape=kind.removeprefix("gd-"))
        assert calls == [(20, 3)]
        model.predict(data.inputs[:5])
        model.predict(data.inputs[0])
        assert calls == [(20, 3), (5, 3), (1, 3)]

    @pytest.mark.parametrize("kind", ["lls", "gd-full", "gd-reduced"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, kind, bad):
        data = gen_two_moons(60, seed=3)
        if kind == "lls":
            model = lls_train(data, LlsConfig(K=2))
        else:
            shape = kind.removeprefix("gd-")
            model, _ = gd_train(data, GdConfig(max_epochs=2), model_shape=shape)
        batch = np.array([[0.2, 0.1], [bad, 0.0]])
        for x in (batch[1], batch):
            with pytest.raises(ValueError, match="non-finite"):
                model.predict(x)
            with pytest.raises(ValueError, match="non-finite"):
                model.predict_class(x)


class TestLlsTrain:
    def test_label_clipping_before_arctanh(self):
        out = arctanh_labels(np.array([1.0, -1.0, 0.5]))
        assert out[0] == pytest.approx(np.arctanh(1.0 - 1e-16))
        assert out[1] == pytest.approx(-np.arctanh(1.0 - 1e-16))
        assert out[2] == pytest.approx(np.arctanh(0.5), abs=1e-15)
        assert np.all(np.isfinite(out))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InvalidLabel):
            arctanh_labels(np.array([1.5]))
        bad = SimpleNamespace(inputs=np.array([[1.0]]), targets=np.array([2.0]),
                              n=1, p=1)
        with pytest.raises(InvalidLabel):
            lls_train(bad, LlsConfig())

    def test_two_point_exact_fit(self):
        data = Dataset(inputs=np.array([[-1.0], [1.0]]),
                       targets=np.array([-0.5, 0.5]))
        model = lls_train(data, LlsConfig(K=1))
        # hand normal equations: c0 = 0, c1 = arctanh(0.5)
        assert model.beta.c0 == pytest.approx(0.0, abs=1e-12)
        assert model.beta.c[0, 0] == pytest.approx(np.arctanh(0.5), abs=1e-12)
        np.testing.assert_allclose(model.predict(data.inputs), data.targets,
                                   atol=1e-10)

    def test_deterministic_retraining(self):
        data = gen_two_moons(n=100, noise=0.07, seed=4)
        a = lls_train(data, LlsConfig(K=3))
        b = lls_train(data, LlsConfig(K=3))
        np.testing.assert_array_equal(a.beta.flat(), b.beta.flat())

    def test_first_order_optimality(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            data = make_dataset(rng, n=int(rng.integers(5, 40)),
                                p=int(rng.integers(1, 4)), classification=True)
            config = LlsConfig(K=int(rng.integers(1, 4)))
            model = lls_train(data, config)
            design = hstack_design(scaled_like(model, data.inputs), config.K)
            rhs = arctanh_labels(data.targets, config.epsilon)
            grad = design.T @ (design @ model.beta.flat() - rhs)
            assert np.max(np.abs(grad)) <= 1e-6 * (1 + np.max(np.abs(design.T @ rhs)))

    def test_residual_never_grows_with_k(self):
        rng = np.random.default_rng(12)
        data = make_dataset(rng, n=40, p=2, classification=True)
        residuals = []
        for K in range(1, 6):
            config = LlsConfig(K=K)
            model = lls_train(data, config)
            design = hstack_design(scaled_like(model, data.inputs), K)
            rhs = arctanh_labels(data.targets, config.epsilon)
            residuals.append(float(np.sum((design @ model.beta.flat() - rhs) ** 2)))
        for prev, nxt in zip(residuals, residuals[1:]):
            assert nxt <= prev + 1e-9

    def test_prediction_equals_cos_of_classifier_angle(self):
        rng = np.random.default_rng(13)
        data = make_dataset(rng, n=25, p=2, classification=True)
        model = lls_train(data, LlsConfig(K=2))
        for x in rng.uniform(-1, 1, (20, 2)):
            scaled = scaled_like(model, x)
            assert model.predict(x) == pytest.approx(
                math.cos(math.acos(np.tanh(poly_angle(model.beta, scaled)))), abs=1e-12)

    def test_empty_dataset_rejected(self):
        bad = SimpleNamespace(inputs=np.empty((0, 1)), targets=np.empty(0), n=0, p=1)
        with pytest.raises(ValueError, match="empty"):
            lls_train(bad, LlsConfig())

    def test_epsilon_that_leaves_one_unmoved_rejected(self):
        # 1 - 1e-17 rounds to 1.0, so arctanh would return inf
        with pytest.raises(ValueError, match="epsilon"):
            LlsConfig(K=2, epsilon=1e-17)
        model = lls_train(gen_two_moons(100), LlsConfig(K=2, epsilon=1e-16))
        assert np.all(np.isfinite(model.beta.flat()))

    def test_solve_holds_no_copy_of_the_scaled_inputs(self, monkeypatch):
        # tracemalloc counts numpy's allocations: what is live when the
        # SVD starts, beyond what the caller already held, is the design
        # matrix and little else (the scaled inputs are already freed);
        # the fit hands that design over to be factorized in place
        data = make_dataset(np.random.default_rng(20), n=20_000, p=40, classification=True)
        svd, at_entry, designs = linalg.svd, [], []

        def spy(a, *, overwrite_a):
            assert overwrite_a is True
            at_entry.append(tracemalloc.get_traced_memory()[0])
            designs.append(a)
            return svd(a, overwrite_a=overwrite_a)

        monkeypatch.setattr(linalg, "svd", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lls_train(data, LlsConfig(K=1))
        finally:
            tracemalloc.stop()
        (design,) = designs
        assert design.shape == (20_000, 41)
        assert at_entry[0] - before <= 1.1 * design.nbytes

    def test_fit_peaks_near_one_design(self):
        # the SVD writes U over the design lls_train built, so the fit's
        # peak holds no second matrix-sized array (a copy read 2.05 x)
        data = make_dataset(np.random.default_rng(20), n=20_000, p=40, classification=True)
        design_bytes = 20_000 * 41 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lls_train(data, LlsConfig(K=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.25 * design_bytes

    def test_a_blocked_fit_holds_one_block_not_the_design(self, monkeypatch):
        # 12,000 x 101 (1.2M cells) takes lls_solve's large tall route. In
        # blocks of at most 2**18 cells that is 5 blocks of 2,400 rows, filled
        # in turn under R in one 2,501 x 101 buffer (0.21 of the design);
        # a fit that builds the whole design first peaks above 1 x it
        if linalg._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS with every routine of linalg._ROUTINES")
        monkeypatch.setattr(linalg, "_BLOCK_CELLS", 2 ** 18)
        data = make_dataset(np.random.default_rng(21), n=12_000, p=100, classification=True)
        design_bytes = 12_000 * 101 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lls_train(data, LlsConfig(K=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 0.6 * design_bytes

    @pytest.mark.parametrize("epsilon", [1e-17, 0.0, 2.0])
    def test_arctanh_labels_applies_the_config_epsilon_rule(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            arctanh_labels(np.array([1.0, -1.0]), epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            LlsConfig(epsilon=epsilon)

    @pytest.mark.parametrize("K", [1, 4, 8])
    def test_wdbc_classes_do_not_depend_on_epsilon(self, data_dir, K):
        # arctanh maps each +-1 label to +-arctanh(1 - epsilon), so for
        # +-1 labels the fit is least squares on the labels scaled by that
        # one number: epsilon scales every angle and moves no class
        require_dataset("wdbc", data_dir)
        data = load_csv(data_dir / "wdbc.data", target_column=1, has_header=False,
                        drop_cols=(0,), label_map={"M": 1, "B": -1}, scale_targets=False)
        near, far = (lls_train(data, LlsConfig(K=K, epsilon=epsilon)).predict_class(data.inputs)
                     for epsilon in (1e-16, 1e-3))
        assert np.array_equal(near, far)


class TestTrainerConfig:
    def test_shape_selects_the_config_class(self):
        assert trainer_config({}) == (LlsConfig(), None)
        assert trainer_config({"K": 3, "rcond": 0.1}) == (LlsConfig(K=3, rcond=0.1), None)
        assert trainer_config({"shape": "full"}) == (GdConfig(), "full")
        settings = {"shape": "reduced", "learning_rate": 0.2, "seed": 4}
        assert trainer_config(settings) == (GdConfig(learning_rate=0.2, seed=4), "reduced")
        assert settings["shape"] == "reduced"  # the caller's dict is left as it was

    @pytest.mark.parametrize("settings, stray", [
        ({"learning_rate": 0.1}, "learning_rate"),
        ({"seed": 1, "K": 2}, "seed"),
        ({"shape": "full", "rcond": 0.5}, "rcond"),
        ({"shape": "reduced", "epsilon": 1e-3}, "epsilon"),
        ({"shape": "full", "learning_rte": 0.1}, "learning_rte"),
    ])
    def test_a_key_the_class_lacks_is_rejected_by_name(self, settings, stray):
        with pytest.raises(ValueError, match=stray):
            trainer_config(settings)

    def test_unknown_shape_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="'reduced' or 'full', got 'bogus'"):
            trainer_config({"shape": "bogus"})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("cls, field", [
        (GdConfig, "learning_rate"), (GdConfig, "target_loss"), (GdConfig, "init_scale"),
        (LlsConfig, "rcond")])
    def test_a_non_finite_setting_is_rejected_by_name(self, cls, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite, got {value}"):
            cls(**{field: value})

    def test_unknown_loss_is_rejected_when_the_config_is_built(self):
        with pytest.raises(ValueError, match="'mse' or 'hinge', got 'mae'"):
            GdConfig(loss="mae")
        with pytest.raises(ValueError, match="'mae'"):
            trainer_config({"shape": "full", "loss": "mae"})

    @pytest.mark.parametrize("cls", [GdConfig, LlsConfig])
    def test_a_non_bool_normalize_is_rejected_by_name(self, cls):
        # a truthy string once trained a normalized model
        with pytest.raises(ValueError, match="^normalize must be True or False, got 'no'"):
            cls(normalize="no")
