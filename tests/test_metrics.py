"""Confusion counts, metric suite, cross-validation plumbing."""

import numpy as np
import pytest

from sqnn import metrics
from sqnn.datasets import Dataset, kfold_plan, split
from sqnn.metrics import (ConfusionMatrix, MetricSummary, confusion, crossval,
                          metric_suite)
from sqnn.training import GdConfig, LlsConfig, gd_train, lls_train, mse_loss

from oracle import reference_loss


def separable_blobs(n=60, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.normal((2.0, 2.0), 0.3, (half, 2)),
                   rng.normal((-2.0, -2.0), 0.3, (n - half, 2))])
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    order = rng.permutation(n)
    return Dataset(inputs=X[order], targets=y[order])


class TestConfusion:
    def test_all_positive_correct(self):
        cm = confusion(np.ones(8), np.ones(8))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (8, 0, 0, 0)

    def test_all_wrong(self):
        actual = np.array([1.0, -1.0, 1.0, -1.0])
        cm = confusion(-actual, actual)
        assert cm.tp == 0 and cm.tn == 0
        assert cm.fp + cm.fn == 4

    def test_hand_counts(self):
        predicted = np.array([1, 1, 1, 1, -1, -1, -1, -1, -1, -1], dtype=float)
        actual = np.array([1, 1, 1, -1, 1, 1, -1, -1, -1, -1], dtype=float)
        cm = confusion(predicted, actual)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 1, 4, 2)
        assert cm.total == 10

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([1.0], [1.0, -1.0])

    def test_non_binary_values_rejected(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            confusion([0.5, 1.0], [1.0, 1.0])


class TestMetricSuite:
    def test_perfect(self):
        report = metric_suite(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0))
        assert all(v == 1.0 for v in report.as_dict().values())
        assert not report.undefined

    def test_hand_case(self):
        report = metric_suite(ConfusionMatrix(tp=3, fp=1, tn=4, fn=2))
        assert report.accuracy == pytest.approx(0.7)
        assert report.precision == pytest.approx(0.75)
        assert report.sensitivity == pytest.approx(0.6)
        assert report.specificity == pytest.approx(0.8)
        assert report.f1 == pytest.approx(2 * 0.75 * 0.6 / (0.75 + 0.6))

    def test_undefined_precision_flagged(self):
        report = metric_suite(ConfusionMatrix(tp=0, fp=0, tn=4, fn=2))
        assert report.precision == 0.0
        assert "precision" in report.undefined

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metric_suite(ConfusionMatrix(tp=0, fp=0, tn=0, fn=0))

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            counts = rng.integers(0, 20, 4)
            if counts.sum() == 0:
                continue
            report = metric_suite(ConfusionMatrix(*map(int, counts)))
            for value in report.as_dict().values():
                assert 0.0 <= value <= 1.0

    def test_class_swap_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            predicted = rng.choice([-1.0, 1.0], 30)
            actual = rng.choice([-1.0, 1.0], 30)
            fwd = metric_suite(confusion(predicted, actual))
            rev = metric_suite(confusion(-predicted, -actual))
            assert rev.accuracy == pytest.approx(fwd.accuracy)
            assert rev.sensitivity == pytest.approx(fwd.specificity)
            assert rev.specificity == pytest.approx(fwd.sensitivity)


class TestMetricSummary:
    def test_mean_within_fold_range(self):
        s = MetricSummary(name="accuracy", values=(0.9, 0.95, 1.0))
        assert min(s.values) <= s.mean <= max(s.values)
        assert s.std == pytest.approx(np.std([0.9, 0.95, 1.0], ddof=1))

    def test_single_fold_std_zero(self):
        assert MetricSummary(name="m", values=(0.5,)).std == 0.0


class TestCrossval:
    def test_separable_dataset_is_perfect_everywhere(self):
        data = separable_blobs(n=60, seed=3)
        summary = crossval(data, trainer="lls", config=LlsConfig(K=1), k=10, seed=0)
        assert summary["accuracy"].mean == 1.0
        assert summary["accuracy"].std == 0.0
        assert all(v == 1.0 for v in summary["accuracy"].values)

    def test_fold_zero_matches_manual_replay(self):
        data = separable_blobs(n=40, seed=4)
        k, seed = 5, 11
        summary = crossval(data, trainer="lls", config=LlsConfig(K=2), k=k, seed=seed)
        plan = kfold_plan(data.n, k=k, seed=seed, labels=data.targets)
        train, test = split(data, plan, 0)
        model = lls_train(train, LlsConfig(K=2))
        report = metric_suite(confusion(model.predict_class(test.inputs),
                                        test.targets))
        for name, value in report.as_dict().items():
            assert summary[name].values[0] == value

    def test_leave_one_out_accuracies_binary(self):
        data = separable_blobs(n=12, seed=5)
        summary = crossval(data, trainer="lls", config=LlsConfig(K=1),
                           k=12, seed=1)
        assert set(summary["accuracy"].values) <= {0.0, 1.0}

    def test_regression_task_reports_mse(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, (40, 1))
        data = Dataset(inputs=X, targets=np.cos(0.5 + 0.7 * X.ravel()))
        summary = crossval(data, trainer="gd",
                           config=GdConfig(max_epochs=200, learning_rate=0.3),
                           task="regression", k=4, seed=2)
        assert set(summary) == {"train_mse", "test_mse"}
        assert summary["test_mse"].mean < 0.05

    @pytest.mark.parametrize("shape, loss", [("reduced", "mse"), ("full", "mse"),
                                             ("reduced", "hinge")])
    def test_train_mse_is_the_training_fold_mse(self, shape, loss):
        # an MSE fit reports its last loss, a hinge fit predicts: either way
        # the value is the MSE of the returned model on its training fold
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, (50, 2))
        y = np.cos(0.5 + 0.7 * X[:, 0] - 0.4 * X[:, 1])
        data = Dataset(inputs=X, targets=y if loss == "mse" else np.sign(y - y.mean()))
        config = GdConfig(K=2, max_epochs=40, learning_rate=0.2, loss=loss)
        summary = crossval(data, trainer="gd", config=config, model_shape=shape,
                           task="regression", k=4, seed=3)
        plan = kfold_plan(data.n, k=4, seed=3)
        for fold, value in enumerate(summary["train_mse"].values):
            train, _ = split(data, plan, fold)
            model, _ = gd_train(train, config, model_shape=shape)
            predictions = model.predict(train.inputs)
            assert value == pytest.approx(mse_loss(predictions, train.targets), rel=1e-14)
            if loss == "hinge":
                hinge = reference_loss("hinge", predictions, train.targets)[0]
                assert value != pytest.approx(hinge)

    def test_deterministic(self):
        data = separable_blobs(n=30, seed=7)
        a = crossval(data, trainer="lls", config=LlsConfig(K=1), k=5, seed=3)
        b = crossval(data, trainer="lls", config=LlsConfig(K=1), k=5, seed=3)
        assert a["accuracy"].values == b["accuracy"].values

    def test_unknown_trainer(self):
        with pytest.raises(ValueError, match="trainer"):
            crossval(separable_blobs(12), trainer="sgd", k=3)

    @pytest.mark.parametrize("trainer, config, message", [
        ("lls", GdConfig(), "trainer 'lls' takes a LlsConfig, got a GdConfig"),
        ("gd", LlsConfig(), "trainer 'gd' takes a GdConfig, got a LlsConfig"),
    ])
    def test_config_of_the_wrong_class_rejected_before_folding(self, monkeypatch, trainer,
                                                                config, message):
        monkeypatch.setattr(metrics, "kfold_plan",
                            lambda *args, **kwargs: pytest.fail("fold plan was built"))
        with pytest.raises(ValueError, match=message):
            crossval(separable_blobs(12), trainer=trainer, config=config, k=3)
