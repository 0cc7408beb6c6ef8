"""Feature maps: polynomial angles, design matrix, scaling, DCT."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sqnn
from sqnn import model_io
from sqnn.datasets import Dataset, filter_pair, gen_sinc, gen_two_moons, kfold_plan, load_csv, split
from sqnn.features import (NormalizationRecord, PolynomialWeightFunction, build_design_matrix,
                           dct_features, eval_angle)
from sqnn.linalg import lls_solve
from sqnn.training import GdConfig, LlsConfig, _design, lls_train

from oracle import dct2, hstack_design, idct2, poly_angle


def horner_eval(f, x):
    """Per-feature Horner evaluation of c0 + sum_k sum_j c_kj x_j^k."""
    total = f.c0
    for j in range(f.p):
        acc = 0.0
        for k in range(f.K, 0, -1):
            acc = (acc + f.c[k - 1, j]) * x[j]
        total += acc
    return total


def brute_dct2(img):
    """Direct O(N^4) orthonormal type-II DCT: each coefficient is its own
    double sum of pixel times cosine products, with no basis matrix."""
    n = img.shape[0]
    out = np.zeros((n, n))
    i = np.arange(n)
    for u in range(n):
        for v in range(n):
            total = np.sum(img
                           * np.cos(np.pi * (2 * i[:, None] + 1) * u / (2 * n))
                           * np.cos(np.pi * (2 * i[None, :] + 1) * v / (2 * n)))
            au = np.sqrt(1.0 / n) if u == 0 else np.sqrt(2.0 / n)
            av = np.sqrt(1.0 / n) if v == 0 else np.sqrt(2.0 / n)
            out[u, v] = au * av * total
    return out


class TestPolynomialWeightFunction:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(0)
        f = PolynomialWeightFunction(K=3, p=4, c0=rng.normal(), c=rng.normal(size=(3, 4)))
        g = PolynomialWeightFunction.from_flat(f.flat(), K=3, p=4)
        assert g.c0 == f.c0
        np.testing.assert_array_equal(g.c, f.c)
        assert f.flat().size == 1 + 3 * 4

    def test_bad_coefficient_count(self):
        with pytest.raises(ValueError, match="coefficients"):
            PolynomialWeightFunction.from_flat(np.zeros(5), K=2, p=3)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            PolynomialWeightFunction(K=0, p=2)


class TestEvalAngle:
    def test_constant(self):
        f = PolynomialWeightFunction(K=2, p=3, c0=1.0)
        assert eval_angle(f, [5.0, -2.0, 0.3]) == 1.0

    def test_hand_case(self):
        f = PolynomialWeightFunction(K=2, p=2, c0=0.0, c=np.ones((2, 2)))
        assert eval_angle(f, [2.0, 3.0]) == pytest.approx(2 + 3 + 4 + 9, abs=1e-12)

    def test_matches_horner(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            K, p = rng.integers(1, 6), rng.integers(1, 5)
            f = PolynomialWeightFunction(K=K, p=p, c0=rng.normal(),
                                         c=rng.normal(size=(K, p)))
            x = rng.uniform(-2, 2, p)
            assert eval_angle(f, x) == pytest.approx(horner_eval(f, x), abs=1e-12)

    def test_dimension_mismatch(self):
        f = PolynomialWeightFunction(K=1, p=2)
        with pytest.raises(ValueError, match="dimension"):
            eval_angle(f, [1.0, 2.0, 3.0])

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(2)
        f = PolynomialWeightFunction(K=3, p=2, c0=0.5, c=rng.normal(size=(3, 2)))
        X = rng.uniform(-1, 1, (10, 2))
        batch = eval_angle(f, X)
        for i in range(10):
            assert batch[i] == pytest.approx(eval_angle(f, X[i]), abs=1e-14)


class TestDesignMatrix:
    def test_k1_zero_row(self):
        np.testing.assert_array_equal(build_design_matrix([[0.0, 0.0]], K=1),
                                      [[1.0, 0.0, 0.0]])

    def test_k2_hand_row(self):
        np.testing.assert_allclose(build_design_matrix([[2.0, 3.0]], K=2),
                                   [[1, 2, 3, 4, 9]], atol=1e-12)

    def test_entries_are_powers(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, (3, 4))
        D = build_design_matrix(X, K=3)
        assert D.shape == (3, 1 + 3 * 4)
        for i in range(3):
            for k in range(1, 4):
                for j in range(4):
                    assert D[i, 1 + (k - 1) * 4 + j] == pytest.approx(
                        X[i, j] ** k, rel=1e-12)

    def test_k1_is_ones_and_inputs(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(7, 3))
        D = build_design_matrix(X, K=1)
        assert D.shape == (7, 4)
        np.testing.assert_array_equal(D[:, 0], np.ones(7))
        np.testing.assert_array_equal(D[:, 1:], X)

    def test_power_block_nesting(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, (5, 2))
        D1 = build_design_matrix(X, K=1)
        D3 = build_design_matrix(X, K=3)
        for k in range(1, 4):
            np.testing.assert_allclose(D3[:, 1 + (k - 1) * 2:1 + k * 2],
                                       D1[:, 1:] ** k, atol=1e-12)

    def test_dot_with_flat_equals_eval_angle(self):
        rng = np.random.default_rng(8)
        f = PolynomialWeightFunction(K=4, p=3, c0=rng.normal(),
                                     c=rng.normal(size=(4, 3)))
        X = rng.uniform(-1.5, 1.5, (20, 3))
        # eval_angle is design @ flat itself, so the power loop is the check
        np.testing.assert_allclose(build_design_matrix(X, K=4) @ f.flat(),
                                   poly_angle(f, X), atol=1e-12)
        np.testing.assert_array_equal(eval_angle(f, X),
                                      build_design_matrix(X, K=4) @ f.flat())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_design_matrix(np.empty((0, 2)), K=1)

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_equals_stacked_blocks_and_is_column_major(self, K):
        X = np.random.default_rng(9).uniform(-1, 1, (40, 3))
        D = build_design_matrix(X, K)
        np.testing.assert_array_equal(D, hstack_design(X, K))
        assert D.flags.f_contiguous


class TestNormalization:
    def test_affine_endpoints(self):
        inputs = np.array([[0.0], [5.0], [10.0]])
        record = NormalizationRecord(inputs.min(axis=0), inputs.max(axis=0))
        np.testing.assert_allclose(record.apply_features(inputs).ravel(),
                                   [-1.0, 0.0, 1.0], atol=1e-15)
        # the trainers fit the same bounds, and the design builder scales by them
        _, fitted = _design(Dataset(inputs, np.zeros(3)), 1, True)
        lo, hi = fitted.feature_min, fitted.feature_max
        assert (lo[0], hi[0]) == (0.0, 10.0)
        np.testing.assert_array_equal(build_design_matrix(inputs, 1, (lo, hi))[:, 1],
                                      record.apply_features(inputs).ravel())

    def test_constant_column_maps_to_zero(self, tmp_path):
        inputs = np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]])
        record = NormalizationRecord(inputs.min(axis=0), inputs.max(axis=0))
        scaled = record.apply_features(inputs)
        np.testing.assert_array_equal(scaled[:, 0], np.zeros(3))
        # the same zero-width rule for targets, at load time and on a record
        path = tmp_path / "constant.csv"
        path.write_text("x,y\n1,5\n2,5\n3,5\n")
        data = load_csv(path, scale_targets=True)
        np.testing.assert_array_equal(data.targets, np.zeros(3))
        assert data.target_range == (5.0, 5.0)
        record = NormalizationRecord(None, None, target_min=5.0, target_max=5.0)
        np.testing.assert_array_equal(record.apply_target([4.0, 5.0, 6.0]), np.zeros(3))

    def test_target_round_trip(self):
        rng = np.random.default_rng(9)
        y = rng.uniform(400, 500, 50)
        record = NormalizationRecord(feature_min=None, feature_max=None,
                                     target_min=float(y.min()), target_max=float(y.max()))
        np.testing.assert_allclose(record.invert_target(record.apply_target(y)),
                                   y, atol=1e-12 * 500)
        scaled = record.apply_target(y)
        assert scaled.min() == -1.0 and scaled.max() == 1.0

    def test_record_reuse_on_new_data(self):
        record = NormalizationRecord(np.array([0.0]), np.array([10.0]))
        np.testing.assert_allclose(record.apply_features(np.array([[15.0]])),
                                   [[2.0]], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_design_matrix(np.empty((0, 3)), 1, (np.zeros(3), np.ones(3)))

    def test_missing_target_scaling_rejected(self):
        record = NormalizationRecord(feature_min=np.zeros(1), feature_max=np.ones(1))
        with pytest.raises(ValueError, match="target"):
            record.apply_target([0.5])


class TestDct:
    def test_constant_image_is_dc_only(self):
        coeffs = dct2(np.ones((6, 6)))
        assert coeffs[0, 0] == pytest.approx(6.0, abs=1e-12)  # n * (1/sqrt(n))^2 * n
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        np.testing.assert_allclose(rest, np.zeros((6, 6)), atol=1e-12)

    def test_matches_double_sum(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(0, 1, (8, 8))
        np.testing.assert_allclose(dct2(img), brute_dct2(img), atol=1e-10)

    def test_parseval(self):
        rng = np.random.default_rng(11)
        img = rng.uniform(0, 1, (16, 16))
        assert np.sum(dct2(img) ** 2) == pytest.approx(np.sum(img ** 2), abs=1e-8)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(12)
        img = rng.normal(size=(28, 28))
        np.testing.assert_allclose(idct2(dct2(img)), img, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        A, B = rng.normal(size=(2, 12, 12))
        a, b = 1.7, -0.3
        np.testing.assert_allclose(dct2(a * A + b * B), a * dct2(A) + b * dct2(B),
                                   atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            dct2(np.ones((4, 5)))

    def test_feature_stack_flattening(self):
        rng = np.random.default_rng(14)
        imgs = rng.uniform(0, 1, (3, 28, 28))
        feats = dct_features(imgs)
        assert feats.shape == (3, 784)
        np.testing.assert_allclose(feats[1], dct2(imgs[1]).ravel(), atol=1e-12)

    def test_feature_block_selection(self):
        rng = np.random.default_rng(15)
        imgs = rng.uniform(0, 1, (2, 28, 28))
        feats = dct_features(imgs, keep=8)
        assert feats.shape == (2, 64)
        np.testing.assert_allclose(feats[0], dct2(imgs[0])[:8, :8].ravel(), atol=1e-12)

    def test_bad_block(self):
        with pytest.raises(ValueError, match="keep"):
            dct_features(np.ones((1, 8, 8)), keep=9)

    @settings(deadline=None)
    @given(st.integers(1, 32).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=st.floats(-1, 1))))
    def test_matches_double_sum_and_inverts_at_every_size(self, img):
        coeffs = dct2(img)
        np.testing.assert_allclose(coeffs, brute_dct2(img), rtol=0, atol=1e-10)
        np.testing.assert_allclose(idct2(coeffs), img, rtol=0, atol=1e-10)

    @settings(deadline=None)
    @given(st.integers(1, 32).flatmap(lambda n: st.tuples(
        arrays(np.float64, st.tuples(st.integers(1, 4), st.just(n), st.just(n)),
               elements=st.floats(-1, 1)),
        st.integers(1, n))))
    def test_feature_block_is_the_top_left_of_dct2(self, case):
        stack, keep = case
        feats = dct_features(stack, keep=keep)
        assert feats.shape == (stack.shape[0], keep * keep)
        for row, img in zip(feats, stack):
            np.testing.assert_allclose(row, dct2(img)[:keep, :keep].ravel(),
                                       rtol=0, atol=1e-12)


def test_package_import_loads_no_scipy():
    code = ("import sys, sqnn, sqnn.experiments, sqnn.model_io, sqnn.cli; "
            "print('scipy' in sys.modules)")
    # the child imports the sqnn this process imported, from a checkout
    # (pytest's `pythonpath`) or from an install
    path = [str(Path(sqnn.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def _load_with(tmp_path, name, value):
    """model_io.load of a saved two-moons model whose `name` is `value`."""
    path = tmp_path / "m.json"
    model_io.save(lls_train(gen_two_moons(20), LlsConfig()), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, name: value}))
    return model_io.load(path)


# (what, call(value, tmp_path), name in the message, least value); the
# model file's rule raises ModelFormatError, a ValueError
COUNTS = [
    ("GdConfig.K", lambda v, _: GdConfig(K=v), "K", 1),
    ("GdConfig.max_epochs", lambda v, _: GdConfig(max_epochs=v), "max_epochs", 1),
    ("GdConfig.seed", lambda v, _: GdConfig(seed=v), "seed", 0),
    ("LlsConfig.K", lambda v, _: LlsConfig(K=v), "K", 1),
    ("PolynomialWeightFunction.K", lambda v, _: PolynomialWeightFunction(K=v, p=1), "K", 1),
    ("PolynomialWeightFunction.p", lambda v, _: PolynomialWeightFunction(K=1, p=v), "p", 1),
    ("build_design_matrix.K", lambda v, _: build_design_matrix(np.ones((3, 2)), v), "K", 1),
    ("model file K", lambda v, tmp: _load_with(tmp, "K", v), "field 'K'", 1),
    ("model file p", lambda v, tmp: _load_with(tmp, "p", v), "field 'p'", 1),
    ("kfold_plan.k", lambda v, _: kfold_plan(10, k=v), "k", 2),
    ("kfold_plan.seed", lambda v, _: kfold_plan(10, k=2, seed=v), "seed", 0),
    ("kfold_plan.n", lambda v, _: kfold_plan(v, k=2), "n", 1),
    ("split.fold", lambda v, _: split(gen_two_moons(4), kfold_plan(4, k=2), v), "fold", 0),
    ("dct_features.keep", lambda v, _: dct_features(np.zeros((1, 3, 3)), keep=v), "keep", 1),
    ("filter_pair.dct_block", lambda v, _: filter_pair(
        np.zeros((2, 3, 3), np.uint8), np.array([0, 1]), 0, 1, dct_block=v), "keep", 1),
]


@pytest.mark.parametrize("call, name, least", [c[1:] for c in COUNTS],
                         ids=[c[0] for c in COUNTS])
@pytest.mark.parametrize("kind", ["fraction", "nan", "bool", "below"])
def test_every_count_rejects_a_fraction_nan_bool_or_small_value(tmp_path, call, name,
                                                                 least, kind):
    value = {"fraction": 2.5, "nan": math.nan, "bool": True, "below": least - 1}[kind]
    error = model_io.ModelFormatError if name.startswith("field") else ValueError
    with pytest.raises(error, match=f"^{re.escape(name)} must be an? .*integer.*, got "):
        call(value, tmp_path)


# (what, call(value), name in the message, whether 0 is rejected too)
REALS = [
    ("GdConfig.learning_rate", lambda v: GdConfig(learning_rate=v), "learning_rate", True),
    ("GdConfig.target_loss", lambda v: GdConfig(target_loss=v), "target_loss", False),
    ("GdConfig.init_scale", lambda v: GdConfig(init_scale=v), "init_scale", False),
    ("LlsConfig.rcond", lambda v: LlsConfig(rcond=v), "rcond", False),
    ("lls_solve.rcond", lambda v: lls_solve(np.eye(2), np.ones(2), rcond=v), "rcond", False),
    ("gen_two_moons.noise", lambda v: gen_two_moons(noise=v), "noise", False),
    ("gen_sinc.noise_sigma", lambda v: gen_sinc(noise_sigma=v), "noise_sigma", False),
]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{what}-{value!r}")
    for what, call, name, positive in REALS
    for value in [math.nan, math.inf, -1.0, True, "0.1"] + [0.0] * positive])
def test_every_real_setting_rejects_a_nan_inf_negative_bool_or_text(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be [a-z-]+ and finite, got "):
        call(value)
