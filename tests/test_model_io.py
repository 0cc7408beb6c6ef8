"""Model persistence: round trips, version gating, corruption handling."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sqnn.datasets import Dataset, gen_two_moons
from sqnn.features import NormalizationRecord, PolynomialWeightFunction
from sqnn.model_io import (FORMAT_VERSION, ModelFormatError, UnsupportedFormat,
                           load, save)
from sqnn.training import GdConfig, LlsConfig, TrainedModel, gd_train, lls_train

FINITE = st.floats(-1e3, 1e3)
SPAN = st.floats(0.0, 1e3)


@st.composite
def models(draw):
    """Random models of every kind, with no normalization record, a
    feature-only record, a target-only record or both."""
    kind = draw(st.sampled_from(["gd-full", "gd-reduced", "lls"]))
    K, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def poly():
        flat = draw(arrays(float, 1 + K * p, elements=FINITE))
        return PolynomialWeightFunction.from_flat(flat, K, p)

    beta = poly()
    alpha, gamma = (poly(), poly()) if kind == "gd-full" else (None, None)
    has_features, has_target = draw(st.booleans()), draw(st.booleans())
    lo = hi = t_lo = t_hi = None
    if has_features:
        lo = draw(arrays(float, p, elements=FINITE))
        hi = lo + draw(arrays(float, p, elements=SPAN))
    if has_target:
        t_lo = draw(FINITE)
        t_hi = t_lo + draw(SPAN)
    record = (NormalizationRecord(lo, hi, t_lo, t_hi)
              if has_features or has_target else None)
    config = draw(st.dictionaries(
        st.sampled_from(["K", "lr", "loss", "seed"]),
        st.one_of(st.integers(-5, 5), FINITE, st.text("abc", max_size=3))))
    return TrainedModel(kind=kind, K=K, p=p, beta=beta, alpha=alpha, gamma=gamma,
                        theta=draw(FINITE), omega=draw(FINITE),
                        normalization=record, config=config)


@pytest.fixture
def lls_model():
    return lls_train(gen_two_moons(n=80, noise=0.07, seed=1), LlsConfig(K=3))


@pytest.fixture
def full_model():
    rng = np.random.default_rng(2)
    data = Dataset(inputs=rng.uniform(-1, 1, (15, 2)),
                   targets=rng.uniform(-1, 1, 15))
    model, _ = gd_train(data, GdConfig(max_epochs=5, seed=4), model_shape="full")
    return model


def test_round_trip_predictions_bit_exact(tmp_path, lls_model):
    path = tmp_path / "m.json"
    save(lls_model, path)
    reloaded = load(path)
    rng = np.random.default_rng(3)
    X = rng.uniform(-3, 3, (100, 2))
    np.testing.assert_array_equal(reloaded.predict(X), lls_model.predict(X))
    np.testing.assert_array_equal(reloaded.beta.flat(), lls_model.beta.flat())


def test_round_trip_full_model(tmp_path, full_model):
    path = tmp_path / "m.json"
    save(full_model, path)
    reloaded = load(path)
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, (50, 2))
    np.testing.assert_array_equal(reloaded.predict(X), full_model.predict(X))
    assert reloaded.theta == full_model.theta
    assert reloaded.omega == full_model.omega
    assert reloaded.config == full_model.config


@pytest.mark.parametrize("train", [
    lambda d: gd_train(d, GdConfig(K=np.int64(2), max_epochs=5))[0],
    lambda d: lls_train(d, LlsConfig(K=np.int64(2))),
    lambda d: gd_train(d, GdConfig(learning_rate=np.float32(0.1), max_epochs=5))[0],
    lambda d: lls_train(d, LlsConfig(epsilon=np.float32(1e-7))),
    lambda d: gd_train(d, GdConfig(normalize=np.bool_(True), max_epochs=5))[0],
    lambda d: lls_train(d, LlsConfig(normalize=np.bool_(False))),
    lambda d: TrainedModel(kind="lls", K=np.int64(1), p=np.int64(2),
                           beta=PolynomialWeightFunction(K=1, p=2, c0=0.5)),
], ids=["gd-K-int64", "lls-K-int64", "gd-rate-float32", "lls-epsilon-float32",
        "gd-normalize-bool_", "lls-normalize-bool_", "model-K-p-int64"])
def test_numpy_typed_settings_round_trip(tmp_path, train):
    # the configs and the model keep the plain int, float or bool their rules accept
    data = gen_two_moons(n=60, noise=0.07, seed=5)
    model = train(data)
    save(model, tmp_path / "m.json")
    reloaded = load(tmp_path / "m.json")
    np.testing.assert_array_equal(reloaded.predict(data.inputs), model.predict(data.inputs))
    assert reloaded.config == model.config and type(reloaded.K) is int


def _lls_model(**fields):
    """A hand-built K=1, p=2 lls model with `fields` replaced."""
    return TrainedModel(**{"kind": "lls", "K": 1, "p": 2,
                           "beta": PolynomialWeightFunction(K=1, p=2), **fields})


# Each of these once constructed, and save then wrote a file load refused.
UNSAVEABLE = [
    ("feature-bounds-of-3-on-p-2", lambda: _lls_model(
        normalization=NormalizationRecord(np.zeros(3), np.ones(3))), "'feature_min'"),
    ("feature-max-below-min", lambda: NormalizationRecord(
        np.zeros(2), np.array([1.0, -1.0])), "'feature_max' lies below 'feature_min'"),
    ("feature-min-alone", lambda: NormalizationRecord(np.zeros(2), None), "'feature_max'"),
    ("nan-bound", lambda: NormalizationRecord(
        np.zeros(2), np.array([1.0, np.nan])), "'feature_max' holds a non-finite"),
    ("target-max-below-min", lambda: NormalizationRecord(
        None, None, 2.0, 1.0), "'target_max' lies below 'target_min'"),
    ("nan-theta", lambda: _lls_model(theta=np.nan), "'theta' must be finite"),
    ("config-not-a-dict", lambda: _lls_model(config=[1]), "'config' must be a dict"),
    ("config-not-json", lambda: _lls_model(config={"K": np.int64(1)}), "'config' must hold"),
    ("config-tuple", lambda: _lls_model(config={"pair": (1, 2)}), "'config' must hold"),
    ("config-int-key", lambda: _lls_model(config={1: "a"}), "'config' must hold"),
    ("nan-coefficient", lambda: PolynomialWeightFunction(
        K=1, p=2, c=np.array([[0.5, np.nan]])), "'c' holds a non-finite"),
]


@pytest.mark.parametrize("build, field", [case[1:] for case in UNSAVEABLE],
                         ids=[case[0] for case in UNSAVEABLE])
def test_a_model_save_could_not_load_is_rejected_at_construction(build, field):
    with pytest.raises(ValueError, match=field):
        build()


@settings(max_examples=60, deadline=None)
@given(model=models(), x=arrays(float, (4, 3), elements=st.floats(-2, 2)))
def test_round_trip_is_bit_exact_for_random_models(model, x):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save(model, path)
        reloaded = load(path)
    assert (reloaded.kind, reloaded.K, reloaded.p) == (model.kind, model.K, model.p)
    for name in ("beta", "alpha", "gamma"):
        poly, back = getattr(model, name), getattr(reloaded, name)
        assert (poly is None) == (back is None)
        if poly is not None:
            np.testing.assert_array_equal(back.flat(), poly.flat())
    assert reloaded.theta == model.theta and reloaded.omega == model.omega
    assert reloaded.config == model.config
    record, back = model.normalization, reloaded.normalization
    assert (record is None) == (back is None)
    if record is not None:
        for name in ("feature_min", "feature_max"):
            if getattr(record, name) is None:
                assert getattr(back, name) is None
            else:
                np.testing.assert_array_equal(getattr(back, name), getattr(record, name))
        assert (back.target_min, back.target_max) == (record.target_min, record.target_max)
    inputs = x[:, :model.p]
    np.testing.assert_array_equal(reloaded.predict(inputs), model.predict(inputs))


def test_round_trip_with_target_scaling(tmp_path):
    data = Dataset(inputs=np.array([[0.0], [1.0]]), targets=np.array([-1.0, 1.0]),
                   target_range=(420.0, 495.0))
    model = lls_train(data, LlsConfig(K=1))
    path = tmp_path / "m.json"
    save(model, path)
    reloaded = load(path)
    assert reloaded.normalization.feature_max[0] == 1.0
    assert reloaded.normalization.target_min == 420.0
    assert reloaded.normalization.target_max == 495.0
    # recalibration to the original units survives the round trip
    np.testing.assert_allclose(
        reloaded.normalization.invert_target(reloaded.predict(data.inputs)),
        model.normalization.invert_target(model.predict(data.inputs)))


def test_target_range_without_feature_scaling(tmp_path):
    data = Dataset(inputs=np.array([[0.0], [1.0]]), targets=np.array([-1.0, 1.0]),
                   target_range=(0.0, 10.0))
    model = lls_train(data, LlsConfig(K=1, normalize=False))
    assert model.normalization.feature_min is None
    path = tmp_path / "m.json"
    save(model, path)
    reloaded = load(path)
    assert reloaded.normalization.feature_min is None
    assert reloaded.normalization.target_max == 10.0
    np.testing.assert_array_equal(reloaded.predict(data.inputs),
                                  model.predict(data.inputs))


def test_unknown_version_rejected(tmp_path, lls_model):
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedFormat, match="999"):
        load(path)


def test_truncated_file_rejected(tmp_path, lls_model):
    path = tmp_path / "m.json"
    save(lls_model, path)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(ModelFormatError, match="JSON"):
        load(path)


def test_corrupted_coefficient_names_field(tmp_path, lls_model):
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    doc["coefficients"][2] = "not-a-float"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="coefficients"):
        load(path)


@pytest.mark.parametrize("field, value", [
    ("coefficients", "nan"), ("coefficients", "inf"), ("theta", "-inf"),
    ("feature_max", "-inf"), ("target_min", "nan")])
def test_non_finite_value_names_field(tmp_path, lls_model, field, value):
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    norm = doc["normalization"]
    if field == "coefficients":
        doc[field][1] = value
    elif field == "theta":
        doc[field] = value
    elif field == "feature_max":
        norm[field][0] = value
    else:
        norm.update(target_min=value, target_max="0x1.0p+0")
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=field):
        load(path)


@pytest.mark.parametrize("missing", ["feature_min", "feature_max"])
def test_feature_range_half_missing_rejected(tmp_path, lls_model, missing):
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    doc["normalization"][missing] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="feature_min"):
        load(path)


@pytest.mark.parametrize("field", ["feature_max", "target_max"])
def test_max_below_min_names_field(tmp_path, lls_model, field):
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    norm = doc["normalization"]
    if field == "feature_max":
        norm["feature_max"][1] = float.hex(float.fromhex(norm["feature_min"][1]) - 0.5)
    else:
        norm.update(target_min="0x1.0p+1", target_max="0x1.0p+0")
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"{field}' lies below"):
        load(path)


def test_equal_bounds_stay_legal(tmp_path, lls_model):
    # a constant feature or target has max == min and maps to 0
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    norm = doc["normalization"]
    norm["feature_max"][0] = norm["feature_min"][0]
    norm.update(target_min="0x1.0p+0", target_max="0x1.0p+0")
    path.write_text(json.dumps(doc))
    reloaded = load(path)
    assert reloaded.normalization.feature_max[0] == reloaded.normalization.feature_min[0]
    assert reloaded.normalization.apply_features([[3.0, 0.0]])[0, 0] == 0.0


def test_wrong_coefficient_count_names_field(tmp_path, lls_model):
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    doc["coefficients"] = doc["coefficients"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="coefficients"):
        load(path)


@pytest.mark.parametrize("field", ["K", "p"])
@pytest.mark.parametrize("value", [2.9, 1.0, "2", True, 0, -1, None])
def test_count_that_is_not_a_positive_json_integer_names_field(tmp_path, lls_model,
                                                               field, value):
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"field '{field}' must be a positive integer"):
        load(path)


def test_bad_kind_rejected(tmp_path, lls_model):
    path = tmp_path / "m.json"
    save(lls_model, path)
    doc = json.loads(path.read_text())
    doc["kind"] = "mystery"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="kind"):
        load(path)


def test_save_is_atomic_enough(tmp_path, lls_model):
    # overwriting an existing file never leaves a partial document behind
    path = tmp_path / "m.json"
    save(lls_model, path)
    first = path.read_text()
    save(lls_model, path)
    second = path.read_text()
    assert json.loads(first)["coefficients"] == json.loads(second)["coefficients"]
    assert not list(tmp_path.glob(".model-*"))  # no temp litter


def test_format_version_written(tmp_path, lls_model):
    path = tmp_path / "m.json"
    save(lls_model, path)
    assert json.loads(path.read_text())["format_version"] == FORMAT_VERSION
