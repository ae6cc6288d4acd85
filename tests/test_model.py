import json

import numpy as np
import pytest

from srlssvm import (
    Dataset,
    DataFormatError,
    InvalidInputError,
    KernelSpec,
    Model,
    SolverConfig,
    UnsupportedVersionError,
    evaluate,
    load,
    make_synthetic_linear,
    predict_class,
    predict_raw,
    save,
    train,
)
from srlssvm.kernels import gram

from conftest import traced_peak_bytes

LIN = KernelSpec("linear")


def toy_model(task="classification"):
    return Model(landmarks=np.array([[3.0]]), alpha=np.array([2.0]), b=1.0,
                 kernel=LIN, task=task)


def trained_model():
    train_ds, test_ds = make_synthetic_linear(40, 20, 0, seed=0)
    model, _ = train(train_ds, LIN, SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2))
    return model, test_ds


def test_predict_constant_when_alpha_zero():
    m = Model(np.zeros((2, 3)), np.zeros(2), b=0.7, kernel=LIN, task="regression")
    assert predict_raw(m, [1.0, 2.0, 3.0]) == 0.7
    np.testing.assert_array_equal(predict_raw(m, np.ones((4, 3))), np.full(4, 0.7))


def test_predict_single_landmark_linear():
    assert predict_raw(toy_model(), [4.0]) == 2.0 * 12.0 + 1.0


def test_predict_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        predict_raw(toy_model(), [1.0, 2.0])


def test_predict_class_sign_rule():
    m = Model(np.zeros((1, 1)), np.zeros(1), b=0.3, kernel=LIN, task="classification")
    assert predict_class(m, [0.0]) == 1
    m2 = Model(np.zeros((1, 1)), np.zeros(1), b=-0.3, kernel=LIN, task="classification")
    assert predict_class(m2, [0.0]) == -1
    m3 = Model(np.zeros((1, 1)), np.zeros(1), b=0.0, kernel=LIN, task="classification")
    assert predict_class(m3, [0.0]) == 1  # tie goes to +1


def test_predict_class_requires_classification():
    with pytest.raises(InvalidInputError):
        predict_class(toy_model(task="regression"), [1.0])


def test_prediction_linearity_in_alpha():
    model, test_ds = trained_model()
    scaled = Model(model.landmarks, 3.0 * model.alpha, 3.0 * model.b,
                   model.kernel, model.task)
    f = predict_raw(model, test_ds.features)
    np.testing.assert_allclose(predict_raw(scaled, test_ds.features), 3.0 * f,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, r", [(2000, 256), (10000, 64)])
def test_predict_raw_memory_is_o_n_r(n, r):
    # the paper's prediction cost: one (n, r) kernel block, plus O((n + r) l)
    l = 16
    rng = np.random.default_rng(0)
    model = Model(rng.uniform(-1.0, 1.0, (r, l)), rng.standard_normal(r), b=0.0,
                  kernel=KernelSpec("gaussian", 0.1), task="regression")
    X = rng.uniform(-1.0, 1.0, (n, l))
    peak = traced_peak_bytes(lambda: predict_raw(model, X))
    assert peak <= 2 * 8 * n * r + 4 * 8 * (n + r) * l


def gaussian_model(r=24, l=5, seed=0):
    rng = np.random.default_rng(seed)
    return Model(rng.uniform(-1.0, 1.0, (r, l)), rng.standard_normal(r), b=0.25,
                 kernel=KernelSpec("gaussian", 0.7), task="regression")


def served_models(tmp_path):
    """A built, a loaded, a landmark-free and a linear model, by name."""
    built = gaussian_model()
    save(built, tmp_path / "m.json")
    linear, _ = trained_model()
    return {"built": built, "loaded": load(tmp_path / "m.json"),
            "no-landmarks": Model(np.zeros((0, 5)), np.zeros(0), b=-0.5,
                                  kernel=KernelSpec("gaussian", 0.7), task="regression"),
            "linear": linear}


@pytest.mark.parametrize("kind", ["built", "loaded", "no-landmarks", "linear"])
def test_predict_raw_equals_the_uncached_gram_block(tmp_path, kind):
    # the model's prepared landmark side must give the bits gram computes alone
    model = served_models(tmp_path)[kind]
    l = model.landmarks.shape[1]
    rng = np.random.default_rng(3)
    for n in (1, 2, 16, 256):
        X = rng.uniform(-1.5, 1.5, (n, l))
        want = gram(model.kernel, X, model.landmarks) @ model.alpha + model.b
        assert np.array_equal(predict_raw(model, X), want)
    x = X[-1]
    assert predict_raw(model, x) == (gram(model.kernel, x[None, :], model.landmarks)
                                     @ model.alpha + model.b)[0]
    assert np.array_equal(predict_raw(model, model.landmarks),
                          gram(model.kernel, model.landmarks) @ model.alpha + model.b)


def test_prepared_landmarks_are_read_only_and_linear_models_prepare_nothing():
    model = gaussian_model()
    prepared = model.prepared
    for arr in (prepared.rows, prepared.sq_norms, prepared.shift):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    np.testing.assert_array_equal(prepared.shift, model.landmarks[0])
    assert not np.shares_memory(prepared.shift, model.landmarks)
    model.landmarks[0, 0] += 1.0  # the caller's rows stay writable
    assert toy_model().prepared is None


def test_repr_and_equality_ignore_the_prepared_landmarks():
    a = gaussian_model()
    b = Model(a.landmarks, a.alpha, a.b, a.kernel, a.task)
    assert a.prepared is not b.prepared
    assert a == b
    assert repr(a) == repr(b) and "prepared" not in repr(a)


def test_evaluate_perfect_predictions():
    m = toy_model()
    ds = Dataset(np.array([[1.0], [-1.0]]),
                 np.array([1.0, -1.0]), "classification")
    report = evaluate(m, ds)  # f = 6x + 1 classifies both correctly
    assert report.accuracy == 1.0 and report.rmse is None
    assert report.n_sv == 1


def test_evaluate_constant_model_rmse_is_population_std():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(50)
    ds = Dataset(rng.standard_normal((50, 2)), y, "regression")
    m = Model(np.zeros((1, 2)), np.zeros(1), b=float(y.mean()), kernel=LIN,
              task="regression")
    report = evaluate(m, ds)
    assert report.rmse == pytest.approx(float(y.std()), abs=1e-10)


def test_evaluate_task_mismatch():
    ds = Dataset(np.ones((2, 1)), np.array([0.5, 1.5]), "regression")
    with pytest.raises(InvalidInputError):
        evaluate(toy_model("classification"), ds)


def test_evaluate_empty_rejected_at_construction():
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((0, 1)), np.array([]), "classification")


def test_save_load_roundtrip_bit_exact(tmp_path):
    model, test_ds = trained_model()
    path = tmp_path / "model.json"
    save(model, path)
    back = load(path)
    assert np.array_equal(back.landmarks, model.landmarks)
    assert np.array_equal(back.alpha, model.alpha)
    assert back.b == model.b and back.kernel == model.kernel
    f0 = predict_raw(model, test_ds.features)
    f1 = predict_raw(back, test_ds.features)
    assert np.array_equal(f0, f1)


def test_save_deterministic_bytes(tmp_path):
    model, _ = trained_model()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(model, p1)
    save(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_truncated_file(tmp_path):
    model, _ = trained_model()
    path = tmp_path / "model.json"
    save(model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataFormatError):
        load(path)


def test_load_reports_byte_offset(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "srlssvm-model", !!!}')
    with pytest.raises(DataFormatError, match="byte offset"):
        load(path)


def test_load_version_mismatch(tmp_path):
    model, _ = trained_model()
    path = tmp_path / "model.json"
    save(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersionError):
        load(path)


def test_load_wrong_payload_length(tmp_path):
    model, _ = trained_model()
    path = tmp_path / "model.json"
    save(model, path)
    doc = json.loads(path.read_text())
    doc["alpha"] = doc["alpha"][:8]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError):
        load(path)


@pytest.mark.parametrize("field, value, named", [
    ("r", "abc", "'r'"),
    ("r", None, "'r'"),
    ("b", "x", "'b'"),
    ("b", float("nan"), "finite"),
    ("kernel", 5, "'kernel'"),
    ("kernel", {"family": "gaussian", "sigma": None}, "'kernel'"),
    ("task", "foo", "task"),
])
def test_load_damaged_field_is_named_parse_error(tmp_path, field, value, named):
    model, _ = trained_model()
    path = tmp_path / "model.json"
    save(model, path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=named):
        load(path)


def test_load_missing_field_is_named(tmp_path):
    model, _ = trained_model()
    path = tmp_path / "model.json"
    save(model, path)
    doc = json.loads(path.read_text())
    del doc["alpha"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="missing field 'alpha'"):
        load(path)


def test_n_sv_counts_above_tolerance():
    m = Model(np.zeros((3, 1)), np.array([1e-13, -0.5, 2.0]), b=0.0,
              kernel=LIN, task="regression")
    assert m.n_sv == 2
