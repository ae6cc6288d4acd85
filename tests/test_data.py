import hashlib

import numpy as np
import pytest

from srlssvm import (
    Dataset,
    DataFormatError,
    InvalidInputError,
    KernelSpec,
    SolverConfig,
    inject_label_outliers,
    inject_target_noise,
    make_synthetic_linear,
    make_synthetic_regression,
    normalize_minmax,
    parse_sparse_text,
    split,
    train_lssvm,
)
from srlssvm.data import save_sparse_text


def row_hash(X, rows):
    return hashlib.sha256(np.ascontiguousarray(X[rows]).tobytes()).hexdigest()


# ------------------------------------------------------------ Dataset type

def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        Dataset(np.ones((2, 2)), np.array([0.5, 1.0]), "classification")
    with pytest.raises(InvalidInputError):
        Dataset(np.ones((2, 2)), np.array([np.nan, 1.0]), "regression")
    with pytest.raises(InvalidInputError):
        Dataset(np.ones((0, 2)), np.array([]), "regression")
    with pytest.raises(InvalidInputError):
        Dataset(np.ones((2, 2)), np.array([1.0, -1.0]), "ranking")


# ---------------------------------------------------------------- parsing

def test_parse_basic_format():
    ds = parse_sparse_text(b"+1 1:0.5 3:2\n-1 2:1\n", task="classification")
    assert ds.m == 2 and ds.l == 3
    np.testing.assert_array_equal(ds.features, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(ds.targets, [1.0, -1.0])


def test_parse_empty_file():
    with pytest.raises(InvalidInputError):
        parse_sparse_text(b"", task="classification")


def test_parse_regression_keeps_targets():
    ds = parse_sparse_text(b"2.5 1:1\n-0.5 1:2\n", task="regression")
    np.testing.assert_array_equal(ds.targets, [2.5, -0.5])


def test_parse_label_mapping():
    ds = parse_sparse_text(b"0 1:1\n1 1:2\n", task="classification")
    np.testing.assert_array_equal(ds.targets, [-1.0, 1.0])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DataFormatError, match="line 2"):
        parse_sparse_text(b"+1 1:1\n-1 1:abc\n", task="classification")
    with pytest.raises(DataFormatError, match="ascending"):
        parse_sparse_text(b"+1 2:1 1:1\n-1 1:1\n", task="classification")
    with pytest.raises(DataFormatError):
        parse_sparse_text(b"xyz 1:1\n", task="classification")


@pytest.mark.parametrize("text", [
    b"1 1:inf\n-1 1:0.5\n",
    b"1 1:1e400\n-1 1:0.5\n",
    b"1 1:nan\n-1 1:0.5\n",
    b"nan 1:1\n-1 1:0.5\n",
    b"-inf 1:1\n-1 1:0.5\n",
])
def test_parse_rejects_non_finite_tokens(text):
    with pytest.raises(DataFormatError, match="line 1"):
        parse_sparse_text(text, task="regression")


def test_parse_too_many_labels():
    with pytest.raises(InvalidInputError):
        parse_sparse_text(b"1 1:1\n2 1:1\n3 1:1\n", task="classification")


def test_parse_roundtrip_via_writer(tmp_path):
    ds = make_synthetic_regression(20, seed=0)[0]
    path = tmp_path / "data.txt"
    save_sparse_text(ds, path)
    back = parse_sparse_text(str(path), task="regression")
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.targets, ds.targets)


# ---------------------------------------------------------- normalization

def test_normalize_basic():
    ds = Dataset(np.array([[0.0], [5.0], [10.0]]), np.zeros(3), "regression")
    out, _ = normalize_minmax(ds)
    np.testing.assert_allclose(out.features.ravel(), [-1.0, 0.0, 1.0], atol=1e-15)


def test_normalize_constant_attribute():
    ds = Dataset(np.array([[7.0], [7.0], [7.0]]), np.zeros(3), "regression")
    out, _ = normalize_minmax(ds)
    np.testing.assert_array_equal(out.features, np.zeros((3, 1)))


def test_normalize_heldout_no_clamping():
    train = Dataset(np.array([[0.0], [10.0]]), np.zeros(2), "regression")
    _, spec = normalize_minmax(train)
    held = Dataset(np.array([[12.0]]), np.zeros(1), "regression")
    assert spec.apply(held).features[0, 0] == pytest.approx(1.4, abs=1e-15)


def test_normalize_idempotent():
    ds = make_synthetic_regression(30, seed=1)[0]
    once, _ = normalize_minmax(ds)
    twice, _ = normalize_minmax(once)
    np.testing.assert_allclose(twice.features, once.features, atol=1e-12)


# ------------------------------------------------------------------ split

def test_split_sizes():
    ds = make_synthetic_regression(9, seed=2)[0]
    tr, te = split(ds, 2.0 / 3.0, seed=0)
    assert tr.m == 6 and te.m == 3


def test_split_deterministic_and_exhaustive():
    ds = make_synthetic_regression(30, seed=3)[0]
    tr1, te1 = split(ds, 0.5, seed=7)
    tr2, te2 = split(ds, 0.5, seed=7)
    np.testing.assert_array_equal(tr1.features, tr2.features)
    np.testing.assert_array_equal(te1.features, te2.features)
    combined = np.vstack([tr1.features, te1.features])
    assert combined.shape[0] == ds.m
    assert {tuple(r) for r in combined} == {tuple(r) for r in ds.features}


def test_split_seeds_differ():
    ds = make_synthetic_regression(1000, seed=4)[0]
    tr1, _ = split(ds, 0.5, seed=1)
    tr2, _ = split(ds, 0.5, seed=2)
    assert not np.array_equal(tr1.features, tr2.features)


def test_split_empty_side_rejected():
    ds = make_synthetic_regression(3, seed=5)[0]
    with pytest.raises(InvalidInputError):
        split(ds, 0.01, seed=0)
    with pytest.raises(InvalidInputError):
        split(ds, 1.5, seed=0)


# ------------------------------------------------------- outlier injection

def reference_model(ds):
    model, _ = train_lssvm(ds, KernelSpec("linear"),
                           SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2))
    return model


def test_label_outliers_counts_and_negation():
    train, _ = make_synthetic_linear(60, 10, 0, seed=0)
    ref = reference_model(train)
    out, flipped = inject_label_outliers(train, reference=ref, seed=0)
    assert len(flipped) == 6  # pool 18, flip one third
    np.testing.assert_array_equal(out.targets[flipped], -train.targets[flipped])
    untouched = np.setdiff1d(np.arange(train.m), flipped)
    assert row_hash(out.features, untouched) == row_hash(train.features, untouched)
    np.testing.assert_array_equal(out.targets[untouched], train.targets[untouched])


def test_label_outliers_zero_fraction():
    train, _ = make_synthetic_linear(30, 10, 0, seed=1)
    ref = reference_model(train)
    out, flipped = inject_label_outliers(train, flip_fraction=0.0,
                                         reference=ref, seed=0)
    assert flipped == []
    np.testing.assert_array_equal(out.targets, train.targets)


def test_label_outliers_within_top_ranks():
    train, _ = make_synthetic_linear(1000, 10, 0, seed=2)
    ref = reference_model(train)
    from srlssvm import predict_raw

    out, flipped = inject_label_outliers(train, reference=ref, seed=3)
    assert len(flipped) == 100
    scores = np.abs(predict_raw(ref, train.features))
    top300 = set(np.argsort(-scores, kind="stable")[:300])
    assert set(flipped) <= top300


def test_label_outliers_requires_classification():
    ds = make_synthetic_regression(20, seed=6)[0]
    with pytest.raises(InvalidInputError):
        inject_label_outliers(ds, reference=None, seed=0)


@pytest.mark.parametrize("name, value", [
    ("rate_pool", 1.5), ("rate_pool", -0.1), ("rate_pool", float("nan")),
    ("flip_fraction", 2.0), ("flip_fraction", float("inf")),
])
def test_label_outliers_fractions_must_be_in_unit_interval(name, value):
    train, _ = make_synthetic_linear(30, 10, 0, seed=1)
    with pytest.raises(InvalidInputError, match=f"{name} must be in \\[0, 1\\]"):
        inject_label_outliers(train, reference=reference_model(train), seed=0,
                              **{name: value})


def test_target_noise_counts_and_spread():
    ds = make_synthetic_regression(3000, seed=7, noise=0.0)[0]
    ds = Dataset(ds.features, ds.targets + 2.0, "regression")  # mean ~ 2
    out, idx = inject_target_noise(ds, rate=0.1, seed=0)
    assert len(idx) == 300
    delta = out.targets[idx] - ds.targets[idx]
    d = 0.5 * ds.targets.mean()
    assert abs(delta.std() - d) / d < 0.15
    untouched = np.setdiff1d(np.arange(ds.m), idx)
    np.testing.assert_array_equal(out.targets[untouched], ds.targets[untouched])


def test_target_noise_zero_rate():
    ds = make_synthetic_regression(50, seed=8)[0]
    out, idx = inject_target_noise(ds, rate=0.0, seed=0)
    assert idx == []
    np.testing.assert_array_equal(out.targets, ds.targets)


def test_target_noise_constant_targets():
    ds = Dataset(np.ones((10, 2)), np.full(10, 2.0), "regression")
    out, idx = inject_target_noise(ds, rate=0.5, seed=1)
    # d = half the mean = 1
    assert "noise_scale_fallback" not in out.meta
    assert len(idx) == 5


def test_target_noise_zero_mean_fallback():
    ds = Dataset(np.ones((10, 2)), np.r_[np.ones(5), -np.ones(5)], "regression")
    out, _ = inject_target_noise(ds, rate=0.5, seed=1)
    assert out.meta.get("noise_scale_fallback") is True


@pytest.mark.parametrize("rate", [1.5, -0.2, float("nan"), float("inf")])
def test_target_noise_rate_must_be_in_unit_interval(rate):
    ds = make_synthetic_regression(20, seed=8)[0]
    with pytest.raises(InvalidInputError, match="rate must be in \\[0, 1\\]"):
        inject_target_noise(ds, rate=rate, seed=0)


def test_target_noise_requires_regression():
    ds = make_synthetic_linear(20, 10, 0, seed=9)[0]
    with pytest.raises(InvalidInputError):
        inject_target_noise(ds, seed=0)


# -------------------------------------------------------------- synthetic

def test_synthetic_clean_labels_match_blobs():
    train, _ = make_synthetic_linear(40, 10, 0, seed=0)
    assert train.m == 40
    assert train.meta["outlier_indices"] == []
    # labels equal the generating blob by construction
    assert np.all(train.targets[:20] == 1.0) and np.all(train.targets[20:] == -1.0)


def test_synthetic_deterministic_and_prefix_stable():
    a_train, a_test = make_synthetic_linear(60, 100, 4, seed=5)
    b_train, b_test = make_synthetic_linear(60, 100, 4, seed=5)
    np.testing.assert_array_equal(a_train.features, b_train.features)
    np.testing.assert_array_equal(a_test.features, b_test.features)
    clean_train, clean_test = make_synthetic_linear(60, 100, 0, seed=5)
    np.testing.assert_array_equal(a_train.features[:60], clean_train.features)
    np.testing.assert_array_equal(a_test.features, clean_test.features)
    assert a_train.meta["outlier_indices"] == [60, 61, 62, 63]


def test_synthetic_best_linear_accuracy_in_band():
    # oracle: exhaustive sweep over boundary angle and offset on the test set
    _, test = make_synthetic_linear(60, 100, 0, seed=0)
    best = 0.0
    for theta in np.linspace(0, np.pi, 181):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = test.features @ w
        for c in np.linspace(proj.min(), proj.max(), 201):
            acc = np.mean(np.where(proj - c >= 0, 1.0, -1.0) == test.targets)
            best = max(best, max(acc, 1.0 - acc))
    assert 0.85 <= best <= 0.95

