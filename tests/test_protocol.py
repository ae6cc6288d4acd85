"""End-to-end experiment protocols wiring the full library pipeline."""

import numpy as np

from srlssvm import (
    Dataset,
    KernelSpec,
    SolverConfig,
    evaluate,
    inject_label_outliers,
    inject_target_noise,
    make_synthetic_linear,
    make_synthetic_regression,
    normalize_minmax,
    split,
    train,
    train_lssvm,
)


def test_regression_protocol_end_to_end():
    # normalize -> 2/3 split -> 10% target noise -> robust vs plain
    raw, _ = make_synthetic_regression(600, 0, seed=11, noise=0.05)
    raw = Dataset(raw.features * 3.0 + 1.0, raw.targets + 2.0, "regression")
    norm, spec_norm = normalize_minmax(raw)
    assert norm.features.min() >= -1.0 and norm.features.max() <= 1.0

    train_set, test_set = split(norm, 2.0 / 3.0, seed=0)
    assert train_set.m == 400 and test_set.m == 200

    noisy, idx = inject_target_noise(train_set, rate=0.10, seed=0)
    assert len(idx) == 40

    config = SolverConfig(lambda_m=1e-3, tau=0.5, rank_r=40)
    kernel = KernelSpec("gaussian", 1.0)
    robust, report = train(noisy, kernel, config)
    plain, _ = train_lssvm(noisy, kernel, config)
    assert report.converged

    rmse_robust = evaluate(robust, test_set).rmse
    rmse_plain = evaluate(plain, test_set).rmse
    assert rmse_robust <= rmse_plain
    # clean-data training stays close to the robust noisy-data fit
    clean_fit, _ = train(train_set, kernel, config)
    rmse_clean = evaluate(clean_fit, test_set).rmse
    assert rmse_robust <= rmse_clean * 1.5


def test_classification_protocol_end_to_end():
    # clean reference -> rank by |f| -> flip 1/3 of top 30% -> robust vs plain
    clean, test_set = make_synthetic_linear(300, 200, 0, seed=13)
    kernel = KernelSpec("linear")
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2)

    reference, _ = train_lssvm(clean, kernel, config)
    dirty, flipped = inject_label_outliers(clean, reference=reference, seed=1)
    assert len(flipped) == 30  # net 10% of 300

    robust, report = train(dirty, kernel, config)
    plain, _ = train_lssvm(dirty, kernel, config)
    assert report.converged and report.iterations <= 35

    acc_robust = evaluate(robust, test_set).accuracy
    acc_plain = evaluate(plain, test_set).accuracy
    assert acc_robust >= acc_plain
    assert robust.n_sv == 2

    # the flipped points end up carrying (near) zero effective weight
    state = report.final_state
    saturated = np.abs(state.gamma[flipped] - state.xi[flipped]) < 1e-3
    assert saturated.mean() >= 0.9


def test_normalization_statistics_flow_to_test_split():
    raw, _ = make_synthetic_regression(90, 0, seed=17)
    shifted = Dataset(raw.features + 5.0, raw.targets, "regression")
    train_raw, test_raw = split(shifted, 2.0 / 3.0, seed=2)
    train_norm, norm = normalize_minmax(train_raw)
    test_norm = norm.apply(test_raw)
    # training stats define the map, so held-out values may exceed [-1, 1]
    assert train_norm.features.min() >= -1.0 - 1e-12
    assert train_norm.features.max() <= 1.0 + 1e-12
    back = 0.5 * (test_norm.features + 1.0) * (norm.hi - norm.lo) + norm.lo
    np.testing.assert_allclose(back, test_raw.features, atol=1e-10)


def test_every_public_name_resolves():
    import srlssvm

    missing = [name for name in srlssvm.__all__ if not hasattr(srlssvm, name)]
    assert missing == []
