import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from srlssvm import (
    AnnealSchedule,
    Dataset,
    InvalidInputError,
    KernelSpec,
    LossParams,
    NumericalError,
    SolverConfig,
    cccp_step,
    evaluate,
    make_synthetic_linear,
    make_synthetic_regression,
    pivoted_cholesky,
    precompute,
    predict_raw,
    train,
    train_lssvm,
)
from srlssvm import _blas, solver
from srlssvm.lowrank import LowRankFactor

from conftest import random_dataset, traced_peak_bytes
from oracles import cccp_step_direct, dense_reference_train, objective

LIN = KernelSpec("linear")
GAUSS = KernelSpec("gaussian", 1.0)


def make_factor(m, r, seed, spec=GAUSS, l=2):
    ds = random_dataset(m, l, seed)
    return ds, pivoted_cholesky(ds, spec, r)


def separable_blobs(m=60, seed=0):
    rng = np.random.default_rng(seed)
    half = m // 2
    X = np.vstack([2.5 + 0.4 * rng.standard_normal((half, 2)),
                   -2.5 + 0.4 * rng.standard_normal((m - half, 2))])
    y = np.concatenate([np.ones(half), -np.ones(m - half)])
    return Dataset(X, y, "classification")


# ------------------------------------------------------------- precompute

def j_from_cholesky(pre):
    """J = L L^T from the lower Cholesky factor precompute keeps."""
    L = np.tril(pre.J_cho[0])
    return L @ L.T


def test_precompute_constant_column_factor():
    # P = e: centering annihilates it, leaving J = m*lambda and upsilon_LS = 0
    m, lam = 6, 0.5
    factor = LowRankFactor(P=np.ones((m, 1)), B=(0,), residual_trace=0.0,
                           trace_history=())
    pre = precompute(factor, np.arange(m, dtype=float), lam)
    assert j_from_cholesky(pre) == pytest.approx(np.array([[lam]]), abs=1e-12)
    assert pre.upsilon_LS == pytest.approx(np.zeros(1), abs=1e-12)


def test_precompute_warm_start_matches_dense_lssvm_oracle():
    # full-rank linear-kernel problem: primal warm start == dense solve
    ds = random_dataset(5, 2, seed=0, task="regression")
    m = ds.m
    config = SolverConfig(lambda_m=0.3, tau=10.0, rank_r=m)
    model, _ = train_lssvm(ds, LIN, config)

    K = ds.features @ ds.features.T
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = config.lambda_m * np.eye(m) + K
    A[:m, m] = 1.0
    A[m, :m] = 1.0
    sol = np.linalg.solve(A, np.concatenate([ds.targets, [0.0]]))
    beta, b = sol[:m], sol[m]

    Xq = np.random.default_rng(1).uniform(-1, 1, (20, 2))
    dense_pred = (Xq @ ds.features.T) @ beta + b
    np.testing.assert_allclose(predict_raw(model, Xq), dense_pred, atol=1e-8)


def test_precompute_j_minus_lambda_identity_is_psd():
    for seed in range(3):
        _, factor = make_factor(30, 10, seed)
        lam = 10.0 ** (-seed)
        pre = precompute(factor, np.zeros(30), lam)
        # oracle: eigendecomposition of the centered Gram matrix
        centered = j_from_cholesky(pre) - lam * np.eye(factor.r)
        assert np.linalg.eigvalsh(centered).min() >= -1e-8


def test_shared_moments_keep_precompute_bit_for_bit(monkeypatch):
    # train_many forms P^T P, P^T e and P^T y once per factor and hands
    # them to precompute for each lambda_m; J and the warm start must come
    # out as if precompute had formed everything from P itself
    ds, factor = make_factor(200, 24, seed=14, l=3)
    seen = []
    real = solver.precompute

    def recording(fac, y, lambda_m, shared=None):
        seen.append((shared, real(fac, y, lambda_m, shared)))
        return seen[-1][1]
    monkeypatch.setattr(solver, "precompute", recording)
    solver.train_many(ds, GAUSS, [SolverConfig(lambda_m=lam, tau=0.5, rank_r=24)
                                  for lam in (1e-2, 1e-1, 1e-2, 1.0)])
    assert [shared is None for shared, _ in seen] == [True, False, False]
    assert all(shared is seen[0][1].moments for shared, _ in seen[1:])

    P, m, y = factor.P, factor.m, ds.targets
    P_hat = P.sum(axis=0)
    shared = precompute(factor, y, 1e-3).moments
    for lam in (1e-4, 1e-2, 1.0, 10.0):
        J_cho = cho_factor(lam * np.eye(factor.r) + P.T @ P - np.outer(P_hat, P_hat) / m,
                           lower=True)
        for pre in (precompute(factor, y, lam, shared), precompute(factor, y, lam)):
            assert np.array_equal(pre.J_cho[0], J_cho[0])
            assert np.array_equal(pre.P_hat, P_hat)
            assert np.array_equal(pre.upsilon_LS,
                                  cho_solve(J_cho, P.T @ y - (y.sum() / m) * P_hat))


def test_precompute_singular_j_raises():
    # nearly dependent columns and vanishing regularization
    P = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9], [2.0, 2.0]])
    factor = LowRankFactor(P=P, B=(0, 1), residual_trace=0.0, trace_history=())
    with pytest.raises(NumericalError, match="lambda"):
        precompute(factor, np.zeros(3), 1e-18)


def test_precompute_validates_inputs():
    _, factor = make_factor(10, 3, seed=0)
    with pytest.raises(InvalidInputError):
        precompute(factor, np.zeros(10), 0.0)
    with pytest.raises(InvalidInputError):
        precompute(factor, np.zeros(9), 1.0)
    with pytest.raises(InvalidInputError, match="finite"):
        precompute(factor, np.zeros(10), math.inf)


@pytest.mark.parametrize("name, value", [
    ("lambda_m", math.inf), ("lambda_m", math.nan), ("tau", math.inf), ("p", math.inf),
    ("epsilon", math.inf), ("epsilon", math.nan),
])
def test_config_requires_finite_values(name, value):
    kwargs = {"lambda_m": 1e-2, "tau": 1.5, "rank_r": 2, name: value}
    with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("name, value", [
    ("rank_r", 2.5), ("rank_r", True), ("rank_r", "3"),
    ("max_iter", 2.5), ("max_iter", math.inf), ("max_iter", True),
])
def test_config_requires_positive_integer_counts(name, value):
    kwargs = {"lambda_m": 1e-2, "tau": 1.5, "rank_r": 2, name: value}
    with pytest.raises(InvalidInputError, match=f"{name} must be a positive integer"):
        SolverConfig(**kwargs)


# -------------------------------------------------------------- cccp_step

def test_step_at_zero_gamma_is_warm_start_exactly():
    ds, factor = make_factor(25, 8, seed=1)
    pre = precompute(factor, ds.targets, 1e-2)
    step = cccp_step(pre, np.zeros(25))
    assert np.array_equal(step.upsilon, pre.upsilon_LS)
    assert step.support_size == 0


def test_fast_and_direct_paths_agree():
    rng = np.random.default_rng(2)
    for seed in range(10):
        m = int(rng.integers(10, 200))
        r = int(rng.integers(1, min(m, 20)))
        ds, factor = make_factor(m, r, seed=seed)
        pre = precompute(factor, ds.targets, 10.0 ** rng.uniform(-3, 0))
        g = np.where(rng.uniform(size=m) < 0.3, rng.standard_normal(m), 0.0)
        fast = cccp_step(pre, g)
        direct = cccp_step_direct(pre, g)
        assert np.abs(fast.upsilon - direct.upsilon).max() <= 1e-10
        assert abs(fast.b - direct.b) <= 1e-10
        assert np.abs(fast.xi - direct.xi).max() <= 1e-10


def test_step_solve_matches_cho_solve_bit_for_bit():
    # cccp_step and precompute call LAPACK potrs directly; scipy's cho_solve
    # runs the same routine behind its input checks
    rng = np.random.default_rng(7)
    for seed in range(6):
        for r in (1, 5, 32, 64):
            m = int(rng.integers(r + 40, 400))
            ds, factor = make_factor(m, r, seed=seed, l=3)
            pre = precompute(factor, ds.targets, 10.0 ** rng.uniform(-4, 0))
            P = factor.P
            assert np.array_equal(pre.upsilon_LS, cho_solve(
                pre.J_cho, P.T @ ds.targets - (ds.targets.sum() / m) * pre.P_hat))
            g = np.where(rng.uniform(size=m) < 0.2, rng.standard_normal(m), 0.0)
            S = np.flatnonzero(g)
            q = P[S].T @ g[S] - (g.sum() / m) * pre.P_hat
            step = cccp_step(pre, g)
            assert np.array_equal(step.upsilon, pre.upsilon_LS - cho_solve(pre.J_cho, q))


def test_step_solve_failure_is_numerical_error(monkeypatch):
    ds, factor = make_factor(20, 4, seed=0)
    pre = precompute(factor, ds.targets, 1e-2)
    monkeypatch.setattr(solver, "_potrs", lambda c, b, lower: (b, -2))
    with pytest.raises(NumericalError, match="potrs"):
        cccp_step(pre, np.zeros(20))


def test_step_matches_dense_system_oracle():
    # handcrafted m=4 instance solved by direct dense assembly
    ds, factor = make_factor(4, 2, seed=3, spec=LIN)
    m, r = 4, factor.r
    y = np.array([1.0, -2.0, 0.5, 3.0])
    g = np.array([0.0, 0.3, 0.0, -1.1])
    lam = 0.05
    pre = precompute(factor, y, lam)
    step = cccp_step(pre, g)

    P = factor.P
    e = np.ones(m)
    J_o = lam * np.eye(r) + P.T @ P - np.outer(P.T @ e, P.T @ e) / m
    c = y - g
    rhs = P.T @ (c - c.mean() * e)
    ups = np.linalg.solve(J_o, rhs)
    b = (c.sum() - (P.T @ e) @ ups) / m
    assert np.abs(step.upsilon - ups).max() <= 1e-10
    assert abs(step.b - b) <= 1e-10
    np.testing.assert_allclose(step.xi, y - P @ ups - b, atol=1e-10)


def test_step_validates_gamma_length():
    ds, factor = make_factor(10, 3, seed=5)
    pre = precompute(factor, ds.targets, 1.0)
    with pytest.raises(InvalidInputError):
        cccp_step(pre, np.zeros(9))


# ------------------------------------------------------------------ train

def test_train_clean_separable_equals_warm_start():
    ds = separable_blobs(60, seed=0)
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2)
    model, report = train(ds, LIN, config)
    baseline, _ = train_lssvm(ds, LIN, config)
    assert report.converged and report.iterations <= 10
    # no residual exceeds tau, so gamma stays ~0 and the warm start is a fixed point
    assert np.abs(report.final_state.xi).max() < 1.5
    np.testing.assert_allclose(model.alpha, baseline.alpha, atol=1e-12)
    assert model.b == pytest.approx(baseline.b, abs=1e-12)


def test_train_first_iterate_is_warm_start_same_path():
    ds, _ = make_factor(40, 5, seed=6)
    config = SolverConfig(lambda_m=1e-1, tau=0.5, rank_r=5, max_iter=1)
    model1, report = train(ds, GAUSS, config)
    baseline, _ = train_lssvm(ds, GAUSS, config)
    assert np.array_equal(model1.alpha, baseline.alpha)
    assert model1.b == baseline.b


@pytest.mark.parametrize("seed", range(10))
def test_model_reproduces_final_iterate_at_ill_conditioned_j(seed):
    # lambda_m = 1e-10 puts J's condition estimate near 1e10, inside the
    # COND_LIMIT that precompute accepts; the model must still predict its
    # training rows at the residuals the loop converged on
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (1000, 2))
    y = np.sin(3.0 * X[:, 0]) + 0.05 * rng.standard_normal(1000)
    y[:100] += 3.0
    ds = Dataset(X, y, "regression")
    config = SolverConfig(lambda_m=1e-10, tau=0.5, rank_r=150)
    model, report = train(ds, GAUSS, config)
    gap = predict_raw(model, X) - (y - report.final_state.xi)
    assert np.abs(gap).max() <= 1e-5


def test_zero_kernel_is_numerical_error():
    ds = Dataset(np.zeros((10, 2)), np.where(np.arange(10) % 2 == 0, 1.0, -1.0),
                 "classification")
    with pytest.raises(NumericalError, match="zero kernel"):
        train(ds, LIN, SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2))


def test_train_outlier_run_downweights_planted_points():
    train_ds, test_ds = make_synthetic_linear(60, 100, 4, seed=0)
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2)
    model, report = train(train_ds, LIN, config)
    baseline, _ = train_lssvm(train_ds, LIN, config)
    out = train_ds.meta["outlier_indices"]
    state = report.final_state
    assert np.abs(state.gamma[out] - state.xi[out]).max() < 1e-3
    acc_robust = evaluate(model, test_ds).accuracy
    acc_plain = evaluate(baseline, test_ds).accuracy
    assert acc_robust >= acc_plain
    assert model.n_sv == 2


def test_train_sparsity_structure():
    ds, _ = make_factor(50, 6, seed=7)
    config = SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=6)
    model, report = train(ds, GAUSS, config)
    assert model.alpha.shape == (report.rank,)
    assert report.rank <= 6


def test_train_full_rank_matches_dense_reference():
    ds, _ = make_factor(30, 30, seed=8)
    noisy = Dataset(ds.features, ds.targets +
                    np.where(np.arange(30) % 10 == 0, 2.0, 0.0), "regression")
    config = SolverConfig(lambda_m=1e-2, tau=0.4, rank_r=30)
    model, report = train(noisy, GAUSS, config)
    dense_model, dense_report = dense_reference_train(noisy, GAUSS, config)
    assert report.converged and dense_report.converged
    Xq = np.random.default_rng(3).uniform(-1, 1, (50, 2))
    np.testing.assert_allclose(predict_raw(model, Xq),
                               predict_raw(dense_model, Xq), atol=1e-6)


def test_train_validates_rank():
    ds, _ = make_factor(10, 2, seed=9)
    with pytest.raises(InvalidInputError):
        train(ds, GAUSS, SolverConfig(lambda_m=1.0, tau=1.0, rank_r=11))


def test_train_nonconvergence_is_flagged_not_raised():
    ds, _ = make_factor(40, 10, seed=10)
    config = SolverConfig(lambda_m=1e-3, tau=0.2, rank_r=10,
                          epsilon=1e-14, max_iter=3)
    model, report = train(ds, GAUSS, config)
    assert not report.converged
    assert report.iterations == 3
    assert np.isfinite(model.alpha).all()


def test_train_deterministic():
    ds, _ = make_factor(40, 8, seed=11)
    config = SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=8)
    m1, r1 = train(ds, GAUSS, config)
    m2, r2 = train(ds, GAUSS, config)
    assert np.array_equal(m1.alpha, m2.alpha) and m1.b == m2.b
    assert r1.gamma_change == r2.gamma_change


def test_train_many_matches_one_train_per_config(monkeypatch):
    train_ds, _ = make_synthetic_linear(80, 10, 4, seed=3)
    schedule = AnnealSchedule(delta=0.8, tau_min=0.5)
    configs = [SolverConfig(lambda_m=ml, tau=tau, rank_r=6)
               for ml in (1e-2, 1e-1) for tau in (0.5, 1.5)]
    configs.append(SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=6, anneal=schedule))
    singles = [train(train_ds, GAUSS, config) for config in configs]

    calls = {"pivoted_cholesky": 0, "precompute": 0}
    for name in calls:
        real = getattr(solver, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(solver, name, counting)
    t0 = time.perf_counter()
    fits = solver.train_many(train_ds, GAUSS, configs)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert calls == {"pivoted_cholesky": 1, "precompute": 2}
    # each report times its own share of the call, so together they cover it
    assert 0 < sum(report.wall_time_ms for _, report in fits) <= elapsed_ms

    assert len(fits) == len(configs)
    for (model, report), (single, single_report) in zip(fits, singles):
        assert model.alpha.tobytes() == single.alpha.tobytes()
        assert model.b == single.b
        assert model.landmarks.tobytes() == single.landmarks.tobytes()
        got, want = report.as_dict(), single_report.as_dict()
        del got["timing"], want["timing"]
        assert got == want
    assert fits[-1][1].tau_schedule is not None  # the annealed config did anneal
    landmarks = [model.landmarks for model, _ in fits]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(landmarks)
                   for b in landmarks[i + 1:])


@pytest.mark.parametrize("ranks", [(), (4, 5)], ids=["empty", "mixed-rank"])
def test_train_many_rejects_bad_config_lists(ranks):
    ds, _ = make_factor(20, 5, seed=9)
    configs = [SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=r) for r in ranks]
    with pytest.raises(InvalidInputError, match="train_many"):
        solver.train_many(ds, GAUSS, configs)


@pytest.mark.parametrize("m, r", [(4000, 64), (10000, 128)])
def test_train_memory_is_o_m_r(m, r):
    # the factor P is 8 m r bytes and each CCCP step gathers the rows of P on
    # the support S, at most m of them; kernel columns add O(m l)
    l = 16
    ds, _ = make_synthetic_regression(m, n_features=l, seed=0)
    rng = np.random.default_rng(0)
    y = ds.targets.copy()
    idx = rng.choice(m, m // 10, replace=False)
    y[idx] += rng.normal(0.0, 3.0, idx.size)
    ds = Dataset(ds.features, y, ds.task)
    config = SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=r)
    peak = traced_peak_bytes(lambda: train(ds, KernelSpec("gaussian", 0.5), config))
    assert peak <= 2 * 8 * m * r + 4 * 8 * m * l


# ------------------------------------------------------------ BLAS threads

def _blas_threads():
    return [get() for get, _ in _blas.libraries()]


@pytest.mark.skipif(not _blas.libraries(),
                    reason="no loaded OpenBLAS with a thread-count setter")
def test_training_runs_blas_on_one_thread_and_restores_callers_count(monkeypatch):
    original = _blas_threads()
    seen = []
    real_precompute = solver.precompute

    def recording_precompute(*args, **kwargs):
        seen.append(_blas_threads())
        return real_precompute(*args, **kwargs)

    monkeypatch.setattr(solver, "precompute", recording_precompute)
    ds, _ = make_factor(80, 8, seed=13)
    config = SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=8)
    annealed = SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=8,
                            anneal=AnnealSchedule(delta=0.5, tau_min=0.1))
    too_wide = SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=81)
    caller = [2] * len(original)  # a threaded caller, so the limit shows
    old_interval = sys.getswitchinterval()
    try:
        for (_, set_threads), count in zip(_blas.libraries(), caller):
            set_threads(count)
        for trainer, cfg in ((train, config), (train, annealed),
                             (train_lssvm, config)):
            trainer(ds, GAUSS, cfg)
            assert _blas_threads() == caller
        with pytest.raises(InvalidInputError):
            train(ds, GAUSS, too_wide)
        assert _blas_threads() == caller

        # overlapping fits that finish out of order: the limit holds until
        # the last one leaves, which restores the caller's count
        first, second = _blas.one_blas_thread(), _blas.one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert _blas_threads() == [1] * len(original)
        second.__exit__(None, None, None)
        assert _blas_threads() == caller

        sys.setswitchinterval(1e-5)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(train, ds, GAUSS, config) for _ in range(6)]
            for future in futures:
                future.result(timeout=60)
        assert _blas_threads() == caller
    finally:
        sys.setswitchinterval(old_interval)
        for (_, set_threads), count in zip(_blas.libraries(), original):
            set_threads(count)
    assert len(seen) == 9
    assert all(threads == [1] * len(original) for threads in seen)


# --------------------------------------------------------------- annealing

def test_annealed_with_high_floor_matches_plain_train():
    train_ds, _ = make_synthetic_linear(60, 10, 4, seed=1)
    tau_min = 50.0  # above any warm-start residual: no annealing can occur
    cfg_a = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2,
                         anneal=AnnealSchedule(delta=0.9, tau_min=tau_min))
    cfg_p = SolverConfig(lambda_m=1e-2, tau=tau_min, rank_r=2)
    model_a, report_a = train(train_ds, LIN, cfg_a)
    model_p, report_p = train(train_ds, LIN, cfg_p)
    assert report_a.gamma_change == report_p.gamma_change
    assert np.array_equal(model_a.alpha, model_p.alpha)
    assert report_a.tau_schedule == [tau_min] * report_a.iterations


def test_annealed_reaches_floor_and_terminates():
    train_ds, _ = make_synthetic_linear(60, 10, 4, seed=2)
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2,
                          anneal=AnnealSchedule(delta=0.9, tau_min=0.5))
    model, report = train(train_ds, LIN, config)
    assert report.converged
    assert report.tau_schedule[-1] == pytest.approx(0.5)
    assert report.tau_schedule[0] >= 0.5


def test_annealed_schedules_recorded_for_both_deltas():
    train_ds, _ = make_synthetic_linear(60, 10, 4, seed=3)
    for delta in (0.5, 0.9):
        config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2,
                              anneal=AnnealSchedule(delta=delta, tau_min=0.5))
        _, report = train(train_ds, LIN, config)
        assert report.converged
        taus = report.tau_schedule
        assert all(b <= a for a, b in zip(taus, taus[1:]))


def test_train_honours_anneal_schedule():
    train_ds, _ = make_synthetic_linear(60, 10, 4, seed=2)
    schedule = AnnealSchedule(delta=0.9, tau_min=0.5)
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2, anneal=schedule)
    _, report = train(train_ds, LIN, config)
    _, warm = train_lssvm(train_ds, LIN, config)
    tau0 = max(schedule.delta * float(np.abs(warm.final_state.xi).max()), schedule.tau_min)
    assert tau0 > schedule.tau_min  # the schedule has room to anneal
    assert report.tau_schedule[0] == tau0
    assert report.tau_schedule[-1] == schedule.tau_min
    assert report.converged


def test_train_lssvm_ignores_anneal_schedule():
    ds, _ = make_factor(40, 5, seed=6)
    plain = SolverConfig(lambda_m=1e-1, tau=0.5, rank_r=5)
    annealed = SolverConfig(lambda_m=1e-1, tau=0.5, rank_r=5,
                            anneal=AnnealSchedule(delta=0.5, tau_min=0.1))
    model_p, report_p = train_lssvm(ds, GAUSS, plain)
    model_a, report_a = train_lssvm(ds, GAUSS, annealed)
    assert np.array_equal(model_a.alpha, model_p.alpha)
    assert model_a.b == model_p.b
    assert report_a.as_dict()["objective"] == report_p.as_dict()["objective"]
    assert report_a.tau_schedule is None


@pytest.mark.parametrize("trainer, anneal", [
    (train, None),
    (train, AnnealSchedule(delta=0.9, tau_min=0.5)),
    (train_lssvm, AnnealSchedule(delta=0.9, tau_min=0.5)),
])
def test_one_cccp_step_per_iteration(monkeypatch, trainer, anneal):
    # the warm start is the first iterate, not a step computed twice
    calls = []
    real_step = solver.cccp_step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver, "cccp_step", counting_step)
    train_ds, _ = make_synthetic_linear(60, 10, 4, seed=2)
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2, anneal=anneal)
    _, report = trainer(train_ds, LIN, config)
    assert len(calls) == report.iterations


# --------------------------------------------------------------- objective

def test_objective_zero_model_zero_targets():
    ds = Dataset(np.ones((4, 2)), np.zeros(4), "regression")
    from srlssvm import Model

    model = Model(np.zeros((2, 2)), np.zeros(2), 0.0, LIN, "regression")
    config = SolverConfig(lambda_m=1.0, tau=1.0, rank_r=2)
    assert objective(model, ds, config) == 0.0


def test_objective_plateau_for_large_targets():
    tau, p = 0.5, 1e4
    ds = Dataset(np.ones((5, 2)), np.full(5, 3.0), "regression")
    from srlssvm import Model

    model = Model(np.zeros((2, 2)), np.zeros(2), 0.0, LIN, "regression")
    config = SolverConfig(lambda_m=1.0, tau=tau, rank_r=2, p=p)
    assert objective(model, ds, config) == pytest.approx(
        tau * tau / 2, abs=math.log(2) / p)


def test_objective_nonincreasing_along_training():
    train_ds, _ = make_synthetic_linear(60, 10, 4, seed=4)
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2, p=1e4)
    _, report = train(train_ds, LIN, config)
    slack = 2 * math.log(2) / config.p + 1e-9
    obj = report.objective
    assert all(b <= a + slack for a, b in zip(obj, obj[1:]))


def test_objective_state_and_model_agree():
    ds, _ = make_factor(30, 30, seed=14)
    config = SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=30)
    model, report = train(ds, GAUSS, config)
    from_state = objective(report.final_state, ds, config)
    from_model = objective(model, ds, config)
    assert from_model == pytest.approx(from_state, abs=1e-8)


# -------------------------------------------- re-weighted LSSVM consistency

def test_fixed_point_matches_weighted_lssvm():
    train_ds, _ = make_synthetic_linear(60, 10, 4, seed=5)
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2, epsilon=1e-6)
    model, report = train(train_ds, LIN, config)
    state = report.final_state
    xi = state.xi
    clear = np.abs(np.abs(xi) - config.tau) > 0.01
    assert clear.all()  # residuals stay away from the threshold on this data

    # independent oracle: weighted LSSVM on the same factor, hard weights
    factor = pivoted_cholesky(train_ds, LIN, config.rank_r)
    P = factor.P
    m, r = P.shape
    w = np.where(np.abs(xi) <= config.tau, 1.0, 0.0)
    W = np.diag(w)
    A = np.zeros((r + 1, r + 1))
    A[:r, :r] = config.lambda_m * np.eye(r) + P.T @ W @ P
    A[:r, r] = P.T @ w
    A[r, :r] = w @ P
    A[r, r] = w.sum()
    rhs = np.concatenate([P.T @ (w * train_ds.targets), [w @ train_ds.targets]])
    sol = np.linalg.solve(A, rhs)
    ups_w, b_w = sol[:r], sol[r]
    f_weighted = P @ ups_w + b_w
    f_fixed = predict_raw(model, train_ds.features)
    assert np.abs(f_weighted[clear] - f_fixed[clear]).max() < 1e-3


# --------------------------------------------------------- dense reference

def test_dense_reference_classical_lssvm_residual():
    ds = random_dataset(20, 2, seed=15)
    config = SolverConfig(lambda_m=0.5, tau=100.0, rank_r=20)  # tau never binds
    model, report = dense_reference_train(ds, GAUSS, config)
    assert report.iterations == 1 and report.converged
    K = np.array([[float(np.exp(-((a - b) ** 2).sum())) for b in ds.features]
                  for a in ds.features])
    resid_top = (config.lambda_m * np.eye(20) + K) @ model.alpha + model.b - ds.targets
    assert np.abs(resid_top).max() <= 1e-8
    assert abs(model.alpha.sum()) <= 1e-8


def test_dense_reference_guards_large_m():
    ds = random_dataset(501, 2, seed=16)
    with pytest.raises(InvalidInputError):
        dense_reference_train(ds, GAUSS, SolverConfig(lambda_m=1.0, tau=1.0,
                                                      rank_r=10))


# ----------------------------------------------------------------- report

def test_report_serializes_to_json():
    ds, _ = make_factor(30, 5, seed=17)
    config = SolverConfig(lambda_m=1e-2, tau=0.5, rank_r=5)
    _, report = train(ds, GAUSS, config)
    doc = json.loads(json.dumps(report.as_dict()))
    assert doc["iterations"] == report.iterations
    assert len(doc["gamma_change"]) == report.iterations
    assert len(doc["objective"]) == report.iterations
    assert len(doc["support_sizes"]) == report.iterations
    assert "wall_time_ms" in doc["timing"]
