"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

import srlssvm.cli as cli
from srlssvm import (
    Dataset,
    KernelSpec,
    LossParams,
    SolverConfig,
    cccp_step,
    evaluate,
    gamma,
    inject_target_noise,
    make_synthetic_linear,
    make_synthetic_regression,
    pivoted_cholesky,
    precompute,
    predict_raw,
    train,
    train_lssvm,
)
from srlssvm.data import save_sparse_text

from conftest import dense_kernel_oracle, random_dataset
from oracles import cccp_step_direct, dense_reference_train, l2_part, \
    reweighted_identity_check, smoothed_l2, truncated_loss

LIN = KernelSpec("linear")
GAUSS = KernelSpec("gaussian", 1.0)

TAUS = (0.5, 1.2, 2.0)
PS = (10.0, 1e2, 1e4)
EPSILON = 1e-2
DESCENT_SLACK = 2 * math.log(2) / 1e4 + 1e-9


def report_line(n, ok, detail=""):
    print(f"\n[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def grid_for(tau):
    return np.linspace(-10 * tau, 10 * tau, 100_000)


# ----------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def oracle_runs():
    """Criterion 4 runs, reused by criterion 8."""
    runs = []
    for seed in range(10):
        base, _ = make_synthetic_regression(50, 0, seed=100 + seed, noise=0.05)
        shifted = Dataset(base.features, base.targets + 2.0, "regression",
                          base.meta)
        noisy, _ = inject_target_noise(shifted, rate=0.10, seed=seed)
        config = SolverConfig(lambda_m=1e-2, tau=0.4, rank_r=50,
                              epsilon=EPSILON, max_iter=200)
        model_lr, report_lr = train(noisy, GAUSS, config)
        model_d, report_d = dense_reference_train(noisy, GAUSS, config)
        X_query = np.random.default_rng(1000 + seed).uniform(-1, 1, (200, 3))
        diff = np.abs(predict_raw(model_lr, X_query) - predict_raw(model_d, X_query)).max()
        runs.append({"diff": float(diff), "report_lr": report_lr,
                     "report_dense": report_d})
    return runs


@pytest.fixture(scope="module")
def fig3_runs():
    """Criterion 6 runs (clean vs outlier, robust vs plain), reused by 7/8."""
    runs = []
    config = SolverConfig(lambda_m=1e-2, tau=1.5, rank_r=2, epsilon=EPSILON,
                          max_iter=200)
    for seed in range(10):
        clean_train, test = make_synthetic_linear(60, 100, 0, seed=seed)
        dirty_train, _ = make_synthetic_linear(60, 100, 4, seed=seed)
        model_clean, report_clean = train(clean_train, LIN, config)
        model_dirty, report_dirty = train(dirty_train, LIN, config)
        baseline_dirty, report_base = train_lssvm(dirty_train, LIN, config)
        runs.append({
            "acc_clean": evaluate(model_clean, test).accuracy,
            "acc_dirty": evaluate(model_dirty, test).accuracy,
            "acc_plain": evaluate(baseline_dirty, test).accuracy,
            "n_sv_clean": model_clean.n_sv,
            "n_sv_dirty": model_dirty.n_sv,
            "outliers": dirty_train.meta["outlier_indices"],
            "report_clean": report_clean,
            "report_dirty": report_dirty,
            "report_base": report_base,
        })
    return runs


# ------------------------------------------------------------- criteria

def test_criterion_1_loss_identities():
    t0 = time.perf_counter()
    max_ulp = 0.0
    lemma_ok = True
    inner_exact = True
    gap_ok = True
    for tau in TAUS:
        xi = grid_for(tau)
        lemma_ok &= reweighted_identity_check(xi, tau)
        lhs = 0.5 * xi * xi - l2_part(xi, tau)
        rhs = truncated_loss(xi, tau)
        inner = np.abs(xi) <= tau
        inner_exact &= bool(np.array_equal(lhs[inner], rhs[inner]))
        err = np.abs(lhs - rhs)
        ulp = np.spacing(0.5 * xi * xi)
        max_ulp = max(max_ulp, float((err / np.maximum(ulp, 1e-300)).max()))
        for p in PS:
            params = LossParams(tau=tau, p=p)
            gap = np.abs(smoothed_l2(xi, params) - l2_part(xi, tau))
            gap_ok &= bool(gap.max() <= math.log(2) / p)
    elapsed = time.perf_counter() - t0
    ok = lemma_ok and inner_exact and max_ulp <= 2.0 and gap_ok and elapsed < 1.0
    report_line(1, ok, f"lemma1 bitwise={lemma_ok}, DC identity <= {max_ulp:.2f} ulp "
                       f"(bitwise on |xi|<=tau), gap<=log2/p={gap_ok}, {elapsed:.2f}s")


def test_criterion_2_gradient_check():
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for tau in TAUS:
        xi = grid_for(tau)
        for p in PS:
            params = LossParams(tau=tau, p=p)
            keep = np.abs(np.abs(xi) - tau) > 10.0 / math.sqrt(p)
            fd = (smoothed_l2(xi[keep] + h, params)
                  - smoothed_l2(xi[keep] - h, params)) / (2 * h)
            worst = max(worst, float(np.abs(gamma(xi[keep], params)[0] - fd).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 1.0
    report_line(2, ok, f"max |grad - central difference| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_factorization_suite():
    t0 = time.perf_counter()
    recon_worst = 0.0
    monotone = True
    lower_bound_ok = True
    rng = np.random.default_rng(42)
    for trial in range(20):
        m = int(rng.integers(20, 101))
        ds = random_dataset(m, int(rng.integers(1, 4)), seed=trial)
        factor = pivoted_cholesky(ds, GAUSS, r=m)
        K = dense_kernel_oracle(GAUSS, ds.features)
        recon_worst = max(recon_worst,
                          float(np.abs(factor.P @ factor.P.T - K).max()))
        hist = np.array(factor.trace_history)
        monotone &= bool(np.all(np.diff(hist) <= 1e-12))
        eigs = np.sort(np.linalg.eigvalsh(K))[::-1]  # descending
        tail = np.concatenate([[eigs.sum()], eigs.sum() - np.cumsum(eigs)])
        for t, resid in enumerate(hist):
            lower_bound_ok &= bool(resid >= tail[t] - 1e-6)
    elapsed = time.perf_counter() - t0
    ok = recon_worst <= 1e-8 and monotone and lower_bound_ok and elapsed < 5.0
    report_line(3, ok, f"max reconstruction error {recon_worst:.2e}, "
                       f"monotone={monotone}, eigen lower bound={lower_bound_ok}, "
                       f"{elapsed:.1f}s")


def test_criterion_4_oracle_equivalence(oracle_runs):
    t0 = time.perf_counter()
    worst = max(run["diff"] for run in oracle_runs)
    elapsed = time.perf_counter() - t0  # fixture time excluded; budget covers suite
    ok = worst <= 1e-6
    report_line(4, ok, f"max prediction gap over 10 datasets = {worst:.2e}")
    assert elapsed < 30.0


def test_criterion_5_warm_start_and_path_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    warm_ok = True
    worst_gap = 0.0
    for trial in range(100):
        m = int(rng.integers(10, 201))
        r = int(rng.integers(1, min(m, 15)))
        ds = random_dataset(m, 2, seed=trial)
        factor = pivoted_cholesky(ds, GAUSS, r=r)
        pre = precompute(factor, ds.targets, 10.0 ** rng.uniform(-3, 0))
        step0 = cccp_step(pre, np.zeros(m))
        warm_ok &= bool(np.array_equal(step0.upsilon, pre.upsilon_LS))
        g = np.where(rng.uniform(size=m) < 0.3, rng.standard_normal(m), 0.0)
        fast = cccp_step(pre, g)
        direct = cccp_step_direct(pre, g)
        worst_gap = max(worst_gap, float(np.abs(fast.upsilon - direct.upsilon).max()),
                        abs(fast.b - direct.b))
    elapsed = time.perf_counter() - t0
    ok = warm_ok and worst_gap <= 1e-10
    report_line(5, ok, f"warm start exact={warm_ok}, max path gap {worst_gap:.2e}, "
                       f"{elapsed:.1f}s")


def test_criterion_6_robustness_reproduction(fig3_runs):
    wins = sum(run["acc_dirty"] >= run["acc_plain"] for run in fig3_runs)
    stable = sum(abs(run["acc_dirty"] - run["acc_clean"]) <= 0.01 + 1e-12
                 for run in fig3_runs)
    sparse_ok = all(run["n_sv_clean"] == 2 and run["n_sv_dirty"] == 2
                    for run in fig3_runs)
    ok = wins >= 9 and stable >= 8 and sparse_ok
    report_line(6, ok, f"robust>=plain in {wins}/10, |clean-dirty|<=1pp in "
                       f"{stable}/10, n_sv=r={sparse_ok}")


def test_criterion_7_outlier_weights(fig3_runs):
    worst = 0.0
    for run in fig3_runs:
        state = run["report_dirty"].final_state
        idx = run["outliers"]
        worst = max(worst, float(np.abs(state.gamma[idx] - state.xi[idx]).max()))
    ok = worst < 1e-3
    report_line(7, ok, f"max |gamma - xi| on flipped points = {worst:.2e}")


def test_criterion_8_convergence_and_descent(fig3_runs, oracle_runs):
    reports = []
    class_reports = []
    for run in fig3_runs:
        reports += [run["report_clean"], run["report_dirty"], run["report_base"]]
        class_reports += [run["report_clean"], run["report_dirty"]]
    for run in oracle_runs:
        reports += [run["report_lr"], run["report_dense"]]

    converged = all(r.converged and r.iterations <= 200 for r in reports)
    descent = all(
        all(b <= a + DESCENT_SLACK for a, b in zip(r.objective, r.objective[1:]))
        for r in reports)
    iters_ok = all(r.iterations <= 35 for r in class_reports)
    ok = converged and descent and iters_ok
    max_iters = max(r.iterations for r in class_reports)
    report_line(8, ok, f"all converged={converged}, descent within slack={descent}, "
                       f"classification iterations <= {max_iters} (cap 35)")


def test_criterion_9_complexity_scaling():
    t0 = time.perf_counter()

    def train_once(m):
        base, _ = make_synthetic_regression(m, 0, seed=7)
        shifted = Dataset(base.features, base.targets + 2.0, "regression")
        noisy, _ = inject_target_noise(shifted, rate=0.10, seed=7)
        # unreachable epsilon plus the cap pin the iteration count T_s
        config = SolverConfig(lambda_m=1e-2, tau=0.4, rank_r=100,
                              epsilon=1e-12, max_iter=5)
        start = time.perf_counter()
        _, report = train(noisy, GAUSS, config)
        assert report.iterations == 5
        return time.perf_counter() - start

    sizes = (1000, 2000, 4000, 8000)
    train_once(sizes[0])  # warm-up, discarded
    # round-robin over the sizes, so that a slow stretch of the host hits
    # every size alike instead of one size's five repetitions
    runs = {m: [] for m in sizes}
    for _ in range(5):
        for m in sizes:
            runs[m].append(train_once(m))
    times = {m: min(runs[m]) for m in sizes}
    ratios = [times[b] / times[a] for a, b in zip(sizes, sizes[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(1.4 <= r <= 2.6 for r in ratios) and elapsed < 120.0
    report_line(9, ok, "per-doubling ratios "
                       + ", ".join(f"{r:.2f}" for r in ratios)
                       + f" (target [1.4, 2.6]), {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    train_ds, test_ds = make_synthetic_linear(60, 40, 4, seed=0)
    train_path = tmp_path / "train.txt"
    test_path = tmp_path / "test.txt"
    save_sparse_text(train_ds, train_path)
    save_sparse_text(test_ds, test_path)

    model_bytes = []
    report_bytes = []
    for tag in ("a", "b"):
        out = tmp_path / f"model_{tag}.json"
        rc = cli.main(["train", "--data", str(train_path), "--test", str(test_path),
                       "--task", "class", "--kernel", "linear", "--mlambda", "1e-2",
                       "--tau", "1.5", "--rank", "2", "--seed", "0",
                       "--out", str(out)])
        assert rc == 0
        model_bytes.append(out.read_bytes())
        report_bytes.append(cli.stable_report_bytes(str(out) + ".report.json"))
    ok = model_bytes[0] == model_bytes[1] and report_bytes[0] == report_bytes[1]
    report_line(10, ok, "models byte-identical, reports identical outside timing fields")
