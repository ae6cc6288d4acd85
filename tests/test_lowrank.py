import numpy as np
import pytest

import srlssvm.kernels as kernels
import srlssvm.lowrank as lowrank
from srlssvm import InvalidInputError, KernelSpec, NumericalError, pivoted_cholesky

from conftest import dense_kernel_oracle, random_dataset, traced_peak_bytes
from oracles import pivoted_cholesky_columnwise

GAUSS = KernelSpec("gaussian", 1.0)


def test_identical_points_stop_at_rank_one():
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    factor = pivoted_cholesky(X, GAUSS, r=2)
    assert factor.r == 1
    np.testing.assert_allclose(factor.P, [[1.0], [1.0]], atol=1e-12)
    assert factor.residual_trace <= 1e-12


def test_full_rank_reconstructs_dense_kernel():
    ds = random_dataset(3, 2, seed=0)
    factor = pivoted_cholesky(ds, GAUSS, r=3)
    K = dense_kernel_oracle(GAUSS, ds.features)
    assert np.abs(factor.P @ factor.P.T - K).max() <= 1e-8
    assert factor.residual_trace <= 1e-8


def test_residual_trace_lower_bounded_by_eigen_optimum():
    ds = random_dataset(50, 3, seed=1)
    factor = pivoted_cholesky(ds, GAUSS, r=10)
    K = dense_kernel_oracle(GAUSS, ds.features)
    eigs = np.sort(np.linalg.eigvalsh(K))
    optimal = eigs[:-10].sum()  # trace error of the best rank-10 approximation
    assert factor.residual_trace >= optimal - 1e-6


def test_trace_history_nonincreasing():
    ds = random_dataset(40, 2, seed=2)
    factor = pivoted_cholesky(ds, GAUSS, r=20)
    hist = np.array(factor.trace_history)
    assert np.all(np.diff(hist) <= 1e-12)
    assert factor.residual_trace == hist[-1]
    # recomputation from the definition
    K = dense_kernel_oracle(GAUSS, ds.features)
    direct = np.trace(K) - (factor.P ** 2).sum()
    assert factor.residual_trace == pytest.approx(max(direct, 0.0), abs=1e-8)


def test_exactness_at_landmarks():
    ds = random_dataset(30, 2, seed=3)
    factor = pivoted_cholesky(ds, GAUSS, r=8)
    K = dense_kernel_oracle(GAUSS, ds.features)
    approx = factor.P @ factor.P.T
    B = list(factor.B)
    assert np.abs(approx[B, :] - K[B, :]).max() <= 1e-8
    assert np.abs(approx[:, B] - K[:, B]).max() <= 1e-8


def test_pivot_block_lower_triangular_positive_diagonal():
    ds = random_dataset(25, 3, seed=4)
    factor = pivoted_cholesky(ds, GAUSS, r=10)
    P_B = factor.P_B
    assert np.array_equal(P_B, np.tril(P_B))
    assert (np.diag(P_B) > 0).all()


def test_greedy_pivot_rule_matches_dense_recomputation():
    ds = random_dataset(60, 2, seed=5)
    factor = pivoted_cholesky(ds, GAUSS, r=12)
    K = dense_kernel_oracle(GAUSS, ds.features)
    resid_diag = np.diag(K).copy()
    for t, j in enumerate(factor.B):
        assert resid_diag[j] >= resid_diag.max() - 1e-12
        resid_diag -= factor.P[:, t] ** 2


def test_kernel_column_budget():
    ds = random_dataset(30, 2, seed=6)
    calls = []
    original = kernels.kernel_column

    def spy(spec, dataset, j):
        calls.append(j)
        return original(spec, dataset, j)

    kernels.kernel_column = spy
    try:
        factor = pivoted_cholesky(ds, GAUSS, r=7)
    finally:
        kernels.kernel_column = original
    assert len(calls) == factor.r
    assert tuple(calls) == factor.B


def test_rank_out_of_range():
    ds = random_dataset(5, 2, seed=7)
    with pytest.raises(InvalidInputError):
        pivoted_cholesky(ds, GAUSS, r=6)
    with pytest.raises(InvalidInputError):
        pivoted_cholesky(ds, GAUSS, r=0)


def test_non_psd_breakdown_names_pivot_step(monkeypatch):
    # serve an indefinite matrix through the kernel interface
    M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    monkeypatch.setattr(kernels, "kernel_diag", lambda spec, ds: np.diag(M).copy())
    monkeypatch.setattr(kernels, "kernel_column", lambda spec, ds, j: M[:, j].copy())
    with pytest.raises(NumericalError, match="pivot step"):
        pivoted_cholesky(np.zeros((2, 2)), GAUSS, r=2)


def test_early_termination_default_tol():
    # near-duplicate cloud: residual collapses long before r columns
    rng = np.random.default_rng(8)
    base = rng.uniform(-1, 1, (1, 4))
    X = np.repeat(base, 50, axis=0) + 1e-9 * rng.standard_normal((50, 4))
    factor = pivoted_cholesky(X, GAUSS, r=50)
    assert factor.r < 50
    assert factor.residual_trace <= 1e-12 * 50


def test_tie_break_prefers_smallest_index():
    # gaussian diagonal is all ones, so the very first pivot is a full tie
    ds = random_dataset(10, 2, seed=9)
    factor = pivoted_cholesky(ds, GAUSS, r=3)
    assert factor.B[0] == 0



def test_factor_peak_memory_near_p():
    # at fit_class's shape: P is 8 m r bytes, written in place; the prepared
    # rows, the diagonal and one column add O(m l).  Building P in a second
    # (r, m) buffer and copying it at the end peaked at 2.08x.
    m, r, l = 10000, 256, 16
    X = random_dataset(m, l, seed=10).features
    peak = traced_peak_bytes(lambda: pivoted_cholesky(X, KernelSpec("gaussian", 0.1), r))
    assert peak <= 1.5 * 8 * m * r


# ------------------------------------------ blocks against one column at a time

LINEAR = KernelSpec("linear")


def _duplicated_rows():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, (20, 3))
    return np.repeat(X, 3, axis=0)[rng.permutation(60)]


def _near_duplicate_cloud():
    rng = np.random.default_rng(8)
    base = rng.uniform(-1, 1, (1, 4))
    return np.repeat(base, 50, axis=0) + 1e-9 * rng.standard_normal((50, 4))


def _clustered_linear():
    # 20 long rows along e1 hold the 16 largest diagonals; once one of them
    # is a pivot the others' residuals collapse, and the next greedy pivot
    # is the shorter row along e2, which was not a candidate
    rng = np.random.default_rng(12)
    X = 0.1 * rng.standard_normal((50, 5))
    X[:20] = 10.0 * np.eye(5)[0] + 0.01 * rng.standard_normal((20, 5))
    X[20] = 9.0 * np.eye(5)[1]
    X[21] = 8.0 * np.eye(5)[2]
    return X


def _gaussian_clusters():
    rng = np.random.default_rng(13)
    centers = rng.uniform(-3, 3, (5, 3))
    return (centers[:, None, :] + 0.05 * rng.standard_normal((5, 40, 3))).reshape(200, 3)


BLOCK_CASES = {
    "m_below_16": (lambda: random_dataset(10, 3, seed=20).features, GAUSS, 10),
    "r_below_16": (lambda: random_dataset(200, 3, seed=21).features, GAUSS, 7),
    "r_not_multiple_of_16": (lambda: random_dataset(300, 4, seed=22).features,
                             KernelSpec("gaussian", 3.0), 37),
    "linear": (lambda: random_dataset(120, 6, seed=23).features, LINEAR, 6),
    "duplicated_rows": (_duplicated_rows, GAUSS, 30),
    "early_termination": (_near_duplicate_cloud, GAUSS, 50),
    "linear_early_termination": (lambda: random_dataset(120, 6, seed=24).features,
                                 LINEAR, 10),
    "clustered_linear": (_clustered_linear, LINEAR, 5),
    "gaussian_clusters": (_gaussian_clusters, KernelSpec("gaussian", 2.0), 40),
}


def assert_matches_columnwise(X, spec, r):
    factor = pivoted_cholesky(X, spec, r)
    expected = pivoted_cholesky_columnwise(X, spec, r)
    assert factor.B == expected.B
    assert factor.P.shape == expected.P.shape
    assert np.abs(factor.P - expected.P).max() <= 1e-13
    np.testing.assert_allclose(factor.trace_history, expected.trace_history,
                               rtol=0, atol=1e-12 * len(X))
    return factor


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocks_match_one_column_at_a_time(case):
    make, spec, r = BLOCK_CASES[case]
    assert_matches_columnwise(make(), spec, r)


def test_clustered_case_pivots_outside_the_first_candidates():
    X = _clustered_linear()
    d = kernels.kernel_diag(LINEAR, X)
    factor = assert_matches_columnwise(X, LINEAR, 5)
    first_candidates = np.argsort(-d, kind="stable")[:lowrank.CANDIDATES]
    assert factor.B[0] in first_candidates
    assert factor.B[1] == 20 and 20 not in first_candidates


def test_early_termination_cases_stop_early():
    for case in ("duplicated_rows", "early_termination", "linear_early_termination"):
        make, spec, r = BLOCK_CASES[case]
        assert pivoted_cholesky(make(), spec, r).r < r


@pytest.mark.parametrize("candidates", [1, 2, 5, 64])
def test_any_candidate_count_gives_the_same_pivots(monkeypatch, candidates):
    monkeypatch.setattr(lowrank, "CANDIDATES", candidates)
    assert_matches_columnwise(random_dataset(150, 3, seed=25).features,
                              KernelSpec("gaussian", 2.0), 33)
