import numpy as np
import pytest

import srlssvm.kernels as kernels
from srlssvm import InvalidInputError, KernelSpec, NumericalError, pivoted_cholesky

from conftest import dense_kernel_oracle, random_dataset, traced_peak_bytes

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
