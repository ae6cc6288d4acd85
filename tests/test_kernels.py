import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from srlssvm import InvalidInputError, KernelSpec, kernel_column, kernel_diag, pivoted_cholesky
from srlssvm.kernels import gram, prepare_rows

from conftest import dense_kernel_oracle, random_dataset
from oracles import kernel_eval

GAUSS = KernelSpec("gaussian", 1.0)
LIN = KernelSpec("linear")

vectors = st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=5)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        KernelSpec("gaussian", -1.0)
    with pytest.raises(InvalidInputError):
        KernelSpec("gaussian")
    with pytest.raises(InvalidInputError):
        KernelSpec("polynomial", 1.0)
    KernelSpec("linear")  # sigma not required


def test_eval_zero_distance_is_one():
    x = np.array([0.3, -2.0, 5.5])
    assert kernel_eval(GAUSS, x, x) == 1.0


def test_eval_gaussian_direct_formula():
    spec = KernelSpec("gaussian", 0.5)
    assert kernel_eval(spec, [0.0], [2.0]) == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert kernel_eval(spec, [0.0], [2.0]) == pytest.approx(0.135335, abs=1e-6)


def test_eval_linear_dot_product():
    assert kernel_eval(LIN, [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_eval_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        kernel_eval(GAUSS, [1.0, 2.0], [1.0])
    with pytest.raises(InvalidInputError):
        kernel_eval(GAUSS, [], [])


def test_column_single_point():
    ds = random_dataset(1, 3, seed=0)
    assert np.array_equal(kernel_column(GAUSS, ds, 0), [1.0])


def test_column_duplicated_rows():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    col = kernel_column(GAUSS, X, 0)
    assert col[0] == 1.0 and col[1] == 1.0


def test_column_matches_dense_oracle():
    ds = random_dataset(3, 2, seed=1)
    X = ds.features
    for spec in (GAUSS, LIN):
        K = dense_kernel_oracle(spec, X)
        for j in range(3):
            np.testing.assert_allclose(kernel_column(spec, ds, j), K[j], atol=1e-12)
            np.testing.assert_allclose(kernel_column(spec, prepare_rows(spec, ds), j),
                                       K[j], atol=1e-12)


def test_column_self_entry_is_exactly_one():
    X = 100.0 * random_dataset(50, 7, seed=5).features + 1e3
    prepared = prepare_rows(GAUSS, X)
    for j in range(50):
        assert kernel_column(GAUSS, X, j)[j] == 1.0
        assert kernel_column(GAUSS, prepared, j)[j] == 1.0


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_column_resists_cancellation(offset, scale):
    # far from the origin an expansion on raw norms misses by about
    # 1e-16 * ||x||^2; the reference shifts by x_j and squares differences
    m, l = 203, 5
    X = scale * random_dataset(m, l, seed=11).features + offset
    spec = KernelSpec("gaussian", 1.0 / (l * scale * scale))
    prepared = prepare_rows(spec, X)
    for j in (0, 1, 100, m - 1):
        diff = X - X[j]
        ref = np.exp(-spec.sigma * np.einsum("ij,ij->i", diff, diff))
        np.testing.assert_allclose(kernel_column(spec, prepared, j), ref, rtol=1e-13, atol=0)


def test_column_duplicates_of_the_pivot_row():
    # the GEMV may sum the last m mod 4 rows in another order, so duplicates
    # there can miss 1 by rounding, but not by more than 1e-14
    m, l, j = 103, 16, 10
    X = random_dataset(m, l, seed=12).features + 50.0
    dups = [3, 50, 99, 100, 101, 102]
    X[dups] = X[j]
    for data in (X, prepare_rows(GAUSS, X)):
        col = kernel_column(GAUSS, data, j)
        assert col[j] == 1.0
        assert np.abs(col[dups] - 1.0).max() <= 1e-14
    factor = pivoted_cholesky(X, GAUSS, r=m)
    chosen = X[list(factor.B)]
    # every distinct row is a pivot once, and no duplicate of one ever is
    assert len(np.unique(chosen, axis=0)) == factor.r == m - len(dups)


def test_column_rows_prepared_for_another_family():
    X = random_dataset(4, 2, seed=13).features
    with pytest.raises(InvalidInputError, match="prepared"):
        kernel_column(LIN, prepare_rows(GAUSS, X), 0)


def test_column_index_out_of_range():
    ds = random_dataset(3, 2, seed=1)
    with pytest.raises(InvalidInputError):
        kernel_column(GAUSS, ds, 3)
    with pytest.raises(InvalidInputError):
        kernel_column(GAUSS, ds, -1)


def test_diag_gaussian_all_ones():
    ds = random_dataset(5, 2, seed=2)
    assert np.array_equal(kernel_diag(GAUSS, ds), np.ones(5))


def test_diag_linear_squared_norm():
    X = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert kernel_diag(LIN, X)[0] == 25.0


@pytest.mark.parametrize("spec", [GAUSS, LIN])
def test_diag_matches_dense_oracle(spec):
    ds = random_dataset(7, 3, seed=3)
    K = dense_kernel_oracle(spec, ds.features)
    np.testing.assert_allclose(kernel_diag(spec, ds), np.diag(K), atol=1e-12)


@given(x=vectors, z=vectors)
def test_symmetry(x, z):
    n = min(len(x), len(z))
    x, z = x[:n], z[:n]
    for spec in (GAUSS, LIN):
        assert kernel_eval(spec, x, z) == pytest.approx(kernel_eval(spec, z, x), abs=1e-15)


@given(x=vectors, z=vectors)
@example(x=[0.0, 9.0, -10.0], z=[5.0, -9.0, 10.0])  # exp(-749) underflows to 0
def test_gaussian_range(x, z):
    n = min(len(x), len(z))
    x, z = np.array(x[:n]), np.array(z[:n])
    k = kernel_eval(GAUSS, x, z)
    d2 = float(((x - z) ** 2).sum())
    assert 0.0 <= k <= 1.0
    assert k == pytest.approx(math.exp(-d2), rel=1e-12)
    if d2 < 700:  # far from exp's underflow near 745
        assert k > 0.0
    if d2 > 1e-12:  # below that the float result legitimately rounds to 1
        assert k < 1.0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("spec", [GAUSS, LIN])
def test_psd_spot_check(seed, spec):
    m = np.random.default_rng(seed).integers(2, 21)
    ds = random_dataset(int(m), 3, seed=seed)
    K = dense_kernel_oracle(spec, ds.features)
    assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_gram_cross_block():
    X = random_dataset(6, 2, seed=4).features
    Z = random_dataset(3, 2, seed=6).features
    # far from the origin an unshifted expansion ||x||^2 + ||z||^2 - 2 x.z
    # misses these blocks by 2.6e-10 at 1e3 and 1.8e-8 at 1e4
    for offset in (0.0, 1e3, 1e4):
        K = dense_kernel_oracle(GAUSS, np.vstack([X, Z]) + offset)
        np.testing.assert_allclose(gram(GAUSS, X + offset, Z + offset), K[:6, 6:],
                                   rtol=0, atol=1e-12)
    with pytest.raises(InvalidInputError):
        gram(GAUSS, X, np.ones((2, 5)))
