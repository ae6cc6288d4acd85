import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from srlssvm import InvalidInputError, KernelSpec, kernel_column, kernel_diag
from srlssvm.kernels import gram

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
    K = dense_kernel_oracle(GAUSS, ds.features)
    for j in range(3):
        np.testing.assert_allclose(kernel_column(GAUSS, ds, j), K[j], atol=1e-12)


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
    ds = random_dataset(6, 2, seed=4)
    K = dense_kernel_oracle(GAUSS, ds.features)
    np.testing.assert_allclose(gram(GAUSS, ds.features, ds.features[:2]),
                               K[:, :2], atol=1e-12)
    with pytest.raises(InvalidInputError):
        gram(GAUSS, ds.features, np.ones((2, 5)))
