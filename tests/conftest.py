"""Shared fixtures and independent test oracles."""

import tracemalloc

import numpy as np
import pytest

from srlssvm import Dataset, KernelSpec

from oracles import kernel_eval


def dense_kernel_oracle(spec: KernelSpec, X) -> np.ndarray:
    """Brute-force m x m kernel matrix via pairwise kernel_eval calls.

    Deliberately quadratic and entry-by-entry so it stays independent of
    the vectorized column/diagonal/gram code paths it is used to check.
    """
    X = np.asarray(X, dtype=float)
    m = X.shape[0]
    K = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            K[i, j] = kernel_eval(spec, X[i], X[j])
    return K


def random_dataset(m, l, seed, task="regression"):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (m, l))
    if task == "classification":
        y = np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0)
    else:
        y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.standard_normal(m)
    return Dataset(X, y, task)


def traced_peak_bytes(call) -> int:
    """Peak bytes allocated while ``call()`` runs, numpy buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
