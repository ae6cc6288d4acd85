"""Kernel evaluation on demand: single entries, columns, and the diagonal.

The training pipeline touches the kernel matrix only through
:func:`kernel_column` and :func:`kernel_diag`, so at most r columns plus
the diagonal are ever materialized.  :func:`gram` builds dense blocks for
prediction (landmarks x queries) and for small test oracles; the training
loop never calls it on the full m x m matrix.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

GAUSSIAN = "gaussian"
LINEAR = "linear"
FAMILIES = (GAUSSIAN, LINEAR)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    gaussian: k(x, z) = exp(-sigma * ||x - z||^2), sigma > 0
    linear:   k(x, z) = x . z

    In floating point the gaussian kernel takes values in [0, 1]: it is
    exactly 0 once sigma * ||x - z||^2 exceeds about 745, where exp
    underflows.
    """

    family: str
    sigma: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if self.family == GAUSSIAN:
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise InvalidInputError("gaussian kernel requires sigma > 0")


def _features(dataset_or_array) -> np.ndarray:
    """Accept a Dataset or a raw (m, l) array."""
    X = getattr(dataset_or_array, "features", dataset_or_array)
    return np.asarray(X, dtype=float)


def kernel_eval(spec: KernelSpec, x, z) -> float:
    """Evaluate k(x, z) for two feature vectors of equal dimension."""
    x = np.asarray(x, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if x.shape != z.shape or x.size == 0:
        raise InvalidInputError(
            f"kernel_eval: incompatible dimensions {x.shape} vs {z.shape}")
    if spec.family == GAUSSIAN:
        d = x - z
        return float(np.exp(-spec.sigma * (d @ d)))
    return float(x @ z)


def kernel_column(spec: KernelSpec, dataset, j: int) -> np.ndarray:
    """Column j of the kernel matrix, i.e. k(x_i, x_j) for all rows i."""
    X = _features(dataset)
    m = X.shape[0]
    if not 0 <= j < m:
        raise InvalidInputError(f"kernel_column: index {j} out of range [0, {m})")
    if spec.family == GAUSSIAN:
        d = X - X[j]
        return np.exp(-spec.sigma * (d * d).sum(axis=1))
    return X @ X[j]


def kernel_diag(spec: KernelSpec, dataset) -> np.ndarray:
    """Diagonal of the kernel matrix; all ones for the gaussian family."""
    X = _features(dataset)
    if spec.family == GAUSSIAN:
        return np.ones(X.shape[0])
    return (X * X).sum(axis=1)


def gram(spec: KernelSpec, X, Z=None) -> np.ndarray:
    """Dense kernel block k(X_i, Z_j).

    Meant for prediction against landmark sets and for small-scale test
    oracles; the training pipeline proper never builds the m x m matrix.
    """
    X = _features(X)
    Z = X if Z is None else _features(Z)
    if X.shape[1] != Z.shape[1]:
        raise InvalidInputError(
            f"gram: dimension mismatch {X.shape[1]} vs {Z.shape[1]}")
    if spec.family == GAUSSIAN:
        d = X[:, None, :] - Z[None, :, :]
        return np.exp(-spec.sigma * (d * d).sum(axis=-1))
    return X @ Z.T
