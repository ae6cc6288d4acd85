"""Kernel evaluation on demand: columns, the diagonal, and dense blocks.

:func:`gram` is the one routine that evaluates kernel blocks k(X_i, Z_j):
O(n r l) time and O(n r) memory for n x l queries against r x l points,
with no (n, r, l) intermediate.  Prediction evaluates queries against the
landmarks with it.  The side of the block that depends on Z alone (its
shift, the shifted rows and their squared norms) comes from
:func:`prepare_landmarks`; a model computes it once, so each prediction
pays only for its queries: one shift, one GEMM, the query norms and exp.

The training pipeline touches the kernel matrix only through
:func:`kernel_column` and :func:`kernel_diag`, so at most r columns plus
the diagonal are ever materialized.  A column is one GEMV on rows that
:func:`prepare_rows` readies once per factor: for the gaussian family
they are centered at their column mean, which leaves distances unchanged,
and their squared norms are cached.  The training loop never evaluates
the full m x m matrix.

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


@dataclass(frozen=True)
class PreparedRows:
    """Rows ready for :func:`kernel_column` or as the Z side of :func:`gram`.

    For the gaussian family ``rows`` are the rows minus ``shift`` and
    ``sq_norms`` their squared norms; for the linear family ``rows`` are
    the rows as given and ``sq_norms`` and ``shift`` are None.
    """

    family: str
    rows: np.ndarray
    sq_norms: np.ndarray | None
    shift: np.ndarray | None = None


def prepare_rows(spec: KernelSpec, dataset, shift=None) -> PreparedRows:
    """Ready a Dataset or an (m, l) array for repeated kernel columns.

    Gaussian rows are shifted by ``shift``, their column mean by default,
    which leaves distances unchanged.  O(m l) once, so that each column
    costs one GEMV plus O(m).
    """
    X = _features(dataset)
    if spec.family == LINEAR:
        return PreparedRows(LINEAR, X, None)
    shift = X.mean(axis=0) if shift is None else shift
    Xc = X - shift
    return PreparedRows(GAUSSIAN, Xc, np.einsum("ij,ij->i", Xc, Xc), shift)


def prepare_landmarks(spec: KernelSpec, Z) -> PreparedRows | None:
    """The Z side of a :func:`gram` block, which depends on Z alone.

    Gaussian: Z shifted by a copy of its first row (zeros when Z has no
    rows), with their squared norms.  None for the linear family, whose
    block ``X @ Z.T`` needs nothing prepared.  O(r l).
    """
    if spec.family == LINEAR:
        return None
    Z = _features(Z)
    return prepare_rows(spec, Z, shift=Z[0].copy() if len(Z) else np.zeros(Z.shape[1]))


def kernel_column(spec: KernelSpec, dataset, j: int) -> np.ndarray:
    """Column j of the kernel matrix, i.e. k(x_i, x_j) for all rows i.

    ``dataset`` is a Dataset, an (m, l) array, or :class:`PreparedRows`
    from :func:`prepare_rows`; anything but prepared rows is prepared on
    the spot.  The gaussian column takes the squared distance as
    2 (g_j - g_i) + (n_i - n_j), with g = Xc @ Xc[j] and n the cached
    norms, so the own entry's distance is exactly 0 and its value exactly
    1.  Rounding can leave a tiny negative squared distance elsewhere; it
    is clamped to 0.  Returns a new array the caller may overwrite.
    """
    prepared = dataset if isinstance(dataset, PreparedRows) else prepare_rows(spec, dataset)
    if prepared.family != spec.family:
        raise InvalidInputError(
            f"kernel_column: rows prepared for {prepared.family!r}, "
            f"kernel is {spec.family!r}")
    X = prepared.rows
    m = X.shape[0]
    if not 0 <= j < m:
        raise InvalidInputError(f"kernel_column: index {j} out of range [0, {m})")
    g = X @ X[j]
    if spec.family == LINEAR:
        return g
    n = prepared.sq_norms
    d2 = n - n[j]
    np.subtract(g[j], g, out=g)
    g *= 2.0
    d2 += g
    np.maximum(d2, 0.0, out=d2)
    d2 *= -spec.sigma
    return np.exp(d2, out=d2)


def kernel_diag(spec: KernelSpec, dataset) -> np.ndarray:
    """Diagonal of the kernel matrix; all ones for the gaussian family."""
    X = _features(dataset)
    if spec.family == GAUSSIAN:
        return np.ones(X.shape[0])
    return (X * X).sum(axis=1)


def gram(spec: KernelSpec, X, Z=None, *, prepared: PreparedRows | None = None) -> np.ndarray:
    """Dense kernel block k(X_i, Z_j), of shape (n, r).

    The gaussian block comes from the expansion ||x - c||^2 + ||z - c||^2
    - 2 (x - c).(z - c) with c = Z[0], which leaves distances unchanged.
    The shift keeps data far from the origin from cancelling, and makes
    k(x, Z[0]) exactly 1 wherever x equals Z[0], so a kernel column's own
    entry is 1.  Rounding can leave a tiny negative squared distance
    elsewhere; it is clamped to 0.

    ``prepared`` is ``prepare_landmarks(spec, Z)`` computed beforehand,
    as a model does once; it is built here when absent.
    """
    X = _features(X)
    Z = X if Z is None else _features(Z)
    if X.shape[1] != Z.shape[1]:
        raise InvalidInputError(
            f"gram: dimension mismatch {X.shape[1]} vs {Z.shape[1]}")
    if spec.family == LINEAR:
        return X @ Z.T
    if prepared is None:
        prepared = prepare_landmarks(spec, Z)
    Xc = X - prepared.shift
    d2 = Xc @ prepared.rows.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", Xc, Xc)[:, None]
    d2 += prepared.sq_norms
    np.maximum(d2, 0.0, out=d2)
    d2 *= -spec.sigma
    return np.exp(d2, out=d2)
