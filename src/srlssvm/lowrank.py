"""Greedy pivoted (incomplete) Cholesky factorization of the kernel matrix.

Produces P (m x r) with P P^T ~ K, touching only r kernel columns plus
the diagonal.  The pivot rows of P form a lower-triangular block with
positive diagonal, so solves against P_B cost O(r^2).

The rows are prepared once (:func:`kernels.prepare_rows`), so each
column costs one GEMV plus O(m).  Subtracting the earlier columns' share
is the O(m r^2) part, and it is bound by memory traffic: one pivot at a
time, pivot t reads all of P[:, :t] again.  So :func:`pivoted_cholesky`
takes its greedy pivots in blocks and reads P once per block; the pivots
stay those of one column at a time, and P differs from that only by
rounding.  A block's columns are kept in a small (candidates, m) buffer
and written into the row-major P, the layout the solver's gathers P[S]
want, once per block; building all of P in a private (r, m) buffer and
copying at the end doubles the peak.  P is allocated before the
prepared rows, which keeps a process that fits again and again from
fragmenting its heap (see the comment there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidInputError, NumericalError

# residual diagonals in [NEG_DIAG_TOL, 0) are floating-point drift on a PSD
# matrix: clamped to zero and never pivoted; anything below is a breakdown
NEG_DIAG_TOL = -1e-8
# pivot candidates within this distance of the max diagonal tie-break to
# the smallest index, for reproducibility
PIVOT_TIE_TOL = 1e-12
# pivoting stops once the largest residual diagonal drops to this times m,
# which avoids dividing by near-zero pivots
STOP_TOL_PER_ROW = 1e-12
# largest residual diagonals taken as the candidate pivots of one block
CANDIDATES = 16


@dataclass(frozen=True)
class LowRankFactor:
    """Rank-r factor P with ordered landmark (pivot) indices B.

    The rows of P at B, in pivot order, form a lower-triangular block with
    positive diagonal; the solver relies on it for its O(r^2) solves.
    ``trace_history[t]`` is trace(K - P_t P_t^T) after t pivots, starting
    at trace(K).
    """

    P: np.ndarray
    B: tuple[int, ...]
    residual_trace: float
    trace_history: tuple[float, ...]

    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def r(self) -> int:
        return len(self.B)

    @property
    def P_B(self) -> np.ndarray:
        """Rows of P at the landmark indices, in pivot order (r x r)."""
        return self.P[list(self.B), :]


def pivoted_cholesky(dataset, spec: kernels.KernelSpec, r: int) -> LowRankFactor:
    """Greedy max-residual-diagonal pivoted Cholesky of the kernel matrix.

    Stops after r pivots, or earlier once the largest residual diagonal
    drops to ``STOP_TOL_PER_ROW * m``.  Exactly |B| kernel columns are
    evaluated.  A kernel whose diagonal is already below that level (all-zero
    features under the linear kernel) admits no pivot and raises
    NumericalError.

    The pivots are taken in blocks.  A block starts at step t0 with the
    ``CANDIDATES`` largest residual diagonals as candidates (the greedy
    pivot forced in), and forms the updates of their columns by the first
    t0 columns in one GEMM, ``U = P[cands, :t0] @ P[:, :t0].T``.  Each
    greedy pivot that is a candidate then needs only the block's own
    columns, kept contiguous in ``W``; the first pivot that is not starts
    the next block.  The pivot rule is the same as one column at a time.
    """
    X = np.asarray(getattr(dataset, "features", dataset), dtype=float)
    m = X.shape[0]
    if not 1 <= r <= m:
        raise InvalidInputError(f"rank r={r} must satisfy 1 <= r <= m={m}")
    tol = STOP_TOL_PER_ROW * m

    d = np.asarray(kernels.kernel_diag(spec, dataset), dtype=float).copy()
    # P before the prepared rows.  Once the first freed P has raised glibc's
    # mmap threshold, later P's come from the heap; with the small centered
    # copy allocated first, the heap fragmented and a process fitting
    # repeatedly grew its max RSS by about 20% (86 to 104 MB at fit_class's
    # size), against no growth in this order
    P = np.zeros((m, r))
    rows = kernels.prepare_rows(spec, dataset)
    c = min(CANDIDATES, r)
    U = np.empty((c, m))        # updates of the block's candidate columns
    W = np.empty((c, m))        # the block's own columns, row k = column t0 + k
    slot = np.full(m, -1, dtype=np.intp)  # row of U for each candidate, else -1
    cands = np.empty(0, dtype=np.intp)
    pivots = np.empty(r, dtype=np.intp)
    history = [float(d.sum())]
    _clamp_diag(d, 0)

    t0 = t = 0
    while t < r:
        dmax = d.max()
        if dmax <= tol:
            break
        j = int(np.argmax(d >= dmax - PIVOT_TIE_TOL))
        k = t - t0
        if slot[j] < 0 or k == len(cands):
            P[:, t0:t] = W[:k].T
            slot[cands] = -1
            cands = _candidates(d, j, min(c, r - t))
            slot[cands] = np.arange(len(cands))
            np.matmul(P[cands, :t], P[:, :t].T, out=U[:len(cands)])
            t0, k = t, 0
        root = np.sqrt(d[j])
        col = W[k]
        kcol = kernels.kernel_column(spec, rows, j)
        np.subtract(kcol, U[slot[j]], out=col)
        if k:
            col -= W[:k, j] @ W[:k]
        col /= root
        # exact-arithmetic zeros at previous pivots, exact root at the pivot
        col[pivots[:t]] = 0.0
        col[j] = root
        d -= np.multiply(col, col, out=kcol)
        d[j] = 0.0
        pivots[t] = j
        t += 1
        _clamp_diag(d, t)
        history.append(float(d.sum()))

    if t == 0:
        raise NumericalError(
            f"zero kernel matrix: its largest diagonal entry is at most {tol:.1e}, "
            "so no landmark can be chosen")
    P[:, t0:t] = W[:t - t0].T
    P = np.ascontiguousarray(P[:, :t])
    return LowRankFactor(
        P=P,
        B=tuple(pivots[:t].tolist()),
        residual_trace=history[-1],
        trace_history=tuple(history),
    )


def _candidates(d: np.ndarray, j: int, c: int) -> np.ndarray:
    """Indices of the c largest entries of d, with j among them."""
    cands = np.argpartition(d, len(d) - c)[len(d) - c:]
    if j not in cands:
        cands[np.argmin(d[cands])] = j
    return cands


def _clamp_diag(d: np.ndarray, t: int) -> None:
    """Clamp residual-diagonal drift to zero in place; fail on a breakdown."""
    if d.min() < NEG_DIAG_TOL:
        raise NumericalError(
            f"residual diagonal fell below {NEG_DIAG_TOL} at pivot step {t}; "
            "kernel matrix is not numerically positive semi-definite")
    np.maximum(d, 0.0, out=d)
