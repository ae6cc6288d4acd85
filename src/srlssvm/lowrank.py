"""Greedy pivoted (incomplete) Cholesky factorization of the kernel matrix.

Produces P (m x r) with P P^T ~ K, touching only r kernel columns plus
the diagonal.  The pivot rows of P form a lower-triangular block with
positive diagonal, so solves against P_B cost O(r^2).

The rows are prepared once (:func:`kernels.prepare_rows`), so each
column costs one GEMV plus O(m).  Each column is updated in place and
stored into the row-major P, the layout the solver's gathers P[S] want;
building it in a private (r, m) buffer and copying at the end doubles
the peak.  P is allocated before the prepared rows, which keeps a
process that fits again and again from fragmenting its heap (see the
comment there).
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
    pivots: list[int] = []
    history = [float(d.sum())]

    for t in range(r):
        if d.min() < NEG_DIAG_TOL:
            raise NumericalError(
                f"residual diagonal fell below {NEG_DIAG_TOL} at pivot step {t}; "
                "kernel matrix is not numerically positive semi-definite")
        np.maximum(d, 0.0, out=d)
        dmax = d.max()
        if dmax <= tol:
            break
        j = int(np.argmax(d >= dmax - PIVOT_TIE_TOL))
        root = np.sqrt(d[j])
        col = kernels.kernel_column(spec, rows, j)
        col -= P[:, :t] @ P[j, :t]
        col /= root
        # exact-arithmetic zeros at previous pivots, exact root at the pivot
        col[pivots] = 0.0
        col[j] = root
        P[:, t] = col
        # from the contiguous column, not the strided P[:, t]
        d -= np.multiply(col, col, out=col)
        d[j] = 0.0
        pivots.append(j)
        history.append(float(np.maximum(d, 0.0).sum()))

    if not pivots:
        raise NumericalError(
            f"zero kernel matrix: its largest diagonal entry is at most {tol:.1e}, "
            "so no landmark can be chosen")
    P = np.ascontiguousarray(P[:, :len(pivots)])
    return LowRankFactor(
        P=P,
        B=tuple(pivots),
        residual_trace=history[-1],
        trace_history=tuple(history),
    )

