"""Truncated least-squares loss: the per-sample terms one CCCP step needs.

The robust loss L_tau(xi) = min(tau^2, xi^2) / 2 caps every sample's
contribution at tau^2 / 2.  It splits as a difference of convex pieces
L_tau = L_sq - L_2, and the concave side is smoothed by an entropy
penalty so its derivative (the CCCP linearization coefficient) is
well defined everywhere:

    smoothed L_2(xi) = max(0, u)/2 + log(1 + exp(-p|u|)) / (2p),
    u = xi^2 - tau^2,

which equals softplus(p u) / (2p) and deviates from L_2 by at most
log(2) / p.  :func:`gamma` returns that derivative and the smoothed
truncated loss L_sq - smoothed L_2 from one pass over the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# exp(-x) rounds to exactly 0 for x above about 745.13, and log1p(0) is 0
EXP_UNDERFLOW = 746.0


@dataclass(frozen=True)
class LossParams:
    """Truncation level tau >= 0 and smoothing sharpness p > 0."""

    tau: float
    p: float = 1e4

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise InvalidInputError("tau must be finite and >= 0")
        if not (np.isfinite(self.p) and self.p > 0):
            raise InvalidInputError("p must be finite and > 0")


def gamma(xi, params: LossParams):
    """CCCP linearization coefficient and smoothed truncated loss per sample.

    Returns ``(gamma, loss)``: gamma = xi * min(1, exp(p u)) / (1 + e),
    ~0 for inliers and ~xi for outliers, and loss = xi^2 / 2 - smoothed
    L_2, both from one e = exp(-p|u|).  For u < 0, exp(p u) is e itself,
    and the exponent is never positive, so p = 1e4 cannot overflow.
    Where p|u| reaches ``EXP_UNDERFLOW``, e is exactly 0 and both take
    their closed form, xi * (u >= 0) and xi^2 / 2 - max(0, u) / 2; ``exp``
    and ``log1p`` run only on the few samples below it.
    """
    xi = np.asarray(xi, dtype=float)
    x = xi.ravel()
    u = x * x - params.tau * params.tau
    p = params.p
    coeff = x * (u >= 0)
    loss = 0.5 * x
    loss *= x
    loss -= 0.5 * np.maximum(0.0, u)
    near = np.flatnonzero(p * np.abs(u) < EXP_UNDERFLOW)
    xn, un = x[near], u[near]
    e = np.exp(-p * np.abs(un))
    coeff[near] = xn * np.where(un < 0, e, 1.0) / (1.0 + e)
    loss[near] = 0.5 * xn * xn - (0.5 * np.maximum(0.0, un) + np.log1p(e) / (2.0 * p))
    # [()] turns 0-d results into numpy scalars, as arithmetic on xi would
    return coeff.reshape(xi.shape)[()], loss.reshape(xi.shape)[()]
