"""Truncated least-squares loss algebra.

The robust loss L_tau(xi) = min(tau^2, xi^2) / 2 caps every sample's
contribution at tau^2 / 2.  It splits as a difference of convex pieces
L_tau = L_sq - L_2, and the concave side is smoothed by an entropy
penalty so its derivative (the CCCP linearization coefficient) is
well defined everywhere:

    smoothed L_2(xi) = max(0, u)/2 + log(1 + exp(-p|u|)) / (2p),
    u = xi^2 - tau^2,

which equals softplus(p u) / (2p) and deviates from L_2 by at most
log(2) / p.  All functions below accept scalars or arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


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


def truncated_loss(xi, tau):
    """min(tau^2, xi^2) / 2; bounded by tau^2 / 2."""
    xi = np.asarray(xi, dtype=float)
    return np.minimum(0.5 * tau * tau, 0.5 * xi * xi)


def l2_part(xi, tau):
    """Convex complement: 0 for |xi| <= tau, else (xi^2 - tau^2) / 2."""
    xi = np.asarray(xi, dtype=float)
    return np.where(np.abs(xi) <= tau, 0.0, 0.5 * (xi * xi - tau * tau))


def smoothed_l2(xi, params: LossParams):
    """Entropy-smoothed complement; finite for all xi, gap <= log(2)/p."""
    xi = np.asarray(xi, dtype=float)
    u = xi * xi - params.tau * params.tau
    # exp argument is always <= 0, so no overflow guard is needed here
    return 0.5 * np.maximum(0.0, u) + np.log1p(np.exp(-params.p * np.abs(u))) / (2.0 * params.p)


def smoothed_l2_grad(xi, params: LossParams):
    """Derivative of the smoothed complement.

    xi * min(1, exp(p u)) / (1 + exp(-p |u|)) with u = xi^2 - tau^2; the
    min is computed as exp(min(0, p u)) so p = 1e4 cannot overflow.
    """
    xi = np.asarray(xi, dtype=float)
    u = xi * xi - params.tau * params.tau
    p = params.p
    return xi * np.exp(np.minimum(0.0, p * u)) / (1.0 + np.exp(-p * np.abs(u)))


def gamma(xi, params: LossParams):
    """CCCP linearization coefficient; ~0 for inliers, ~xi for outliers."""
    return smoothed_l2_grad(xi, params)


def smoothed_truncated_loss(xi, params: LossParams):
    """L_sq - smoothed L_2; the objective's per-sample loss term."""
    xi = np.asarray(xi, dtype=float)
    return 0.5 * xi * xi - smoothed_l2(xi, params)

