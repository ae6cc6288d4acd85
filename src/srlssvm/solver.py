"""Training engine for the sparse robust least-squares SVM.

Training minimizes

    (lambda / 2) alpha^T K alpha + (1/m) sum_i L_tau(y_i - K_i alpha - b)

over a rank-r factor P P^T ~ K.  The nonconvex truncated loss is handled
by a CCCP loop: each iteration solves the convex least-squares problem
obtained by linearizing the concave part at the current residuals, which
reduces to one r x r solve against the fixed matrix

    J = m*lambda I_r + P^T P - (P^T e)(P^T e)^T / m,

factored once.  Iterates are tracked through upsilon = P^T alpha; the
sparse coefficients alpha_B = (P_B^T)^(-1) upsilon over the landmark rows
are recovered per step, every other coefficient being exactly zero.  With
gamma = 0 the first step is the plain (non-robust) primal LSSVM solution,
which therefore serves as the warm start.

The trainers run their BLAS calls on one thread and restore the caller's
OpenBLAS thread counts on return: at r up to a few hundred, waking a
threaded BLAS for every small product costs more than it saves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from . import losses
from ._blas import one_blas_thread
from .data import Dataset
from .errors import InvalidInputError, NumericalError
from .kernels import KernelSpec
from .lowrank import LowRankFactor, pivoted_cholesky
from .model import Model

# |gamma_i| above this counts as nonzero for the sparse update's index set
GAMMA_NONZERO_TOL = 1e-12
# estimated condition numbers above this abort precompute
COND_LIMIT = 1e14


@dataclass(frozen=True)
class AnnealSchedule:
    """Truncation-level annealing: shrink tau by delta down to tau_min."""

    delta: float
    tau_min: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise InvalidInputError("anneal delta must be in (0, 1)")
        if not self.tau_min > 0.0:
            raise InvalidInputError("anneal tau_min must be > 0")


@dataclass(frozen=True)
class SolverConfig:
    """Training hyperparameters.

    ``lambda_m`` is the product m*lambda (the quantity grid searches range
    over); the factor algebra uses it directly.
    """

    lambda_m: float
    tau: float
    rank_r: int
    p: float = 1e4
    epsilon: float = 1e-2
    max_iter: int = 200
    anneal: AnnealSchedule | None = None

    def __post_init__(self):
        if not self.lambda_m > 0:
            raise InvalidInputError("lambda_m must be > 0")
        if not self.tau >= 0:
            raise InvalidInputError("tau must be >= 0")
        if not self.p > 0:
            raise InvalidInputError("p must be > 0")
        if not self.epsilon > 0:
            raise InvalidInputError("epsilon must be > 0")
        if self.rank_r < 1:
            raise InvalidInputError("rank_r must be a positive integer")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be a positive integer")


@dataclass(frozen=True)
class Precomputed:
    """Per-training constants shared by every CCCP step."""

    J: np.ndarray
    J_cho: tuple
    G: np.ndarray            # (P_B^T)^(-1) J^(-1)
    P_hat: np.ndarray        # P^T e
    alpha_LS: np.ndarray     # plain primal-LSSVM coefficients
    upsilon_LS: np.ndarray   # J^(-1)(P^T y - mean(y) P_hat)
    factor: LowRankFactor
    y: np.ndarray

    @property
    def m(self) -> int:
        return self.factor.m


def precompute(factor: LowRankFactor, y, lambda_m: float) -> Precomputed:
    """Assemble and factor J, the fast-path matrix G, and the warm start."""
    if not lambda_m > 0:
        raise InvalidInputError("lambda_m must be > 0")
    P = factor.P
    m, r = P.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise InvalidInputError(f"targets must have length m={m}")

    P_hat = P.sum(axis=0)
    J = lambda_m * np.eye(r) + P.T @ P - np.outer(P_hat, P_hat) / m
    try:
        J_cho = cho_factor(J, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - J is PD by construction
        raise NumericalError(f"J is not positive definite: {exc}; "
                             "increase the regularization lambda") from exc
    diag = np.abs(np.diagonal(J_cho[0]))
    cond_est = (diag.max() / diag.min()) ** 2
    if cond_est > COND_LIMIT:
        raise NumericalError(
            f"J is numerically singular (condition estimate {cond_est:.2e}); "
            "increase the regularization lambda")

    J_inv = cho_solve(J_cho, np.eye(r))
    # P_B^T is upper triangular, so this back-substitution is O(r^2) per column
    G = solve_triangular(factor.P_B.T, J_inv, lower=False)

    rhs = P.T @ y - (y.sum() / m) * P_hat
    upsilon_LS = cho_solve(J_cho, rhs)
    alpha_LS = G @ rhs
    return Precomputed(J, J_cho, G, P_hat, alpha_LS, upsilon_LS, factor, y)


@dataclass(frozen=True)
class CccpStep:
    """One convex-subproblem solution: compressed and sparse coefficients."""

    upsilon: np.ndarray
    alpha_B: np.ndarray
    b: float
    xi: np.ndarray
    support_size: int  # |S_t| of the gamma that produced this step


def cccp_step(pre: Precomputed, gamma_t) -> CccpStep:
    """Sparse fast update from the warm start.

    alpha_B = alpha_LS - G (P_S^T gamma_S - (e^T gamma / m) P_hat); only
    the nonzero entries of gamma touch P, so the correction costs
    O(|S_t| r) on top of the O(m r) residual refresh.
    """
    g = np.asarray(gamma_t, dtype=float)
    P = pre.factor.P
    m = pre.m
    if g.shape != (m,):
        raise InvalidInputError(f"gamma must have length m={m}")
    S = np.flatnonzero(np.abs(g) > GAMMA_NONZERO_TOL)
    q = P[S].T @ g[S] - (g.sum() / m) * pre.P_hat
    upsilon = pre.upsilon_LS - cho_solve(pre.J_cho, q)
    alpha_B = pre.alpha_LS - pre.G @ q
    b = float(((pre.y - g).sum() - pre.P_hat @ upsilon) / m)
    xi = pre.y - P @ upsilon - b
    return CccpStep(upsilon, alpha_B, b, xi, support_size=len(S))


@dataclass(frozen=True)
class TrainState:
    """Solver state after an iteration; ``gamma`` is the refreshed coefficient."""

    t: int
    gamma: np.ndarray
    xi: np.ndarray
    upsilon: np.ndarray
    b: float
    support: np.ndarray

    @property
    def support_size(self) -> int:
        return len(self.support)


@dataclass
class TrainReport:
    """Per-run diagnostics; ``final_state`` is kept in memory only."""

    iterations: int
    converged: bool
    gamma_change: list[float]
    objective: list[float]
    support_sizes: list[int]
    wall_time_ms: float
    rank: int
    tau_schedule: list[float] | None = None
    final_state: TrainState | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        d = {
            "iterations": self.iterations,
            "converged": self.converged,
            "gamma_change": self.gamma_change,
            "objective": self.objective,
            "support_sizes": self.support_sizes,
            "rank": self.rank,
            "timing": {"wall_time_ms": self.wall_time_ms},
        }
        if self.tau_schedule is not None:
            d["tau_schedule"] = self.tau_schedule
        return d


@one_blas_thread()
def _fit(dataset: Dataset, spec: KernelSpec, config: SolverConfig,
         robust: bool) -> tuple[Model, TrainReport]:
    """The CCCP loop every trainer runs.

    The gamma = 0 step is the plain primal LSSVM and the loop's first
    iterate.  A plain fit stops there and ignores ``config.anneal``.  A
    robust fit refreshes gamma from the residuals and iterates until the
    gamma change drops below epsilon or max_iter is hit; with a schedule it
    then shrinks tau by delta and goes on, until convergence at tau_min.
    """
    t0 = time.perf_counter()
    if dataset.m < 1:
        raise InvalidInputError("dataset is empty")
    if config.rank_r > dataset.m:
        raise InvalidInputError(
            f"rank_r={config.rank_r} exceeds the number of samples m={dataset.m}")
    factor = pivoted_cholesky(dataset, spec, config.rank_r)
    pre = precompute(factor, dataset.targets, config.lambda_m)
    m = pre.m
    gamma = np.zeros(m)
    step = cccp_step(pre, gamma)
    anneal = config.anneal if robust else None
    tau = config.tau if anneal is None else max(
        anneal.delta * float(np.abs(step.xi).max()), anneal.tau_min)
    params = losses.LossParams(tau=tau, p=config.p)
    changes: list[float] = []
    objectives: list[float] = []
    supports: list[int] = []
    taus: list[float] = []
    converged = not robust

    while True:
        # (lambda/2) ||upsilon||^2 + mean smoothed truncated loss, lambda = lambda_m / m
        objectives.append(config.lambda_m / (2.0 * m) * float(step.upsilon @ step.upsilon)
                          + float(np.mean(losses.smoothed_truncated_loss(step.xi, params))))
        supports.append(step.support_size)
        taus.append(tau)
        if not robust:
            break
        gamma_next = np.asarray(losses.gamma(step.xi, params))
        changes.append(float(np.linalg.norm(gamma_next - gamma)))
        gamma = gamma_next
        if changes[-1] < config.epsilon:
            if anneal is None or tau <= anneal.tau_min:
                converged = True
                break
            tau = max(tau * anneal.delta, anneal.tau_min)
            params = losses.LossParams(tau=tau, p=config.p)
        if len(changes) == config.max_iter:
            break
        step = cccp_step(pre, gamma)

    report = TrainReport(
        iterations=len(objectives),
        converged=converged,
        gamma_change=changes,
        objective=objectives,
        support_sizes=supports,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        rank=factor.r,
        tau_schedule=taus if anneal is not None else None,
        final_state=TrainState(t=len(objectives), gamma=gamma, xi=step.xi,
                               upsilon=step.upsilon, b=step.b,
                               support=np.flatnonzero(np.abs(gamma) > GAMMA_NONZERO_TOL)),
    )
    model = Model(landmarks=dataset.features[list(factor.B)], alpha=step.alpha_B,
                  b=step.b, kernel=spec, task=dataset.task)
    return model, report


def train(dataset: Dataset, spec: KernelSpec,
          config: SolverConfig) -> tuple[Model, TrainReport]:
    """Robust training.

    Runs the CCCP loop from gamma = 0 until the gamma change drops below
    epsilon or max_iter is hit; non-convergence is reported, not raised.
    With ``config.anneal`` set, tau starts at delta * max |warm-start
    residual| (never below tau_min) and shrinks by delta each time the
    loop converges, until it reaches tau_min.  The model carries at most
    rank_r nonzero coefficients by construction.
    """
    return _fit(dataset, spec, config, robust=True)


# Kept only because the benchmark still calls it.  A plain alias, not a
# wrapper, so that a traced fit opens one solver.train span.
train_annealed = train


def train_lssvm(dataset: Dataset, spec: KernelSpec,
                config: SolverConfig) -> tuple[Model, TrainReport]:
    """Plain (non-robust) primal LSSVM on the same low-rank factor.

    This is exactly the warm start of :func:`train`: the single convex
    solve with gamma = 0, reported as one converged iteration at
    ``config.tau``; ``config.anneal`` is ignored.  Used as the robustness
    baseline.
    """
    return _fit(dataset, spec, config, robust=False)
