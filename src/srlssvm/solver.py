"""Training engine for the sparse robust least-squares SVM.

Training minimizes

    (lambda / 2) alpha^T K alpha + (1/m) sum_i L_tau(y_i - K_i alpha - b)

over a rank-r factor P P^T ~ K.  The nonconvex truncated loss is handled
by a CCCP loop: each iteration solves the convex least-squares problem
obtained by linearizing the concave part at the current residuals, which
reduces to one r x r solve against the fixed matrix

    J = m*lambda I_r + P^T P - (P^T e)(P^T e)^T / m,

factored once.  Iterates are tracked through upsilon = P^T alpha alone.
The sparse coefficients alpha_B = (P_B^T)^(-1) upsilon over the landmark
rows are recovered once, by back-substitution, when the loop ends; every
other coefficient is exactly zero.  With gamma = 0 the first step is the
plain (non-robust) primal LSSVM solution, which therefore serves as the
warm start.

The trainers run their BLAS calls on one thread and restore the caller's
OpenBLAS thread counts on return: at r up to a few hundred, waking a
threaded BLAS for every small product costs more than it saves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
from scipy.linalg import cho_factor, get_lapack_funcs, solve_triangular

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
# LAPACK's triangular solve on a Cholesky factor, called without the input
# checks of scipy.linalg.cho_solve, which cost more than the solve at r ~ 64
_potrs = get_lapack_funcs("potrs", dtype=np.float64)


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
        if not (np.isfinite(self.lambda_m) and self.lambda_m > 0):
            raise InvalidInputError("lambda_m must be finite and > 0")
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise InvalidInputError("tau must be finite and >= 0")
        if not (np.isfinite(self.p) and self.p > 0):
            raise InvalidInputError("p must be finite and > 0")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidInputError("epsilon must be finite and > 0")
        for name in ("rank_r", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Precomputed:
    """Per-training constants shared by every CCCP step."""

    J_cho: tuple             # Cholesky factor of J, the only solve a step needs
    P_hat: np.ndarray        # P^T e
    upsilon_LS: np.ndarray   # J^(-1)(P^T y - mean(y) P_hat), the plain primal LSSVM
    factor: LowRankFactor
    y: np.ndarray

    @property
    def m(self) -> int:
        return self.factor.m


def precompute(factor: LowRankFactor, y, lambda_m: float) -> Precomputed:
    """Assemble and factor J, and solve for the warm start."""
    if not (np.isfinite(lambda_m) and lambda_m > 0):
        raise InvalidInputError("lambda_m must be finite and > 0")
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

    upsilon_LS = _solve_j(J_cho, P.T @ y - (y.sum() / m) * P_hat)
    return Precomputed(J_cho, P_hat, upsilon_LS, factor, y)


def _solve_j(J_cho, rhs) -> np.ndarray:
    """J^(-1) rhs from J's Cholesky factor, as scipy.linalg.cho_solve gives it."""
    x, info = _potrs(J_cho[0], rhs, lower=J_cho[1])
    if info != 0:
        raise NumericalError(f"LAPACK potrs failed on J (info={info})")
    return x


@dataclass(frozen=True)
class CccpStep:
    """One convex-subproblem solution in compressed form."""

    upsilon: np.ndarray
    b: float
    xi: np.ndarray
    support_size: int  # |S_t| of the gamma that produced this step


def cccp_step(pre: Precomputed, gamma_t) -> CccpStep:
    """Sparse fast update from the warm start.

    upsilon = upsilon_LS - J^(-1) (P_S^T gamma_S - (e^T gamma / m) P_hat);
    only the nonzero entries of gamma touch P, so the correction costs
    O(|S_t| r + r^2) on top of the O(m r) residual refresh.  The sparse
    coefficients are not formed here: the loop recovers them from the last
    step's upsilon.
    """
    g = np.asarray(gamma_t, dtype=float)
    P = pre.factor.P
    m = pre.m
    if g.shape != (m,):
        raise InvalidInputError(f"gamma must have length m={m}")
    S = np.flatnonzero(np.abs(g) > GAMMA_NONZERO_TOL)
    q = P[S].T @ g[S] - (g.sum() / m) * pre.P_hat
    upsilon = pre.upsilon_LS - _solve_j(pre.J_cho, q)
    b = float(((pre.y - g).sum() - pre.P_hat @ upsilon) / m)
    xi = pre.y - P @ upsilon - b
    return CccpStep(upsilon, b, xi, support_size=len(S))


@dataclass(frozen=True)
class TrainState:
    """Solver state after the last iteration; ``gamma`` is the refreshed coefficient."""

    gamma: np.ndarray
    xi: np.ndarray
    upsilon: np.ndarray
    b: float


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
def _fit(dataset: Dataset, spec: KernelSpec, configs: list[SolverConfig],
         robust: bool) -> list[tuple[Model, TrainReport]]:
    """The CCCP loop every trainer runs, once per config.

    The factor is built once for all of ``configs``, which share rank_r.
    ``precompute`` and the gamma = 0 step run once per distinct lambda_m:
    that step is the plain primal LSSVM and the loop's first iterate, and
    it does not depend on tau.  A plain fit stops there and ignores
    ``config.anneal``.  A robust fit refreshes gamma from the residuals and
    iterates until the gamma change drops below epsilon or max_iter is hit;
    with a schedule it then shrinks tau by delta and goes on, until
    convergence at tau_min.

    Each report's wall time runs from the end of the previous config's
    model (the call's start for the first), so it covers the shared work
    its config was first to need, and the times sum to the call's.
    """
    t0 = time.perf_counter()
    factor = pivoted_cholesky(dataset, spec, configs[0].rank_r)
    m = factor.m
    warm: dict[float, tuple[Precomputed, CccpStep]] = {}
    results = []
    for config in configs:
        if config.lambda_m not in warm:
            pre = precompute(factor, dataset.targets, config.lambda_m)
            warm[config.lambda_m] = (pre, cccp_step(pre, np.zeros(m)))
        pre, step = warm[config.lambda_m]
        gamma = np.zeros(m)
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
            gamma_next, loss = losses.gamma(step.xi, params)
            # (lambda/2) ||upsilon||^2 + mean smoothed truncated loss, lambda = lambda_m / m
            objectives.append(config.lambda_m / (2.0 * m) * float(step.upsilon @ step.upsilon)
                              + float(np.mean(loss)))
            supports.append(step.support_size)
            taus.append(tau)
            if not robust:
                break
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

        # P_B^T is upper triangular, so this back-substitution is O(r^2)
        alpha_B = solve_triangular(factor.P_B.T, step.upsilon, lower=False)
        model = Model(landmarks=dataset.features[list(factor.B)], alpha=alpha_B,
                      b=step.b, kernel=spec, task=dataset.task)
        t1 = time.perf_counter()
        report = TrainReport(
            iterations=len(objectives),
            converged=converged,
            gamma_change=changes,
            objective=objectives,
            support_sizes=supports,
            wall_time_ms=(t1 - t0) * 1e3,
            rank=factor.r,
            tau_schedule=taus if anneal is not None else None,
            final_state=TrainState(gamma=gamma, xi=step.xi, upsilon=step.upsilon, b=step.b),
        )
        t0 = t1
        results.append((model, report))
    return results


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
    return _fit(dataset, spec, [config], robust=True)[0]


def train_many(dataset: Dataset, spec: KernelSpec,
               configs) -> list[tuple[Model, TrainReport]]:
    """Robust training of one model per config on one dataset and kernel.

    Every fit equals ``train(dataset, spec, config)`` bit for bit, but the
    configs share work: the pivoted-Cholesky factor is built once, since it
    depends only on the rows, the kernel and rank_r, and ``precompute`` and
    the gamma = 0 warm start run once per distinct lambda_m, since they do
    not depend on tau.  Returns one ``(model, report)`` per config, in
    order; each model has its own copy of the landmark rows.  A report's
    ``wall_time_ms`` covers its own CCCP loop plus the shared work it was
    the first config to need, so the times of one call sum to its wall
    time.  An empty list, or configs whose rank_r differ, is an
    ``InvalidInputError``.
    """
    configs = list(configs)
    if not configs:
        raise InvalidInputError("train_many needs at least one config")
    if len({config.rank_r for config in configs}) > 1:
        raise InvalidInputError("train_many configs must share rank_r")
    return _fit(dataset, spec, configs, robust=True)


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
    return _fit(dataset, spec, [config], robust=False)[0]
