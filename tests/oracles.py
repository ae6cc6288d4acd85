"""Independent reference routes the tests check the solver and losses against.

None of these run in the package: each recomputes a quantity the shipped
code gets by a faster or more specialised route.  The loss-identity
oracles evaluate the truncated loss, its convex complement L_2, the
entropy-smoothed L_2 and its derivative one formula at a time, where
:func:`srlssvm.losses.gamma` fuses the derivative and the smoothed loss
into one pass.
"""

import time

import numpy as np
from scipy.linalg import cho_solve, lu_factor, lu_solve

from srlssvm import InvalidInputError, LossParams, Model, NumericalError, kernels, predict_raw
from srlssvm.kernels import GAUSSIAN, gram
from srlssvm.losses import EXP_UNDERFLOW
from srlssvm.lowrank import NEG_DIAG_TOL, PIVOT_TIE_TOL, STOP_TOL_PER_ROW, LowRankFactor
from srlssvm.solver import GAMMA_NONZERO_TOL, CccpStep, TrainReport

# largest m the dense reference trainer accepts
DENSE_ORACLE_MAX_M = 500


def kernel_eval(spec, x, z) -> float:
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


def gamma_full_length(xi, params: LossParams):
    """:func:`srlssvm.losses.gamma` as one pass of full-length arrays.

    The shipped routine takes the closed form where e = exp(-p|u|) is
    exactly 0 and evaluates the formula only on the other samples; this
    evaluates it everywhere, with ``exp`` and ``log1p`` masked where p|u|
    reaches ``EXP_UNDERFLOW``.  Both outputs must agree bit for bit.
    """
    xi = np.asarray(xi, dtype=float)
    u = xi * xi - params.tau * params.tau
    p = params.p
    a = -p * np.abs(u)
    near = a > -EXP_UNDERFLOW
    e = np.zeros_like(u)
    np.exp(a, out=e, where=near)
    coeff = xi * np.where(u < 0, e, 1.0) / (1.0 + e)
    soft = np.zeros_like(u)
    np.log1p(e, out=soft, where=near)
    loss = 0.5 * xi * xi - (0.5 * np.maximum(0.0, u) + soft / (2.0 * p))
    return coeff, loss


def smoothed_truncated_loss(xi, params: LossParams):
    """L_sq - smoothed L_2; the objective's per-sample loss term."""
    xi = np.asarray(xi, dtype=float)
    return 0.5 * xi * xi - smoothed_l2(xi, params)


def objective(model_or_state, dataset, config) -> float:
    """Smoothed robust objective of a model or training state.

    For a model the quadratic term alpha^T K alpha is evaluated on the
    landmark block; for a state it is ||upsilon||^2, the same quantity
    expressed through the factor.
    """
    params = LossParams(tau=config.tau, p=config.p)
    if isinstance(model_or_state, Model):
        model = model_or_state
        xi = dataset.targets - predict_raw(model, dataset.features)
        quad = float(model.alpha @ gram(model.kernel, model.landmarks) @ model.alpha)
    else:
        xi = model_or_state.xi
        quad = float(model_or_state.upsilon @ model_or_state.upsilon)
    return config.lambda_m / (2.0 * dataset.m) * quad + float(
        np.mean(smoothed_truncated_loss(xi, params)))


def pivoted_cholesky_columnwise(dataset, spec, r: int) -> LowRankFactor:
    """:func:`srlssvm.pivoted_cholesky` one column at a time.

    Each pivot t subtracts ``P[:, :t] @ P[j, :t]`` from its kernel column,
    which reads the whole factor so far again; the shipped routine forms
    those updates for a block of candidate pivots in one GEMM.  Same pivot
    rule, tie-break, stopping rule and exact zeros, so the pivots must be
    identical and P equal up to rounding.
    """
    X = np.asarray(getattr(dataset, "features", dataset), dtype=float)
    m = X.shape[0]
    tol = STOP_TOL_PER_ROW * m
    d = np.asarray(kernels.kernel_diag(spec, dataset), dtype=float).copy()
    P = np.zeros((m, r))
    rows = kernels.prepare_rows(spec, dataset)
    pivots: list[int] = []
    history = [float(d.sum())]
    for t in range(r):
        if d.min() < NEG_DIAG_TOL:
            raise NumericalError(f"residual diagonal fell below {NEG_DIAG_TOL} "
                                 f"at pivot step {t}")
        np.maximum(d, 0.0, out=d)
        dmax = d.max()
        if dmax <= tol:
            break
        j = int(np.argmax(d >= dmax - PIVOT_TIE_TOL))
        root = np.sqrt(d[j])
        col = kernels.kernel_column(spec, rows, j)
        col -= P[:, :t] @ P[j, :t]
        col /= root
        col[pivots] = 0.0
        col[j] = root
        P[:, t] = col
        d -= col * col
        d[j] = 0.0
        pivots.append(j)
        history.append(float(np.maximum(d, 0.0).sum()))
    if not pivots:
        raise NumericalError("zero kernel matrix")
    return LowRankFactor(P=np.ascontiguousarray(P[:, :len(pivots)]), B=tuple(pivots),
                         residual_trace=history[-1], trace_history=tuple(history))


def cccp_step_direct(pre, gamma_t) -> CccpStep:
    """Reference update solving the centered system from scratch.

    Algebraically identical to :func:`srlssvm.cccp_step`; the independent
    route for cross-checking the fast path.
    """
    g = np.asarray(gamma_t, dtype=float)
    P = pre.factor.P
    m = pre.m
    if g.shape != (m,):
        raise InvalidInputError(f"gamma must have length m={m}")
    z = pre.y - g
    z = z - z.sum() / m
    upsilon = cho_solve(pre.J_cho, P.T @ z)
    b = float(((pre.y - g).sum() - pre.P_hat @ upsilon) / m)
    xi = pre.y - P @ upsilon - b
    return CccpStep(upsilon, b, xi,
                    support_size=int(np.count_nonzero(np.abs(g) > GAMMA_NONZERO_TOL)))


def dense_reference_train(dataset, spec, config):
    """Small-scale dense CCCP oracle (m <= DENSE_ORACLE_MAX_M enforced).

    Iterates the full (m+1)-dimensional centered linear system

        [[m*lambda I_m + K, e], [e^T, 0]] [beta; b] = [y - gamma; 0]

    with the same smoothed gamma refresh and stop rule as ``train``.
    Every training point is a potential support vector here.  The system
    matrix is factored once and reused across iterations.
    """
    t0 = time.perf_counter()
    m = dataset.m
    if m > DENSE_ORACLE_MAX_M:
        raise InvalidInputError(
            f"dense reference solver is a test oracle; m={m} exceeds {DENSE_ORACLE_MAX_M}")
    K = gram(spec, dataset.features)
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = config.lambda_m * np.eye(m) + K
    A[:m, m] = 1.0
    A[m, :m] = 1.0
    lu = lu_factor(A)

    params = LossParams(tau=config.tau, p=config.p)
    y = dataset.targets
    gamma_prev = np.zeros(m)
    changes: list[float] = []
    objectives: list[float] = []
    supports: list[int] = []
    converged = False
    beta = np.zeros(m)
    b = 0.0
    gamma_next = gamma_prev

    for _ in range(config.max_iter):
        sol = lu_solve(lu, np.concatenate([y - gamma_prev, [0.0]]))
        beta, b = sol[:m], float(sol[m])
        xi = y - K @ beta - b
        gamma_next = smoothed_l2_grad(xi, params)
        change = float(np.linalg.norm(gamma_next - gamma_prev))
        changes.append(change)
        quad = float(beta @ K @ beta)
        objectives.append(config.lambda_m / (2.0 * m) * quad + float(
            np.mean(smoothed_truncated_loss(xi, params))))
        supports.append(int(np.count_nonzero(np.abs(gamma_prev) > GAMMA_NONZERO_TOL)))
        if change < config.epsilon:
            converged = True
            break
        gamma_prev = gamma_next

    model = Model(landmarks=dataset.features.copy(), alpha=beta, b=b,
                  kernel=spec, task=dataset.task)
    report = TrainReport(
        iterations=len(changes),
        converged=converged,
        gamma_change=changes,
        objective=objectives,
        support_sizes=supports,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        rank=m,
    )
    return model, report


def omega_penalty(omega, tau):
    """Penalty (tau^2 / 2) * max(1 - omega, 0) paired with the weight variable."""
    omega = np.asarray(omega, dtype=float)
    return 0.5 * tau * tau * np.maximum(1.0 - omega, 0.0)


def reweighted_identity_check(xi_grid, tau) -> bool:
    """True iff min over omega in {0, 1} of omega*xi^2/2 + penalty(omega)
    reproduces the truncated loss at every grid point, and the minimizing
    omega is 1 (inlier) exactly where |xi| <= tau, the boundary included.

    The objective is piecewise linear in omega, so its minimum over the
    nonnegative reals is attained at omega = 0 or omega = 1; checking the
    two candidates is exact.  Empty grids pass vacuously.
    """
    xi = np.asarray(xi_grid, dtype=float)
    if xi.size == 0:
        return True
    at_zero = 0.5 * 0.0 * xi * xi + omega_penalty(0.0, tau)
    at_one = 0.5 * 1.0 * xi * xi + omega_penalty(1.0, tau)
    # ties (|xi| == tau) go to omega = 1, the inlier branch
    argmin_omega = np.where(at_one <= at_zero, 1.0, 0.0)
    return bool(np.array_equal(np.minimum(at_zero, at_one), truncated_loss(xi, tau))
                and np.array_equal(argmin_omega, np.where(np.abs(xi) <= tau, 1.0, 0.0)))
