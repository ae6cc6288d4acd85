"""Independent reference routes the tests check the solver and losses against.

None of these run in the package: each recomputes a quantity the shipped
code gets by a faster or more specialised route.
"""

import time

import numpy as np
from scipy.linalg import cho_solve, lu_factor, lu_solve, solve_triangular

from srlssvm import InvalidInputError, Model, losses, predict_raw
from srlssvm.kernels import GAUSSIAN, gram
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


def objective(model_or_state, dataset, config) -> float:
    """Smoothed robust objective of a model or training state.

    For a model the quadratic term alpha^T K alpha is evaluated on the
    landmark block; for a state it is ||upsilon||^2, the same quantity
    expressed through the factor.
    """
    params = losses.LossParams(tau=config.tau, p=config.p)
    if isinstance(model_or_state, Model):
        model = model_or_state
        xi = dataset.targets - predict_raw(model, dataset.features)
        quad = float(model.alpha @ gram(model.kernel, model.landmarks) @ model.alpha)
    else:
        xi = model_or_state.xi
        quad = float(model_or_state.upsilon @ model_or_state.upsilon)
    return config.lambda_m / (2.0 * dataset.m) * quad + float(
        np.mean(losses.smoothed_truncated_loss(xi, params)))


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
    alpha_B = solve_triangular(pre.factor.P_B.T, upsilon, lower=False)
    b = float(((pre.y - g).sum() - pre.P_hat @ upsilon) / m)
    xi = pre.y - P @ upsilon - b
    return CccpStep(upsilon, alpha_B, b, xi,
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

    params = losses.LossParams(tau=config.tau, p=config.p)
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
        gamma_next = np.asarray(losses.gamma(xi, params))
        change = float(np.linalg.norm(gamma_next - gamma_prev))
        changes.append(change)
        quad = float(beta @ K @ beta)
        objectives.append(config.lambda_m / (2.0 * m) * quad + float(
            np.mean(losses.smoothed_truncated_loss(xi, params))))
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
    return bool(np.array_equal(np.minimum(at_zero, at_one), losses.truncated_loss(xi, tau))
                and np.array_equal(argmin_omega, np.where(np.abs(xi) <= tau, 1.0, 0.0)))
