import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srlssvm import InvalidInputError, LossParams, gamma

from oracles import gamma_full_length, l2_part, reweighted_identity_check, smoothed_l2, \
    smoothed_l2_grad, smoothed_truncated_loss, truncated_loss

finite_xi = st.floats(-50, 50, allow_nan=False)


def test_params_validation():
    with pytest.raises(InvalidInputError):
        LossParams(tau=-0.1)
    with pytest.raises(InvalidInputError):
        LossParams(tau=1.0, p=0.0)
    assert LossParams(tau=0.0).p == 1e4


def test_truncated_loss_values():
    assert truncated_loss(0.0, 1.2) == 0.0
    assert truncated_loss(1.0, 1.2) == 0.5
    assert truncated_loss(2.0, 1.2) == pytest.approx(0.72, abs=1e-15)
    assert truncated_loss(2.0, 1.2) == 0.5 * 1.2 * 1.2  # plateau is tau^2/2


def test_l2_part_values():
    assert l2_part(0.5, 1.2) == 0.0
    assert l2_part(2.0, 1.2) == pytest.approx(0.5 * (4 - 1.44), abs=1e-15)


def test_dc_identity_grid():
    # L_sq - L_2 = L_tau; exact where the float subtraction is exact
    # (|xi| <= tau branch), within 2 ulp of the leading term elsewhere
    for tau in (0.5, 1.2, 2.0):
        xi = np.linspace(-5 * tau, 5 * tau, 2001)
        lhs = 0.5 * xi * xi - l2_part(xi, tau)
        rhs = truncated_loss(xi, tau)
        inner = np.abs(xi) <= tau
        assert np.array_equal(lhs[inner], rhs[inner])
        ulp = np.spacing(0.5 * xi * xi)
        assert np.all(np.abs(lhs - rhs) <= 2 * ulp)


def test_smoothed_l2_at_tau():
    for p in (10.0, 1e2, 1e4):
        params = LossParams(tau=1.3, p=p)
        assert smoothed_l2(1.3, params) == pytest.approx(math.log(2) / (2 * p), rel=1e-12)


def test_smoothing_gap_bound():
    for p in (10.0, 1e2, 1e4):
        params = LossParams(tau=1.0, p=p)
        xi = np.linspace(-5.0, 5.0, 20001)
        gap = np.abs(smoothed_l2(xi, params) - l2_part(xi, 1.0))
        assert gap.max() <= math.log(2) / p


def test_smoothed_l2_far_plateau_high_precision():
    # reference value from an mpmath evaluation of the smoothed formula
    import mpmath as mp

    mp.mp.dps = 60
    u = mp.mpf(10) ** 2 - 1
    p = mp.mpf(10) ** 4
    expected = mp.mpf(1) / 2 * u + mp.log(1 + mp.e ** (-p * u)) / (2 * p)
    got = smoothed_l2(10.0, LossParams(tau=1.0, p=1e4))
    assert got == pytest.approx(49.5, abs=1e-6)
    assert got == pytest.approx(float(expected), rel=1e-12)


def test_grad_at_zero_and_tau():
    params = LossParams(tau=1.3, p=1e4)
    assert smoothed_l2_grad(0.0, params) == 0.0
    assert smoothed_l2_grad(1.3, params) == pytest.approx(1.3 / 2, rel=1e-12)


def test_grad_matches_finite_differences():
    params = LossParams(tau=1.0, p=1e4)
    h = 1e-6
    for xi in (0.7, -0.4, 1.6, 2.5, -3.0):
        fd = (smoothed_l2(xi + h, params) - smoothed_l2(xi - h, params)) / (2 * h)
        assert smoothed_l2_grad(xi, params) == pytest.approx(fd, abs=1e-4)


def test_gamma_regimes():
    params = LossParams(tau=1.0, p=1e4)
    assert abs(gamma(0.5, params)[0]) < 1e-10
    assert gamma(2.0, params)[0] == pytest.approx(2.0, abs=1e-10)
    assert gamma(1.0, params)[0] == pytest.approx(0.5, rel=1e-12)


def test_gamma_fuses_the_oracle_gradient_and_loss():
    # the acceptance grid, plus tau = 0, xi = 0, xi = +-tau and the far plateau
    for tau in (0.0, 0.5, 1.2, 2.0):
        span = 10 * tau if tau else 10.0
        xi = np.concatenate([np.linspace(-span, span, 100_000), [0.0, tau, -tau, 50.0, -50.0]])
        for p in (10.0, 1e2, 1e4):
            params = LossParams(tau=tau, p=p)
            coeff, loss = gamma(xi, params)
            assert np.array_equal(coeff, smoothed_l2_grad(xi, params))
            assert np.array_equal(loss, smoothed_truncated_loss(xi, params))


def test_gamma_masked_exp_is_bit_identical_around_underflow():
    # gamma evaluates exp and log1p only where p|u| < EXP_UNDERFLOW; the
    # unmasked oracles must agree bit for bit at, below and above that
    # level, on either side of u = 0, for negative residuals too, and
    # across exp's own underflow near 745.13
    from srlssvm.losses import EXP_UNDERFLOW

    # p |u| = 186.5 * 4 = 746 exactly at xi = +-2, tau = 0
    params = LossParams(tau=0.0, p=EXP_UNDERFLOW / 4.0)
    xi = np.array([2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)])
    xi = np.concatenate([xi, -xi])
    assert (params.p * xi[[0, 3]] ** 2 == EXP_UNDERFLOW).all()
    cases = [(xi, params)]
    for tau, p in ((1.0, 1e4), (0.3, 1e4), (1.2, 1e3)):
        level = np.concatenate([np.linspace(740.0, 752.0, 4001), [745.13, 745.14, EXP_UNDERFLOW]])
        mags = np.concatenate([np.sqrt(tau * tau + level / p), np.sqrt(tau * tau - level / p)])
        mags = np.concatenate([mags, np.nextafter(mags, 0.0), np.nextafter(mags, np.inf)])
        cases.append((np.concatenate([mags, -mags]), LossParams(tau=tau, p=p)))
    for xi, params in cases:
        coeff, loss = gamma(xi, params)
        a = params.p * np.abs(xi * xi - params.tau * params.tau)
        assert (a < EXP_UNDERFLOW).any() and (a >= EXP_UNDERFLOW).any()
        assert np.array_equal(coeff, smoothed_l2_grad(xi, params))
        assert np.array_equal(loss, smoothed_truncated_loss(xi, params))


def test_gamma_matches_the_full_length_formula():
    # gamma evaluates the formula only where p|u| < EXP_UNDERFLOW and the
    # closed form elsewhere; samples near +-tau, at +-0 and at +-tau
    # exactly must come out as the full-length formula's, bit for bit
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(1, 3000))
        tau = float(rng.choice([0.0, rng.uniform(0.01, 3.0)]))
        p = float(rng.choice([10.0, 1e2, 1e4, rng.uniform(1.0, 1e5)]))
        xi = rng.standard_normal(m) * rng.uniform(0.1, 5.0)
        k = max(1, m // 10)
        xi[rng.integers(0, m, k)] = rng.choice([-1.0, 1.0], k) * (
            tau + rng.standard_normal(k) * rng.choice([1e-6, 1e-3, 1e-1]))
        xi[rng.integers(0, m, k)] = rng.choice([0.0, -0.0, tau, -tau], k)
        params = LossParams(tau=tau, p=p)
        coeff, loss = gamma(xi, params)
        want_coeff, want_loss = gamma_full_length(xi, params)
        assert coeff.tobytes() == want_coeff.tobytes()
        assert loss.tobytes() == want_loss.tobytes()


@pytest.mark.parametrize("xi", [0.5, -1.0, 2.0, np.zeros((2, 3)), np.full((3, 1), 1.0)])
def test_gamma_keeps_the_shape_of_its_input(xi):
    params = LossParams(tau=1.0, p=1e3)
    for got, want in zip(gamma(xi, params), gamma_full_length(xi, params)):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def test_reweighted_identity_small_grid():
    tau = 1.0
    assert reweighted_identity_check([0.0, tau / 2, tau, 2 * tau], tau)


def test_reweighted_identity_dense_grid_with_omega_oracle():
    tau = 1.2
    xi = np.linspace(-5.0, 5.0, 1000)
    assert reweighted_identity_check(xi, tau)
    # independent oracle: brute-force minimization over an omega grid
    omegas = np.arange(0.0, 3.0 + 1e-9, 1e-3)
    objective = 0.5 * omegas[None, :] * (xi * xi)[:, None] \
        + 0.5 * tau * tau * np.maximum(1.0 - omegas[None, :], 0.0)
    brute = objective.min(axis=1)
    np.testing.assert_allclose(brute, truncated_loss(xi, tau), atol=1e-6)


def test_reweighted_identity_empty_grid():
    assert reweighted_identity_check([], 1.0)


def test_smoothed_truncated_loss_caps_at_plateau():
    params = LossParams(tau=1.0, p=1e4)
    val = gamma(3.0, params)[1]
    assert val == pytest.approx(0.5, abs=math.log(2) / 1e4)


@given(xi=finite_xi, tau=st.floats(0, 5, allow_nan=False))
def test_dc_identity_property(xi, tau):
    lhs = 0.5 * xi * xi - float(l2_part(xi, tau))
    rhs = float(truncated_loss(xi, tau))
    assert lhs == pytest.approx(rhs, abs=4 * np.spacing(0.5 * xi * xi) + 1e-300)


@given(xi=finite_xi)
def test_gamma_odd_and_monotone_sign(xi):
    params = LossParams(tau=1.0, p=100.0)
    assert float(gamma(-xi, params)[0]) == -float(gamma(xi, params)[0])
    if xi >= 0:
        assert float(gamma(xi, params)[0]) >= 0.0


@given(xi=finite_xi, p=st.sampled_from([10.0, 1e2, 1e4]))
def test_smoothing_gap_property(xi, p):
    params = LossParams(tau=1.0, p=p)
    gap = abs(float(smoothed_l2(xi, params)) - float(l2_part(xi, 1.0)))
    assert gap <= math.log(2) / p
