import numpy as np
import pytest

from diffguide.schedule import (
    forward_sample,
    linear_schedule,
    reverse_coefficients,
    schedule_from_betas,
)

from reference import coupled_pair


def test_linear_schedule_endpoints(schedule400):
    assert schedule400.beta(1) == 1e-4
    assert schedule400.beta(400) == 0.02
    assert schedule400.alpha_bar(1) == pytest.approx(0.9999, abs=1e-15)


def test_alpha_bar_product_oracle(schedule400):
    # independent oracle: plain running product in float64
    prod = 1.0
    for t in range(1, 401):
        prod *= 1.0 - schedule400.beta(t)
        assert schedule400.alpha_bar(t) == pytest.approx(prod, rel=1e-13)
    assert schedule400.alpha_bar(400) < 0.05
    assert np.all(np.diff(schedule400.alpha_bars) < 0)


def test_alpha_bar_recurrence(schedule400):
    # one unit of round-off per multiply
    for t in range(2, 401):
        step = schedule400.alpha_bar(t - 1) * schedule400.alpha(t)
        assert schedule400.alpha_bar(t) == pytest.approx(step, rel=1e-15)


def test_sqrt_one_minus_alpha_bar_increasing(schedule400):
    assert np.all(np.diff(np.sqrt(1.0 - schedule400.alpha_bars)) > 0)


@pytest.mark.parametrize("bad", [(1, 1e-4, 0.02), (0, 1e-4, 0.02)])
def test_linear_schedule_rejects_small_T(bad):
    with pytest.raises(ValueError):
        linear_schedule(*bad)


@pytest.mark.parametrize("lo,hi", [(0.0, 0.02), (1e-4, 1.0), (0.02, 1e-4), (-0.1, 0.5)])
def test_linear_schedule_rejects_bad_betas(lo, hi):
    with pytest.raises(ValueError):
        linear_schedule(10, lo, hi)


def test_forward_sample_zero_noise(schedule400):
    x0 = np.array([1.5, -2.0])
    out = forward_sample(schedule400, x0, 123, np.zeros(2))
    assert np.array_equal(out, np.sqrt(schedule400.alpha_bar(123)) * x0)


def test_forward_sample_near_identity_at_t1(schedule400):
    x0 = np.array([2.0, 0.0])
    eps = np.array([0.6, 0.8])  # unit norm
    out = forward_sample(schedule400, x0, 1, eps)
    assert np.linalg.norm(out - x0) <= 1e-2 * np.linalg.norm(x0)


def test_forward_sample_scalar_case():
    # alpha_bar = 0.25 after one step of beta = 0.75
    sch = schedule_from_betas([0.75])
    out = forward_sample(sch, np.array([1.0]), 1, np.array([2.0]))
    expected = 0.5 * 1.0 + np.sqrt(0.75) * 2.0  # = 2.2320508...
    assert out[0] == pytest.approx(expected, abs=1e-12)
    assert out[0] == pytest.approx(2.2320508, abs=1e-7)


def test_forward_sample_dimension_mismatch(schedule400):
    with pytest.raises(ValueError):
        forward_sample(schedule400, np.zeros(2), 10, np.zeros(3))
    with pytest.raises(ValueError):
        forward_sample(schedule400, np.zeros(2), 0, np.zeros(2))
    with pytest.raises(ValueError):
        forward_sample(schedule400, np.zeros(2), 401, np.zeros(2))


def test_forward_sample_affine_in_x0(schedule400):
    rng = np.random.default_rng(0)
    eps = rng.standard_normal(2)
    a, b = rng.standard_normal(2), rng.standard_normal(2)
    t = 200
    lhs = forward_sample(schedule400, a + b, t, eps)
    rhs = (
        forward_sample(schedule400, a, t, eps)
        + forward_sample(schedule400, b, t, eps)
        - forward_sample(schedule400, np.zeros(2), t, eps)
    )
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)
    slope = forward_sample(schedule400, a, t, np.zeros(2)) / a
    np.testing.assert_allclose(slope, np.sqrt(schedule400.alpha_bar(t)), rtol=1e-14)


def test_coupled_pair_zero_noise(schedule400):
    x0 = np.array([1.0, -1.0])
    x_t, x_tm1 = coupled_pair(schedule400, x0, 50, np.zeros(2))
    want = (np.sqrt(schedule400.alpha_bar(50)) - np.sqrt(schedule400.alpha_bar(49))) * x0
    np.testing.assert_allclose(x_t - x_tm1, want, rtol=0, atol=1e-15)


def test_coupled_pair_degenerate_equal_schedule():
    sch = schedule_from_betas([0.1, 0.0], allow_degenerate=True)  # abar_2 == abar_1
    x_t, x_tm1 = coupled_pair(sch, np.array([0.3, 0.7]), 2, np.array([1.0, -2.0]))
    assert np.array_equal(x_t, x_tm1)


def test_coupled_pair_scalar_case():
    # alpha_bar_1 = 0.81, alpha_bar_2 = 0.64
    sch = schedule_from_betas([0.19, 1.0 - 0.64 / 0.81])
    x_t, x_tm1 = coupled_pair(sch, np.array([1.0]), 2, np.array([1.0]))
    assert x_t[0] == pytest.approx(0.8 + 0.6, abs=1e-12)
    assert x_tm1[0] == pytest.approx(0.9 + np.sqrt(0.19), abs=1e-12)
    assert x_tm1[0] == pytest.approx(1.3358899, abs=1e-7)


def test_coupled_pair_rejects_t1(schedule400):
    with pytest.raises(ValueError):
        coupled_pair(schedule400, np.zeros(2), 1, np.zeros(2))


def test_coupled_pair_deterministic(schedule400):
    x0, eps = np.array([0.2, 0.4]), np.array([-1.0, 0.5])
    a = coupled_pair(schedule400, x0, 17, eps)
    b = coupled_pair(schedule400, x0, 17, eps)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_reverse_coefficients_no_noise_limit():
    sch = schedule_from_betas([1e-12, 1e-12])
    cx, ce, s2 = reverse_coefficients(sch, 2)
    assert cx == pytest.approx(1.0, abs=1e-9)
    assert ce == pytest.approx(0.0, abs=1e-5)
    assert s2 == pytest.approx(0.0, abs=1e-11)


def test_reverse_coefficients_sigma_modes(schedule400):
    assert reverse_coefficients(schedule400, 1)[2] == schedule400.beta(1)
    sch_tilde = linear_schedule(400, 1e-4, 0.02, posterior_variance_mode="beta_tilde_t")
    assert sch_tilde.sigma_sq(1) == sch_tilde.beta(1)
    for t in [2, 17, 400]:
        want = (
            sch_tilde.beta(t)
            * (1.0 - sch_tilde.alpha_bar(t - 1))
            / (1.0 - sch_tilde.alpha_bar(t))
        )
        assert sch_tilde.sigma_sq(t) == pytest.approx(want, rel=1e-15)
        assert sch_tilde.sigma_sq(t) < sch_tilde.beta(t)


def test_reverse_coefficients_scalar_case():
    # beta_t = 0.02 with alpha_bar_t = 0.5 at t = 2
    b2 = 0.02
    ab2 = 0.5
    b1 = 1.0 - ab2 / (1.0 - b2)
    sch = schedule_from_betas([b1, b2])
    cx, ce, s2 = reverse_coefficients(sch, 2)
    assert cx == pytest.approx(1.0 / np.sqrt(0.98), rel=1e-14)
    assert ce == pytest.approx(0.02 / (np.sqrt(0.98) * np.sqrt(0.5)), rel=1e-14)
    assert cx == pytest.approx(1.0101525, abs=1e-7)
    assert ce == pytest.approx(0.0285714, abs=1e-7)
    assert s2 == 0.02


def test_reverse_coefficients_range(schedule400):
    with pytest.raises(ValueError):
        reverse_coefficients(schedule400, 0)
    with pytest.raises(ValueError):
        reverse_coefficients(schedule400, 401)


def test_schedule_immutable(schedule400):
    with pytest.raises(ValueError):
        schedule400.betas[0] = 0.5
