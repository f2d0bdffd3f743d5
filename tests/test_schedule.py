import warnings

import numpy as np
import pytest

from diffguide.schedule import forward_sample, linear_schedule, schedule_from_betas

from reference import alpha_bar_product, coupled_pair, ddpm_reverse_terms

_TABLES = ("alpha_bar", "sqrt_alpha_bar", "sqrt_one_minus_alpha_bar", "sigma_sq", "mean_coeff_x", "mean_coeff_eps")


def test_linear_schedule_endpoints(schedule400):
    assert schedule400.betas[0] == 1e-4
    assert schedule400.betas[399] == 0.02
    assert schedule400.alpha_bar[0] == 1.0  # row 0 is clean data
    assert schedule400.alpha_bar[1] == pytest.approx(0.9999, abs=1e-15)
    for name in _TABLES:
        assert getattr(schedule400, name).shape == (401,)


def test_alpha_bar_product_oracle(schedule400):
    # independent oracle: plain running product in float64
    prod = 1.0
    for t in range(1, 401):
        prod *= 1.0 - schedule400.betas[t - 1]
        assert schedule400.alpha_bar[t] == pytest.approx(prod, rel=1e-13)
    assert schedule400.alpha_bar[400] < 0.05
    assert np.all(np.diff(schedule400.alpha_bar) < 0)


def test_alpha_bar_recurrence(schedule400):
    # one unit of round-off per multiply
    for t in range(1, 401):
        step = schedule400.alpha_bar[t - 1] * (1.0 - schedule400.betas[t - 1])
        assert schedule400.alpha_bar[t] == pytest.approx(step, rel=1e-15)


def test_sqrt_one_minus_alpha_bar_increasing(schedule400):
    assert np.all(np.diff(schedule400.sqrt_one_minus_alpha_bar) > 0)
    assert np.array_equal(schedule400.sqrt_one_minus_alpha_bar, np.sqrt(1.0 - schedule400.alpha_bar))
    assert np.array_equal(schedule400.sqrt_alpha_bar, np.sqrt(schedule400.alpha_bar))


@pytest.mark.parametrize("mode", ["beta_t", "beta_tilde_t"])
@pytest.mark.parametrize("T", [12, 60, 400, 1000])
def test_tables_equal_the_ddpm_recipe_bitwise(T, mode):
    # the running product and the written-out DDPM formulas of the reference,
    # step by step, against the tables built once
    sch = linear_schedule(T, 1e-4, 0.02, posterior_variance_mode=mode)
    for t in range(0, T + 1):
        assert sch.alpha_bar[t] == alpha_bar_product(sch, t)
    for t in range(1, T + 1):
        assert (sch.mean_coeff_x[t], sch.mean_coeff_eps[t], sch.sigma_sq[t]) == ddpm_reverse_terms(sch, t)


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
    assert np.array_equal(out, np.sqrt(alpha_bar_product(schedule400, 123)) * x0)


@pytest.mark.parametrize("betas", [np.linspace(1e-4, 0.02, 400), np.zeros(6)], ids=["linear", "beta-zero"])
def test_forward_sample_step_per_row_equals_per_step_calls(betas):
    sch = schedule_from_betas(betas, allow_degenerate=True)
    rng = np.random.default_rng(11)
    n = 40
    x0, eps = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    ts = rng.integers(0, sch.T + 1, size=n)
    ts[:3] = 0  # clean rows among them
    out = forward_sample(sch, x0, ts, eps)
    for i, t in enumerate(ts):
        assert np.array_equal(out[i], forward_sample(sch, x0[i], int(t), eps[i]))
    # t = 0 is clean data: x0 bit for bit
    assert np.array_equal(out[:3], x0[:3])
    assert np.array_equal(forward_sample(sch, x0, 0, eps), x0)
    with pytest.raises(ValueError, match="steps for"):
        forward_sample(sch, x0, ts[:-1], eps)


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
    # t = 0 is clean data; a negative step must not wrap round to row T
    for t in (-1, 401, np.array([3, -1]), np.array([401, 3])):
        with pytest.raises(ValueError, match=r"step index t=(-1|401) outside \[0, 400\]"):
            forward_sample(schedule400, np.zeros((2, 2)), t, np.zeros((2, 2)))


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
    np.testing.assert_allclose(slope, np.sqrt(alpha_bar_product(schedule400, t)), rtol=1e-14)


def test_coupled_pair_zero_noise(schedule400):
    x0 = np.array([1.0, -1.0])
    x_t, x_tm1 = coupled_pair(schedule400, x0, 50, np.zeros(2))
    want = (np.sqrt(alpha_bar_product(schedule400, 50)) - np.sqrt(alpha_bar_product(schedule400, 49))) * x0
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
    cx, ce, s2 = sch.mean_coeff_x[2], sch.mean_coeff_eps[2], sch.sigma_sq[2]
    assert cx == pytest.approx(1.0, abs=1e-9)
    assert ce == pytest.approx(0.0, abs=1e-5)
    assert s2 == pytest.approx(0.0, abs=1e-11)


def test_reverse_coefficients_sigma_modes(schedule400):
    assert np.array_equal(schedule400.sigma_sq[1:], schedule400.betas)
    sch_tilde = linear_schedule(400, 1e-4, 0.02, posterior_variance_mode="beta_tilde_t")
    assert sch_tilde.sigma_sq[1] == sch_tilde.betas[0]
    for t in [2, 17, 400]:
        want = (
            sch_tilde.betas[t - 1]
            * (1.0 - alpha_bar_product(sch_tilde, t - 1))
            / (1.0 - alpha_bar_product(sch_tilde, t))
        )
        assert sch_tilde.sigma_sq[t] == pytest.approx(want, rel=1e-15)
        assert sch_tilde.sigma_sq[t] < sch_tilde.betas[t - 1]


def test_reverse_coefficients_scalar_case():
    # beta_t = 0.02 with alpha_bar_t = 0.5 at t = 2
    b2 = 0.02
    ab2 = 0.5
    b1 = 1.0 - ab2 / (1.0 - b2)
    sch = schedule_from_betas([b1, b2])
    cx, ce, s2 = sch.mean_coeff_x[2], sch.mean_coeff_eps[2], sch.sigma_sq[2]
    assert cx == pytest.approx(1.0 / np.sqrt(0.98), rel=1e-14)
    assert ce == pytest.approx(0.02 / (np.sqrt(0.98) * np.sqrt(0.5)), rel=1e-14)
    assert cx == pytest.approx(1.0101525, abs=1e-7)
    assert ce == pytest.approx(0.0285714, abs=1e-7)
    assert s2 == 0.02


def test_reverse_coefficients_range(schedule400):
    # no reverse step leaves clean data: row 0 of the reverse columns is NaN
    for name in ("sigma_sq", "mean_coeff_x", "mean_coeff_eps"):
        col = getattr(schedule400, name)
        assert np.isnan(col[0]) and np.all(np.isfinite(col[1:]))
    schedule400.check_steps(0)
    schedule400.check_steps(np.array([0, 400, 7]))
    for t in (-1, 401, np.array([5, -1, 7]), np.array([5, 401, 7])):
        with pytest.raises(ValueError, match=r"outside \[0, 400\]"):
            schedule400.check_steps(t)


@pytest.mark.parametrize(
    "t",
    [True, np.bool_(False), 2.5, np.float64(3.0), np.array([5.0, 7.0]), np.array([True, False])],
    ids=["bool", "np-bool", "float", "np-float64", "float-array", "bool-array"],
)
def test_non_integer_steps_are_refused(schedule400, t):
    # unchecked, a bool step would index the tables as a mask and a float step would not index them
    with pytest.raises(ValueError, match=r"step index t=.* is not an integer"):
        schedule400.check_steps(t)
    rows = np.zeros((np.size(t), 2))
    with pytest.raises(ValueError, match="is not an integer"):
        forward_sample(schedule400, rows, t, rows)


def test_integer_steps_of_every_kind_pass(schedule400):
    x = np.ones(2)
    for t in (0, 400, np.int64(7), np.int32(400), np.uint8(3), np.intp(0)):
        schedule400.check_steps(t)
        assert np.array_equal(forward_sample(schedule400, x, t, x), forward_sample(schedule400, x, int(t), x))
    for dtype in (np.int64, np.int32, np.uint16):
        schedule400.check_steps(np.array([0, 400, 7], dtype=dtype))
    schedule400.check_steps(np.array([], dtype=np.int64))
    for t in (np.int64(401), np.int32(-1), np.array([2, 401], dtype=np.uint16)):
        with pytest.raises(ValueError, match=r"outside \[0, 400\]"):
            schedule400.check_steps(t)


@pytest.mark.parametrize("mode", ["beta_t", "beta_tilde_t"])
def test_degenerate_schedule_builds_without_warning(mode):
    # at alpha_bar = 1 the eps coefficient (and beta_tilde) is 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sch = schedule_from_betas([0.0, 0.0, 0.1], posterior_variance_mode=mode, allow_degenerate=True)
    assert np.array_equal(sch.alpha_bar[:3], [1.0, 1.0, 1.0])
    assert np.all(np.isnan(sch.mean_coeff_eps[:3])) and np.isfinite(sch.mean_coeff_eps[3])
    assert np.array_equal(sch.mean_coeff_x[1:3], [1.0, 1.0])


def test_schedule_immutable(schedule400):
    with pytest.raises(ValueError):
        schedule400.betas[0] = 0.5
    for name in _TABLES:
        with pytest.raises(ValueError):
            getattr(schedule400, name)[1] = 0.5
