"""Diffusion time axis: noise schedule, forward noising, reverse-step coefficients.

Steps are indexed 1..T. Step t owns beta_t = betas[t-1], alpha_t = 1 - beta_t
and alpha_bar_t = prod_{s<=t} alpha_s. t = 0 denotes the clean data point and
never enters these arrays.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Schedule:
    """Immutable variance schedule with its derived cumulative products.

    posterior_variance_mode selects the reverse-step variance: "beta_t" uses
    beta_t directly, "beta_tilde_t" uses beta_t * (1 - alpha_bar_{t-1}) /
    (1 - alpha_bar_t), with the t = 1 value defined as beta_1.
    """

    betas: np.ndarray
    alphas: np.ndarray = field(repr=False)
    alpha_bars: np.ndarray = field(repr=False)
    posterior_variance_mode: str = "beta_t"

    @property
    def T(self) -> int:
        return len(self.betas)

    def beta(self, t: int) -> float:
        self._check_t(t)
        return float(self.betas[t - 1])

    def alpha(self, t: int) -> float:
        self._check_t(t)
        return float(self.alphas[t - 1])

    def alpha_bar(self, t: int) -> float:
        """Cumulative product at step t; alpha_bar(0) = 1 (clean data)."""
        if t == 0:
            return 1.0
        self._check_t(t)
        return float(self.alpha_bars[t - 1])

    def sigma_sq(self, t: int) -> float:
        """Reverse-step variance at step t per posterior_variance_mode."""
        self._check_t(t)
        if self.posterior_variance_mode == "beta_t":
            return float(self.betas[t - 1])
        if t == 1:
            return float(self.betas[0])
        num = 1.0 - self.alpha_bars[t - 2]
        den = 1.0 - self.alpha_bars[t - 1]
        return float(self.betas[t - 1] * num / den)

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.T:
            raise ValueError(f"step index t={t} outside [1, {self.T}]")


_VARIANCE_MODES = ("beta_t", "beta_tilde_t")


def schedule_from_betas(
    betas, posterior_variance_mode: str = "beta_t", allow_degenerate: bool = False
) -> Schedule:
    """Build a Schedule from an explicit beta vector.

    allow_degenerate admits beta_t = 0 entries (constant alpha_bar), used for
    degenerate no-noise setups; the strict path requires beta_t in (0, 1) and
    strictly decreasing alpha_bar.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim != 1 or len(betas) < 1:
        raise ValueError("betas must be a nonempty 1-D vector")
    if posterior_variance_mode not in _VARIANCE_MODES:
        raise ValueError(f"posterior_variance_mode must be one of {_VARIANCE_MODES}")
    lo_ok = np.all(betas > 0.0) if not allow_degenerate else np.all(betas >= 0.0)
    if not (lo_ok and np.all(betas < 1.0)):
        raise ValueError("betas must lie in (0, 1)")
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    if not allow_degenerate and not np.all(np.diff(alpha_bars) < 0.0):
        raise ValueError("alpha_bar must be strictly decreasing")
    if not np.all((alpha_bars > 0.0) & (alpha_bars <= 1.0)):
        raise ValueError("alpha_bar left (0, 1]; schedule too aggressive for float64")
    for arr in (betas, alphas, alpha_bars):
        arr.setflags(write=False)
    return Schedule(betas, alphas, alpha_bars, posterior_variance_mode)


def linear_schedule(
    T: int, beta_start: float, beta_end: float, posterior_variance_mode: str = "beta_t"
) -> Schedule:
    """Arithmetic beta progression from beta_start to beta_end over T steps."""
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, T)
    return schedule_from_betas(betas, posterior_variance_mode)


def forward_sample(schedule: Schedule, x0, t: int, eps):
    """Noised point sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps.

    x0 and eps broadcast together; typically shape (d,) or (n, d).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    schedule._check_t(t)
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def reverse_coefficients(schedule: Schedule, t: int) -> tuple[float, float, float]:
    """(mean_coeff_x, mean_coeff_eps, sigma_sq) of the reverse transition at t.

    The reverse mean is mean_coeff_x * x_t - mean_coeff_eps * eps_hat(x_t, t),
    i.e. (1/sqrt(alpha_t)) * (x_t - beta_t / sqrt(1 - alpha_bar_t) * eps_hat).
    """
    schedule._check_t(t)
    alpha = schedule.alpha(t)
    ab = schedule.alpha_bar(t)
    mean_coeff_x = 1.0 / np.sqrt(alpha)
    mean_coeff_eps = schedule.beta(t) / (np.sqrt(alpha) * np.sqrt(1.0 - ab))
    return float(mean_coeff_x), float(mean_coeff_eps), schedule.sigma_sq(t)
