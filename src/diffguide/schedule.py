"""Diffusion time axis: noise schedule, per-step tables and forward noising.

Steps are indexed 1..T and t = 0 denotes the clean data point. Step t owns
beta_t = betas[t-1] and alpha_t = 1 - beta_t. Every per-step quantity is
tabulated once, when the schedule is built, as a read-only array indexed
by t = 0..T, so row t is step t and row 0 is clean data (alpha_bar_0 = 1).
The reverse-step columns are NaN at row 0: no step leaves clean data.
"""

from dataclasses import dataclass, field

import numpy as np

from .rng import check_index, check_integer, check_number


@dataclass(frozen=True)
class Schedule:
    """Immutable variance schedule and its per-step tables, indexed t = 0..T.

    alpha_bar_t = prod_{s<=t} alpha_s. The reverse transition at t has mean
    mean_coeff_x[t] * x_t - mean_coeff_eps[t] * eps_hat, i.e.
    (1/sqrt(alpha_t)) * (x_t - beta_t / sqrt(1 - alpha_bar_t) * eps_hat), and
    variance sigma_sq[t]. posterior_variance_mode selects that variance:
    "beta_t" uses beta_t directly, "beta_tilde_t" uses beta_t * (1 -
    alpha_bar_{t-1}) / (1 - alpha_bar_t), with the t = 1 value defined as beta_1.
    """

    betas: np.ndarray
    posterior_variance_mode: str
    alpha_bar: np.ndarray = field(repr=False)
    sqrt_alpha_bar: np.ndarray = field(repr=False)
    sqrt_one_minus_alpha_bar: np.ndarray = field(repr=False)
    sigma_sq: np.ndarray = field(repr=False)
    mean_coeff_x: np.ndarray = field(repr=False)
    mean_coeff_eps: np.ndarray = field(repr=False)

    @property
    def T(self) -> int:
        return len(self.betas)

    def check_steps(self, t) -> None:
        """Raise ValueError unless t is an integer step in 0..T or an integer
        array of such steps (rng.check_index)."""
        check_index(t, self.T + 1, "step t")


_VARIANCE_MODES = ("beta_t", "beta_tilde_t")


def schedule_from_betas(
    betas, posterior_variance_mode: str = "beta_t", allow_degenerate: bool = False
) -> Schedule:
    """Build a Schedule, and its tables, from an explicit beta vector.

    allow_degenerate admits beta_t = 0 entries (constant alpha_bar), used for
    degenerate no-noise setups; the strict path requires beta_t in (0, 1) and
    strictly decreasing alpha_bar. Where alpha_bar_t = 1 the reverse mean's
    eps coefficient (and beta_tilde_t) is 0/0 and tabulates as NaN.
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
    ab = np.concatenate(([1.0], np.cumprod(alphas)))  # row 0: clean data
    if not allow_degenerate and not np.all(np.diff(ab[1:]) < 0.0):
        raise ValueError("alpha_bar must be strictly decreasing")
    if not np.all((ab > 0.0) & (ab <= 1.0)):
        raise ValueError("alpha_bar left (0, 1]; schedule too aggressive for float64")
    nan = [np.nan]
    with np.errstate(divide="ignore", invalid="ignore"):
        sqrt_1mab = np.sqrt(1.0 - ab)
        sigma_sq = betas.copy()
        if posterior_variance_mode == "beta_tilde_t":
            sigma_sq[1:] = betas[1:] * (1.0 - ab[1:-1]) / (1.0 - ab[2:])
        coeff_x = 1.0 / np.sqrt(alphas)
        coeff_eps = betas / (np.sqrt(alphas) * sqrt_1mab[1:])
    tables = [ab, np.sqrt(ab), sqrt_1mab] + [np.concatenate((nan, c)) for c in (sigma_sq, coeff_x, coeff_eps)]
    for arr in [betas] + tables:
        arr.setflags(write=False)
    return Schedule(betas, posterior_variance_mode, *tables)


def linear_schedule(
    T: int, beta_start: float, beta_end: float, posterior_variance_mode: str = "beta_t"
) -> Schedule:
    """Arithmetic beta progression from beta_start to beta_end over T steps."""
    check_integer(T, "T", 2)
    check_number(beta_start, "beta_start")
    check_number(beta_end, "beta_end")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, T)
    return schedule_from_betas(betas, posterior_variance_mode)


def forward_sample(schedule: Schedule, x0, t, eps):
    """Noised point sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps, the
    one forward-noising recipe.

    x0 and eps share a shape, typically (d,) or (n, d). t is one step in
    0..T (t = 0 returns x0), or an integer array of one step per row of an
    (n, d) x0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    schedule.check_steps(t)
    sa, s1 = schedule.sqrt_alpha_bar[t], schedule.sqrt_one_minus_alpha_bar[t]
    if np.ndim(t):
        if np.shape(t) != x0.shape[:-1]:
            raise ValueError(f"{np.size(t)} steps for {x0.shape[:-1]} rows")
        sa, s1 = sa[:, None], s1[:, None]
    return sa * x0 + s1 * eps
