"""Gradient stabilizers and the guided reverse sampler.

The sampler walks t = T..1. At each step it computes the classifier guidance
gradient, passes it through a running stabilizer, draws the unguided reverse
transition, and then shifts the result by scale * variance * stabilized
gradient. The stabilizers are running moments without de-biasing: starting
from zero deliberately biases early guidance toward zero, when the chain
state is nearly pure noise and classifier gradients are least reliable.
"""

from dataclasses import dataclass, field

import numpy as np

from . import classifier as clf
from . import nn
from .denoiser import AnalyticDenoiser
from .rng import substream
from .schedule import Schedule
from .synthdata import check_class


# -- stabilizers -------------------------------------------------------------


# the fields each stabilizer kind reads besides its kind; it ignores the others
_STABILIZER_FIELDS = {"identity": (), "ema": ("beta",), "adam": ("beta1", "beta2", "eps")}


@dataclass(frozen=True)
class StabilizerConfig:
    kind: str = "identity"  # identity | ema | adam
    beta: float = 0.99  # ema window
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in _STABILIZER_FIELDS:
            raise ValueError(f"unknown stabilizer kind {self.kind!r}")
        if self.kind == "ema" and not 0.0 <= self.beta < 1.0:
            raise ValueError("ema beta must lie in [0, 1)")
        if self.kind == "adam":
            if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
                raise ValueError("adam betas must lie in [0, 1)")
            if not self.eps > 0.0:
                raise ValueError("adam eps must be > 0")

    @property
    def label(self) -> str:
        if self.kind == "ema":
            return f"ema({self.beta:g})"
        if self.kind == "adam":
            return f"adam({self.beta1:g},{self.beta2:g})"
        return "identity"


def identity() -> StabilizerConfig:
    return StabilizerConfig("identity")


def ema(beta: float) -> StabilizerConfig:
    return StabilizerConfig("ema", beta=beta)


def adam(beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> StabilizerConfig:
    return StabilizerConfig("adam", beta1=beta1, beta2=beta2, eps=eps)


@dataclass(frozen=True)
class StabilizerState:
    """Running first/second moments, zero-initialized, no de-biasing."""

    m: np.ndarray
    v: np.ndarray


def init_stabilizer_state(shape) -> StabilizerState:
    return StabilizerState(np.zeros(shape), np.zeros(shape))


def stabilize(
    state: StabilizerState, cfg: StabilizerConfig, g: np.ndarray
) -> tuple[StabilizerState, np.ndarray]:
    """Apply one stabilizer update; pure, returns (new state, output).

    identity passes g through; ema tracks beta * m + (1 - beta) * g; adam
    rescales the beta1 first moment by the root of the beta2 second moment
    of g**2, elementwise, plus eps. No de-biasing anywhere.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    if cfg.kind == "identity":
        return state, g
    if cfg.kind == "ema":
        m = cfg.beta * state.m + (1.0 - cfg.beta) * g
        return StabilizerState(m, state.v), m
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    return StabilizerState(m, v), m / (np.sqrt(v) + cfg.eps)


# -- guided sampling ---------------------------------------------------------


_PATHS = ("raw", "x0pred")


@dataclass(frozen=True)
class GuidanceConfig:
    classifier: clf.ClassifierHandle
    target_class: int
    scale: float = 1.0
    path: str = "raw"  # raw | x0pred
    jacobian_mode: str = "full"  # full | stop_gradient
    stabilizer: StabilizerConfig = field(default_factory=identity)
    objective: str = "log_softmax"  # log_softmax | logit

    def __post_init__(self):
        if not np.isfinite(self.scale) or self.scale < 0.0:
            raise ValueError("scale must be finite and >= 0")
        if self.path not in _PATHS:
            raise ValueError(f"path must be one of {_PATHS}")
        if self.jacobian_mode not in ("full", "stop_gradient"):
            raise ValueError("jacobian_mode must be 'full' or 'stop_gradient'")
        if self.objective not in nn._OBJECTIVES:
            raise ValueError(f"objective must be one of {nn._OBJECTIVES}")
        check_class(self.target_class, self.classifier.n_classes, "target_class")

    @property
    def needs_jacobian(self) -> bool:
        """Whether the gradient reads the posterior pass's Jacobian."""
        return self.path == "x0pred" and self.jacobian_mode == "full"


def guidance_gradient(cfg: GuidanceConfig, dn: AnalyticDenoiser, X, t, y, mean_x0, jac) -> np.ndarray:
    """Guidance gradient of the class-y objective at the noisy batch X.

    mean_x0 and jac are the step's posterior pass, as dn._bundle(X, t,
    cfg.needs_jacobian) returns it. "raw" differentiates the classifier at
    X and reads neither; "x0pred" differentiates it at mean_x0 and pulls the
    gradient back through jac, or through the 1/sqrt(ab_t) rescaling alone
    for "stop_gradient". t may be an array of steps over a step-major stack
    of row groups, as for dn._bundle; each group takes its own step's
    rescaling.
    """
    if cfg.path == "raw":
        return clf.input_gradient(cfg.classifier, X, y, cfg.objective)
    v = clf.input_gradient(cfg.classifier, mean_x0, y, cfg.objective)
    if cfg.jacobian_mode == "stop_gradient":
        sa = dn.schedule.sqrt_alpha_bar[t, None, None]
        return (v.reshape(len(sa), -1, v.shape[1]) / sa).reshape(v.shape)
    return np.einsum("npq,np->nq", jac, v)


@dataclass
class BatchResult:
    samples: np.ndarray  # (n, d); rows of diverged chains are NaN
    diverged: np.ndarray  # (n,) bool
    diverged_t: np.ndarray  # (n,) step of divergence, -1 for healthy chains

    @property
    def n_diverged(self) -> int:
        return int(self.diverged.sum())

    def kept(self) -> np.ndarray:
        return self.samples[~self.diverged]


_CHAIN_LABEL = "chain"


def _pregenerate_noise(chain_indices, T: int, d: int, seed: int):
    """Per-chain substreams: chain i draws its start, then one z per step
    t = T..2, in that order, as one (T, d) fill. Chains never share a
    stream. Returns the starts (n, d) and the zs (n, T - 1, d), views of
    one buffer."""
    draws = np.empty((len(chain_indices), T, d))
    for row, i in enumerate(chain_indices):
        substream(seed, _CHAIN_LABEL, i).standard_normal(out=draws[row])
    return draws[:, 0], draws[:, 1:]


def _run_chains(
    dn: AnalyticDenoiser,
    schedule: Schedule,
    cfg: GuidanceConfig | None,
    scales,
    n: int,
    seed: int,
    chain_indices=None,
) -> BatchResult:
    """The chains at every guidance scale as one batch, scale-major: row
    k * n + i is chain i at scales[k], with cfg's scale unused. Each chain
    draws its noise once for all scales, and every part of a step is
    row-invariant, so a row equals the same chain run alone at its scale.

    Only rows with a non-zero scale are guided: they alone go through
    guidance_gradient and the stabilizer, whose state holds just them, and
    take the shift. A scale-0 row is the unguided chain by construction,
    whatever the classifier returns. The posterior pass runs once per step
    on every row."""
    if not (type(n) is int or isinstance(n, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not np.array_equal(schedule.betas, dn.schedule.betas):
        raise ValueError("the schedule's betas differ from the denoiser's")
    T, d = schedule.T, dn.dim
    if chain_indices is None:
        chain_indices = range(n)
    if len(chain_indices) != n:
        raise ValueError(f"{len(chain_indices)} chain indices for n = {n} chains")
    if len(set(chain_indices)) != n:
        raise ValueError("chain indices repeat a chain: each must name its own substream")
    starts, zs = _pregenerate_noise(chain_indices, T, d, seed)
    n, S = len(starts), len(scales)
    x = np.tile(starts, (S, 1))
    diverged_t = np.full(S * n, -1, dtype=np.int64)
    active = np.ones(S * n, dtype=bool)
    # guided scales; their rows are gathered by n-row blocks, cheaper than row by row
    guided = np.flatnonzero(scales) if cfg is not None else []
    if len(guided) == 0:
        cfg = None  # nothing to guide: the unguided sampler
    if cfg is not None:
        scale = np.repeat(np.asarray(scales, dtype=np.float64)[guided], n)[:, None]
        state = init_stabilizer_state((len(scale), d))

    def gather(a):
        return a.reshape(S, n, *a.shape[1:])[guided].reshape(-1, *a.shape[1:])
    with np.errstate(all="ignore"):
        for t in range(T, 0, -1):
            # one posterior pass feeds the guidance gradient and the reverse
            # step's noise prediction
            mean_x0, jac = dn._bundle(x, t, with_jacobian=cfg is not None and cfg.needs_jacobian)
            if cfg is not None:
                g = guidance_gradient(
                    cfg, dn, gather(x), t, cfg.target_class, gather(mean_x0), None if jac is None else gather(jac)
                )
                state, nu = stabilize(state, cfg.stabilizer, g)
                shift = scale * schedule.sigma_sq[t] * nu
            eps_hat = (x - schedule.sqrt_alpha_bar[t] * mean_x0) / schedule.sqrt_one_minus_alpha_bar[t]
            x_next = schedule.mean_coeff_x[t] * x - schedule.mean_coeff_eps[t] * eps_hat
            if t > 1:
                # every scale's copy of a chain takes the chain's one draw
                x_next = (x_next.reshape(S, n, d) + np.sqrt(schedule.sigma_sq[t]) * zs[:, T - t]).reshape(S * n, d)
            if cfg is not None:
                x_next.reshape(S, n, d)[guided] += shift.reshape(-1, n, d)
            # one finite pass per step; the per-row check runs only once it finds a non-finite value
            finite = np.isfinite(x_next)
            if not finite.all():
                bad = active & ~finite.all(axis=1)
                if bad.any():
                    diverged_t[bad] = t
                    active[bad] = False
                    x_next[~active] = np.nan
            x = x_next
    return BatchResult(x, ~active, diverged_t)


def sample_batch(
    dn: AnalyticDenoiser,
    schedule: Schedule,
    cfg: GuidanceConfig,
    n: int,
    seed: int,
    chain_indices=None,
) -> BatchResult:
    """n independent guided chains; chain i uses RNG substream (seed, chain, i).

    Diverged chains are flagged and left as NaN rows rather than raising, so
    a partially failing configuration is still measurable. chain_indices
    selects which substream indices to run (default 0..n-1), so a batch can
    be sharded or reordered without changing any chain's outcome.
    """
    return _run_chains(dn, schedule, cfg, [cfg.scale], n, seed, chain_indices=chain_indices)


def unconditional_batch(dn: AnalyticDenoiser, schedule: Schedule, n: int, seed: int) -> BatchResult:
    """Plain reverse-process sampling, same RNG layout as sample_batch."""
    return _run_chains(dn, schedule, None, [0.0], n, seed)
