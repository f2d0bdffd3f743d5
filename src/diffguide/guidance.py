"""Gradient stabilizers and the guided reverse sampler.

The sampler walks t = T..1. At each step it computes the classifier guidance
gradient, passes it through a running stabilizer, draws the unguided reverse
transition, and then shifts the result by scale * variance * stabilized
gradient. The stabilizers are running moments without de-biasing: starting
from zero deliberately biases early guidance toward zero, when the chain
state is nearly pure noise and classifier gradients are least reliable.
"""

import math
import mmap
import os
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import classifier as clf
from . import nn
from .denoiser import AnalyticDenoiser
from .rng import check_index, check_integer, check_number, substream
from .schedule import Schedule


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
        for name in _STABILIZER_FIELDS[self.kind]:
            val = getattr(self, name)
            check_number(val, f"{self.kind} {name}")
            if name == "eps" and not (np.isfinite(val) and val > 0.0):
                raise ValueError("adam eps must be finite and > 0")
            if name != "eps" and not 0.0 <= val < 1.0:
                raise ValueError(f"{self.kind} {name} must lie in [0, 1), got {val!r}")

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
_JACOBIAN_MODES = ("full", "stop_gradient")


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
        check_number(self.scale, "scale")
        if not np.isfinite(self.scale) or self.scale < 0.0:
            raise ValueError("scale must be finite and >= 0")
        if self.path not in _PATHS:
            raise ValueError(f"path must be one of {_PATHS}")
        if self.jacobian_mode not in _JACOBIAN_MODES:
            raise ValueError(f"jacobian_mode must be one of {_JACOBIAN_MODES}")
        if self.objective not in nn._OBJECTIVES:
            raise ValueError(f"objective must be one of {nn._OBJECTIVES}")
        check_index(self.target_class, self.classifier.n_classes, "target_class")

    @property
    def needs_jacobian(self) -> bool:
        """Whether the gradient reads the posterior pass's Jacobian."""
        return self.path == "x0pred" and self.jacobian_mode == "full"


def guidance_gradient(cfg: GuidanceConfig, dn: AnalyticDenoiser, X, t, y, mean_x0, jac) -> np.ndarray:
    """Guidance gradient of the class-y objective at the noisy batch X.

    mean_x0 and jac are the step's posterior pass, as dn._bundle(X, t,
    cfg.needs_jacobian) returns it. "raw" differentiates the classifier at
    X and reads neither, so either may be None; "x0pred" differentiates it
    at mean_x0 and pulls the gradient back through jac, or through the
    1/sqrt(ab_t) rescaling alone for "stop_gradient". t may be an array of
    steps over a step-major stack of row groups, as for dn._bundle; each
    group takes its own step's rescaling.
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
    diverged_t: np.ndarray  # (n,) step of divergence, -1 for healthy chains

    @property
    def diverged(self) -> np.ndarray:
        return self.diverged_t >= 0

    @property
    def n_diverged(self) -> int:
        return int(self.diverged.sum())

    def kept(self) -> np.ndarray:
        return self.samples[~self.diverged]


_CHAIN_LABEL = "chain"
# fewest chains, or sensitivity points, a forked shard runs: below it, the
# fork costs more than the shard's loop saves
_MIN_SHARD = 64


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

    _run_shards cuts the chains into contiguous shards, one per allowed CPU
    with at least _MIN_SHARD chains each, and runs them in forked children;
    each shard's _chain_loop writes its rows into its own columns of one
    shared result buffer, so results and exceptions are those of one serial
    loop."""
    check_integer(n, "n", 1)
    if not np.array_equal(schedule.betas, dn.schedule.betas):
        raise ValueError("the schedule's betas differ from the denoiser's")
    if chain_indices is None:
        chain_indices = range(n)
    if len(chain_indices) != n:
        raise ValueError(f"{len(chain_indices)} chain indices for n = {n} chains")
    if len(set(chain_indices)) != n:
        raise ValueError("chain indices repeat a chain: each must name its own substream")

    S, d = len(scales), dn.dim

    def run(shard, out):
        part = _chain_loop(dn, schedule, cfg, scales, shard, seed)
        out[0][:] = part.samples.reshape(S, -1, d)
        out[1][:] = part.diverged_t.reshape(S, -1)
    samples, diverged_t = _run_shards(chain_indices, [(np.float64, (S, n, d)), (np.int64, (S, n))], run)
    return BatchResult(samples.reshape(S * n, d), diverged_t.reshape(S * n))


def _run_shards(items, layout, run) -> list:
    """Run run(shard, out) over contiguous shards of items and return the
    arrays it filled, one per (dtype, shape) of layout. Axis 1 of every
    shape is the row axis, one row per item: out holds the shard's own
    columns of each array, and run fills them.

    The arrays are views of one anonymous mapping that forked children
    share. The parent forks a child for every shard after the first and
    runs the first itself, so one shard is the same path with no fork; a
    shard whose fork fails, or whose child exits non-zero, reruns in the
    parent over whatever the child wrote. If every run fills its columns
    as a serial run over all the items would, results and exceptions are
    those of that serial run. The arrays returned are copies."""
    shards = _shards(items)
    ends = np.cumsum([0] + [len(shard) for shard in shards])
    offsets = np.cumsum([0] + [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout])
    buf = mmap.mmap(-1, int(offsets[-1]))
    arrays = [
        np.frombuffer(buf, dtype, count=math.prod(shape), offset=int(at)).reshape(shape)
        for (dtype, shape), at in zip(layout, offsets)
    ]

    def run_shard(k):
        run(shards[k], [a[:, ends[k] : ends[k + 1]] for a in arrays])
    children = {}  # shard number -> pid, until reaped
    try:
        for k in range(1, len(shards)):
            try:
                children[k] = _fork_shard(run_shard, k)
            except OSError:
                pass  # the parent runs this shard below
        run_shard(0)
        for k in range(1, len(shards)):
            # only a child that exits 0 filled all of its columns
            complete = k in children and os.waitpid(children[k], 0)[1] == 0
            children.pop(k, None)
            if not complete:
                run_shard(k)
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [a.copy() for a in arrays]


def _shards(items) -> list:
    """Contiguous, near-equal shards of items: one per allowed CPU, each of
    at least _MIN_SHARD items, and one where fork is missing."""
    n = len(items)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    k = max(1, min(cpus, n // _MIN_SHARD)) if hasattr(os, "fork") else 1
    return [items[n * j // k : n * (j + 1) // k] for j in range(k)]


def _fork_shard(run, k) -> int:
    """Fork a child that runs run(k) and exits 0 once it returns; returns the
    child's pid. The child leaves only through os._exit, so it never flushes
    the parent's buffers or returns into the caller."""
    with warnings.catch_warnings():
        # Python 3.12+ warns from os.fork in a process with more than one
        # thread (OpenBLAS's pool counts) after the child exists; raised as
        # an error, the warning would lose the child's pid. OpenBLAS shuts
        # its pool down before a fork (a pthread_atfork handler), and the
        # child runs only numpy.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            run(k)
            status = 0
        finally:
            os._exit(status)
    return pid


def _chain_loop(dn: AnalyticDenoiser, schedule: Schedule, cfg: GuidanceConfig | None, scales, chain_indices, seed):
    """One shard's chains at every scale, scale-major, in one process.

    Only rows with a non-zero scale are guided: they alone go through
    guidance_gradient and the stabilizer, whose state holds just them, and
    take the shift. A scale-0 row is the unguided chain by construction,
    whatever the classifier returns. The posterior pass runs once per step
    on every row."""
    T, d = schedule.T, dn.dim
    starts, zs = _pregenerate_noise(chain_indices, T, d, seed)
    n, S = len(starts), len(scales)
    x = np.tile(starts, (S, 1))
    diverged_t = np.full(S * n, -1, dtype=np.int64)
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
                # the raw path reads neither mean_x0 nor jac, so gathers neither
                guided_x0 = None if cfg.path == "raw" else gather(mean_x0)
                guided_jac = None if jac is None else gather(jac)
                g = guidance_gradient(cfg, dn, gather(x), t, cfg.target_class, guided_x0, guided_jac)
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
                bad = (diverged_t < 0) & ~finite.all(axis=1)
                if bad.any():
                    diverged_t[bad] = t
                    x_next[diverged_t >= 0] = np.nan
            x = x_next
    return BatchResult(x, diverged_t)


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
