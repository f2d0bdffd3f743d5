"""Forward-process diagnostics: how classifier outputs move along coupled
noise trajectories.

All metrics compare a point x_t with its less-noisy sibling x_{t-1} built
from the same clean point and the same noise draw, so the only difference
between the two inputs is the schedule coefficients. Ratios are reported per
step: logit sensitivity is ||f(x_t) - f(x_{t-1})|| / ||x_t - x_{t-1}||, and
gradient sensitivity replaces the logits by guidance gradients. The
stabilized metric feeds those gradients through a stabilizer, so `curve`
walks every trajectory once in the sampling direction t = T..1 with a fresh
zero state. Pairs with a zero input distance are undefined and excluded from
aggregation.

The walk runs in blocks of steps: every x_t is known before it starts, so
each block stacks its steps' points and makes one posterior pass and one
logit or gradient call over all of them. Its values and points are stacked
behind the previous block's last step, which is carried over, so one
subtraction and one norm each give every pair's change and distance, and
one assignment files the block's ratios; only the stabilizer update runs
step by step. Every part of a pass is row-invariant, and a norm over the
last axis is taken per row, so a curve does not depend on the block size.

The points walk in contiguous shards across the allowed CPUs, through the
chain loop's driver, guidance._run_shards. Each shard takes its rows of the
one noise draw made before any fork and walks them with its own zero state
of the stabilizer, which is elementwise, so a curve does not depend on the
shards either. A NaN change is refused after the gather, at the largest
step any shard found, the step a walk over all the points stops at.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .classifier import predict_logits
from .denoiser import AnalyticDenoiser
from .guidance import GuidanceConfig, _run_shards, guidance_gradient, init_stabilizer_state, stabilize
from .rng import check_integer
from .schedule import forward_sample
from .synthdata import check_class

_METRICS = ("logit", "gradient", "stabilized_gradient")
# rows per block of the walk: blocks hold max(1, _BLOCK_ROWS // n) steps
_BLOCK_ROWS = 4096


@dataclass
class SensitivityCurve:
    metric: str
    path: str
    stabilizer: str  # label, "none" for unstabilized metrics
    t: np.ndarray  # step indices 2..T
    mean: np.ndarray
    std: np.ndarray
    count: np.ndarray  # defined pairs per step

    @property
    def degenerate(self) -> bool:
        return int(self.count.max(initial=0)) == 0


def curve(
    recipe: GuidanceConfig,
    dn: AnalyticDenoiser,
    points: np.ndarray,
    labels: np.ndarray,
    metric: str,
    seed: int = 0,
) -> SensitivityCurve:
    """Per-step mean/std of a sensitivity metric over a nonempty dataset.

    recipe is the sampler's guidance recipe: its classifier, path, Jacobian
    mode and objective make every metric, and its stabilizer only
    stabilized_gradient; its scale is unused. Every sample gets one shared
    noise draw for its whole trajectory, and its own label replaces
    recipe.target_class; logits are taken at x_t (raw) or E[x0 | x_t]
    (x0pred). Undefined (zero-distance) pairs are dropped per step and the
    remaining count recorded. points must be (n, dn.dim) and labels n
    integer classes of the classifier, or ValueError is raised. A pair of
    distinct points whose change is NaN, as from a classifier that returns
    NaN, raises ValueError too, rather than read as an undefined pair.
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}")
    check_integer(seed, "seed")
    h, schedule = recipe.classifier, dn.schedule
    X0 = np.asarray(points, dtype=np.float64)
    if X0.ndim != 2 or X0.shape[1] != dn.dim:
        raise ValueError(f"points of shape {X0.shape}: expected (n, {dn.dim})")
    n, d = X0.shape
    if n < 1:
        raise ValueError("a sensitivity curve needs at least one point")
    ys = np.asarray(labels)
    if ys.shape != (n,) or ys.dtype.kind not in "iu":
        raise ValueError(f"labels must be {n} integers, one per point; got {ys.dtype} of shape {ys.shape}")
    check_class(ys, h.n_classes, "label")
    T = schedule.T
    # one draw before the shards: a shard that drew its own would walk other noise
    eps = np.random.default_rng(seed).standard_normal((n, d))

    def run(rows, out):
        ratios, nan_step = out
        nan_step[:] = _walk(recipe, dn, metric, X0[rows], ys[rows], eps[rows], ratios)
    ratios, nan_step = _run_shards(range(n), [(np.float64, (T - 1, n)), (np.int64, (1, n))], run)
    step = nan_step.max()  # the step a walk over all the points stops at
    if step > 0:
        raise ValueError(f"the {metric} changed by NaN between distinct points at step {step}")

    counts = np.count_nonzero(~np.isnan(ratios), axis=1)
    some = counts > 0  # a step with no defined pair stays NaN
    means, stds = np.full(T - 1, np.nan), np.full(T - 1, np.nan)
    with np.errstate(all="ignore"):  # a ratio that overflowed to inf makes nanstd's centring warn
        means[some] = np.nanmean(ratios[some], axis=1)
        stds[some] = np.nanstd(ratios[some], axis=1)
    label = recipe.stabilizer.label if metric == "stabilized_gradient" else "none"
    return SensitivityCurve(
        metric, recipe.path, label, np.arange(2, T + 1), means, stds, counts.astype(np.int64)
    )


def _walk(recipe: GuidanceConfig, dn: AnalyticDenoiser, metric: str, X0, ys, eps, ratios) -> int:
    """Walk the trajectories of points X0 (n, d) with labels ys and noise
    eps t = T..1, filing step t's ratios in row t - 2 of ratios (T - 1, n).
    Returns the largest step whose change is NaN between distinct points,
    where the walk stops, or 0."""
    h, path, stabilizer, schedule = recipe.classifier, recipe.path, recipe.stabilizer, dn.schedule
    (n, d), T = X0.shape, schedule.T
    # every block's points, noise and labels, step-major: rows i*n..(i+1)*n
    # are the block's i-th step, and a short last block reads a prefix
    per_block = max(1, _BLOCK_ROWS // n)
    X0s, eps_s, ys_s = np.tile(X0, (per_block, 1)), np.tile(eps, (per_block, 1)), np.tile(ys, per_block)
    # the raw path reads no posterior pass, and only a gradient its Jacobian
    with_jacobian = metric != "logit" and recipe.needs_jacobian

    # walk t = T..1, the sampling direction the stabilizer state needs
    state = init_stabilizer_state((n, d))
    last = None  # the previous block's last step (f, x), the first pair's upper end
    for top in range(T, 0, -per_block):
        ts = np.arange(top, max(top - per_block, 0), -1)
        rows = len(ts) * n
        X = forward_sample(schedule, X0s[:rows], np.repeat(ts, n), eps_s[:rows])
        mean_x0, jac = dn._bundle(X, ts, with_jacobian) if path == "x0pred" else (None, None)
        if metric == "logit":
            F = predict_logits(h, X if path == "raw" else mean_x0)
        else:
            F = guidance_gradient(recipe, dn, X, ts, ys_s[:rows], mean_x0, jac)
        F, X = F.reshape(len(ts), n, -1), X.reshape(len(ts), n, d)
        if metric == "stabilized_gradient":
            for i in range(len(ts)):
                state, F[i] = stabilize(state, stabilizer, F[i])
        # the pair (x_{t+1}, x_t) is step t + 1's, in row t - 1
        if last is None:
            pairs = ts[1:]
        else:
            pairs = ts
            F, X = np.concatenate((last[0][None], F)), np.concatenate((last[1][None], X))
        with np.errstate(over="ignore"):  # a norm that overflows is recorded as inf
            num = np.linalg.norm(F[:-1] - F[1:], axis=-1)
            den = np.linalg.norm(X[:-1] - X[1:], axis=-1)
        nan_change = np.isnan(num) & (den > 0.0)
        if nan_change.any():
            return int(pairs[nan_change.any(axis=1)][0]) + 1
        ratios[pairs - 1] = np.divide(num, den, out=np.full_like(num, np.nan), where=den > 0.0)
        last = F[-1], X[-1]
    return 0


def save_curve_csv(curve_obj: SensitivityCurve, path, config_hash: str = "") -> None:
    c = curve_obj
    labels = (c.metric, c.path, c.stabilizer)
    rows = (row + labels for row in zip(c.t.tolist(), c.mean.tolist(), c.std.tolist(), c.count.tolist()))
    write_csv(path, ["t", "mean", "std", "count", "metric", "path", "stabilizer"], rows, config_hash)
