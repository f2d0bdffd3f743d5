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
logit or gradient call over all of them. Only the stabilizer update and the
ratio run step by step. Every part of a pass is row-invariant, so a curve
does not depend on the block size.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .classifier import ClassifierHandle, predict_logits
from .denoiser import AnalyticDenoiser
from .guidance import GuidanceConfig, StabilizerConfig, guidance_gradient, init_stabilizer_state, stabilize
from .schedule import forward_sample

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
    h: ClassifierHandle,
    dn: AnalyticDenoiser,
    points: np.ndarray,
    labels: np.ndarray,
    metric: str,
    path: str = "raw",
    stabilizer: StabilizerConfig | None = None,
    seed: int = 0,
    jacobian_mode: str = "full",
    objective: str = "log_softmax",
) -> SensitivityCurve:
    """Per-step mean/std of a sensitivity metric over a nonempty dataset.

    Every sample gets one shared noise draw for its whole trajectory, and
    its own label is the target class of its gradients; logits are taken at
    x_t (raw) or E[x0 | x_t] (x0pred). Undefined (zero-distance) pairs are
    dropped per step and the remaining count recorded.
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}")
    if (metric == "stabilized_gradient") != (stabilizer is not None):
        # a curve labelled with a stabilizer must be the stabilized one
        raise ValueError("a stabilizer config goes with stabilized_gradient and with no other metric")
    # the sampler's gradient recipe; each point's label replaces target_class
    recipe = GuidanceConfig(h, target_class=0, path=path, jacobian_mode=jacobian_mode, objective=objective)
    schedule = dn.schedule
    X0 = np.asarray(points, dtype=np.float64)
    ys = np.asarray(labels, dtype=np.int64)
    n, d = X0.shape
    if n < 1:
        raise ValueError("a sensitivity curve needs at least one point")
    T = schedule.T
    eps = np.random.default_rng(seed).standard_normal((n, d))

    # walk t = T..1, the sampling direction the stabilizer state needs
    ratios = np.full((T - 1, n), np.nan)  # row i = step t = i + 2
    state = init_stabilizer_state((n, d))
    prev_f = prev_x = None
    per_block = max(1, _BLOCK_ROWS // n)
    for top in range(T, 0, -per_block):
        ts = np.arange(top, max(top - per_block, 0), -1)
        # the block's points, step-major: rows i*n..(i+1)*n are step ts[i]
        X = np.concatenate([forward_sample(schedule, X0, t, eps) for t in ts])
        # the raw path reads no posterior pass, and only a gradient its Jacobian
        with_jacobian = metric != "logit" and recipe.needs_jacobian
        mean_x0, jac = dn._bundle(X, ts, with_jacobian) if path == "x0pred" else (None, None)
        if metric == "logit":
            F = predict_logits(h, X if path == "raw" else mean_x0)
        else:
            F = guidance_gradient(recipe, dn, X, ts, np.tile(ys, len(ts)), mean_x0, jac)
        for i, t in enumerate(ts):
            rows = slice(i * n, (i + 1) * n)
            X_t, f = X[rows], F[rows]
            if metric == "stabilized_gradient":
                state, f = stabilize(state, stabilizer, f)
            if prev_f is not None:
                _ratio_into(ratios[t - 1], prev_f - f, prev_x - X_t)
            prev_f, prev_x = f, X_t

    defined = ~np.isnan(ratios)
    counts = defined.sum(axis=1)
    filled = np.where(defined, ratios, 0.0)
    with np.errstate(all="ignore"):
        means = filled.sum(axis=1) / counts
        centered = np.where(defined, ratios - means[:, None], 0.0)
        stds = np.sqrt((centered**2).sum(axis=1) / counts)
    means[counts == 0] = np.nan
    stds[counts == 0] = np.nan
    label = "none" if stabilizer is None else stabilizer.label
    return SensitivityCurve(
        metric, path, label, np.arange(2, T + 1), means, stds, counts.astype(np.int64)
    )


def _ratio_into(out: np.ndarray, num: np.ndarray, den: np.ndarray) -> None:
    d = np.linalg.norm(den, axis=1)
    ok = d > 0.0
    out[ok] = np.linalg.norm(num, axis=1)[ok] / d[ok]


def save_curve_csv(curve_obj: SensitivityCurve, path, config_hash: str = "") -> None:
    c = curve_obj
    labels = (c.metric, c.path, c.stabilizer)
    rows = (row + labels for row in zip(c.t.tolist(), c.mean.tolist(), c.std.tolist(), c.count.tolist()))
    write_csv(path, ["t", "mean", "std", "count", "metric", "path", "stabilizer"], rows, config_hash)
