"""Sample-quality metrics: target-class accuracy and Frechet distances.

Generated batches are scored three ways: argmax accuracy under the exact
Bayes reference (the unbiased judge), argmax accuracy under the guiding
classifier itself (the self-reported number), and Frechet distances between
Gaussians fitted to the samples and to fresh reference draws, pooled over
classes (fd) or restricted to the target class (cfd). Features are the raw
data coordinates; at this scale the data space is already the semantic space.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import classifier as clf
from .artifacts import json_text, write_csv
from .guidance import GuidanceConfig, _run_chains
from .rng import check_integer, substream
from .synthdata import GmmSpec, check_points, sample_class_points, sample_labeled

_COV_REG = 1e-10
# sweep CSV columns in file order, with the type each value parses back to
SWEEP_COLUMNS = {
    "s": float, "acc_oracle": float, "acc_guiding": float, "fd": float, "cfd": float,
    "n": int, "n_diverged": int,
}


class EmptyBatchError(ValueError):
    """The batch holds no samples and no diverged chains: nothing was generated."""


def _sym_sqrt(M: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((M + M.T) / 2.0)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.T


def gaussian_frechet(mu_a, cov_a, mu_b, cov_b) -> float:
    """Squared 2-Wasserstein distance between two Gaussians.

    The cross term uses the symmetric square root (A^{1/2} B A^{1/2})^{1/2}
    via eigendecomposition, which is well-defined for any symmetric PSD pair.
    A covariance that overflowed (points beyond about 1e153) is infinitely far.
    """
    mu_a = np.asarray(mu_a, dtype=np.float64)
    mu_b = np.asarray(mu_b, dtype=np.float64)
    cov_a = np.asarray(cov_a, dtype=np.float64)
    cov_b = np.asarray(cov_b, dtype=np.float64)
    if not (np.all(np.isfinite(cov_a)) and np.all(np.isfinite(cov_b))):
        return float("inf")
    root_a = _sym_sqrt(cov_a)
    cross = _sym_sqrt(root_a @ cov_b @ root_a)
    d2 = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a + cov_b - 2.0 * cross))
    return max(d2, 0.0)


def fit_gaussian(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and regularized sample covariance of a point set."""
    X = np.asarray(points, dtype=np.float64)
    n, d = X.shape
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} points to fit, got {n}")
    mu = X.mean(axis=0)
    cov = np.cov(X, rowvar=False).reshape(d, d) + _COV_REG * np.eye(d)
    return mu, cov


@np.errstate(over="ignore", invalid="ignore")
def frechet_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Frechet distance between Gaussians fitted to two point sets; far-out
    points overflow the covariance quietly, and it reads inf."""
    return gaussian_frechet(*fit_gaussian(points_a), *fit_gaussian(points_b))


@dataclass
class MetricsReport:
    target_accuracy_oracle: float
    target_accuracy_guiding: float
    fd: float
    cfd: float
    n_samples: int
    n_diverged: int
    config_hash: str = ""

    def to_json(self) -> str:
        return json_text(asdict(self), sort_keys=True)


@np.errstate(over="ignore", invalid="ignore")
def evaluate(
    samples: np.ndarray,
    spec: GmmSpec,
    target_class: int,
    guiding: clf.ClassifierHandle,
    seed: int = 0,
    n_diverged: int = 0,
    config_hash: str = "",
) -> MetricsReport:
    """Score a batch of generated samples (n, d) against fresh reference draws.

    Reference sets are drawn i.i.d. from the known mixture (pooled for fd,
    target class only for cfd), sized like the sample set. Deterministic in
    (samples, seed). A batch of fewer than d + 1 samples cannot fit a
    Gaussian and gets NaN fd and cfd; an empty one, whose n_diverged chains
    all diverged, gets NaN accuracies too. Far-out but finite samples
    overflow quietly: a row with no finite oracle logit counts as a miss,
    and an overflowed covariance gives an infinite fd.
    """
    check_integer(n_diverged, "n_diverged")
    X = check_points(samples, spec.dim)
    if len(X) == 0 and n_diverged == 0:
        raise EmptyBatchError("no samples to evaluate")
    n, d = X.shape
    rng = substream(seed, "evaluate-reference")
    pooled_ref, _ = sample_labeled(spec, n, rng)
    class_ref = sample_class_points(spec, target_class, n, rng)

    oracle_logits = clf.predict_logits(clf.bayes_oracle(spec), X)
    # a row with no finite oracle logit has no Bayes class: a miss
    hit_oracle = (np.argmax(oracle_logits, axis=1) == target_class) & np.any(np.isfinite(oracle_logits), axis=1)
    hit_guiding = np.argmax(clf.predict_logits(guiding, X), axis=1) == target_class
    fd = cfd = float("nan")
    if n > d:
        fd, cfd = frechet_distance(X, pooled_ref), frechet_distance(X, class_ref)
    # no samples: 0 / 0 hits, a NaN accuracy
    acc_oracle, acc_guiding = float(np.sum(hit_oracle) / n), float(np.sum(hit_guiding) / n)
    return MetricsReport(
        target_accuracy_oracle=acc_oracle,
        target_accuracy_guiding=acc_guiding,
        fd=fd,
        cfd=cfd,
        n_samples=n,
        n_diverged=int(n_diverged),
        config_hash=config_hash,
    )


def sweep(
    dn,
    schedule,
    base_cfg: GuidanceConfig,
    scales,
    n_per_scale: int,
    seed: int,
) -> list[tuple[float, MetricsReport]]:
    """One sampled batch and report per guidance scale.

    All scales run as one batch through the sampler, the chains of each
    scale drawing the same noise, and each scale's slice is scored alone
    with the same evaluation seed, so the scale is the only varying factor.
    A row equals sample_batch at that scale, bit for bit. A scale whose
    batch diverges entirely still yields a row, with NaN metrics and a full
    diverged count.
    """
    # replace checks each scale as given, as GuidanceConfig checks its own
    scales = [float(replace(base_cfg, scale=s).scale) for s in scales]
    if not scales:
        raise ValueError("scales must be nonempty")
    batch = _run_chains(dn, schedule, base_cfg, scales, n_per_scale, seed)
    # row k * n_per_scale + i of the batch is chain i at scales[k]
    samples = batch.samples.reshape(len(scales), n_per_scale, dn.dim)
    diverged = batch.diverged.reshape(len(scales), n_per_scale)
    return [
        (s, evaluate(
            X[~div], dn.spec, base_cfg.target_class, base_cfg.classifier,
            seed=seed, n_diverged=int(div.sum()),
        ))
        for s, X, div in zip(scales, samples, diverged)
    ]


def sweep_columns(table) -> list[np.ndarray]:
    """table's rows (sequences in SWEEP_COLUMNS order) as one array per
    column, of that column's type."""
    return [np.array([row[i] for row in table], dtype=conv) for i, conv in enumerate(SWEEP_COLUMNS.values())]


def save_sweep_csv(rows, path, config_hash: str = "") -> None:
    table = [
        (s, r.target_accuracy_oracle, r.target_accuracy_guiding, r.fd, r.cfd, r.n_samples, r.n_diverged)
        for s, r in rows
    ]
    write_csv(path, list(SWEEP_COLUMNS), sweep_columns(table), config_hash)
