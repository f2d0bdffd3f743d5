"""Labeled Gaussian-mixture data with exactly known densities.

Every class is a mixture of Gaussian components; the full generative law is
known, so the exact denoiser and the Bayes-optimal reference classifier both
evaluate it through one tabulated component pass (ComponentTables).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .rng import check_integer

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class Component:
    weight: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class ClassSpec:
    prior: float
    components: tuple[Component, ...]


@dataclass(frozen=True)
class GmmSpec:
    classes: tuple[ClassSpec, ...]

    @property
    def dim(self) -> int:
        return len(self.classes[0].components[0].mean)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def priors(self) -> np.ndarray:
        return np.array([c.prior for c in self.classes])

    @functools.cached_property
    def clean_tables(self) -> "ComponentTables":
        """Clean-data (ab = 1) component tables, built on first use and
        shared by every Bayes-oracle handle on this spec."""
        return ComponentTables(self, [1.0])


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray
    seed: int

    def __len__(self) -> int:
        return len(self.points)


def make_spec(classes: list[tuple[float, list[tuple[float, list, np.ndarray]]]]) -> GmmSpec:
    """Validate and freeze a mixture spec.

    classes: list of (prior, components) where each component is
    (weight, mean, cov); cov may be a scalar (spherical), a diagonal vector,
    or a full symmetric positive-definite matrix.
    """
    built = []
    dim = None
    min_var = np.inf
    for prior, comps in classes:
        frozen_comps = []
        for weight, mean, cov in comps:
            mean = np.asarray(mean, dtype=np.float64)
            if mean.ndim != 1:
                raise ValueError("component mean must be a vector")
            if dim is None:
                dim = len(mean)
            elif len(mean) != dim:
                raise ValueError("all component means must share one dimension")
            cov = np.asarray(cov, dtype=np.float64)
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
                raise ValueError("component mean and covariance must be finite")
            if cov.ndim == 0:
                cov = float(cov) * np.eye(dim)
            elif cov.ndim == 1:
                cov = np.diag(cov)
            if cov.shape != (dim, dim):
                raise ValueError(f"covariance must be {dim}x{dim}")
            if not np.allclose(cov, cov.T):
                raise ValueError("covariance must be symmetric")
            lam = np.min(np.linalg.eigvalsh(cov))
            if lam <= 0.0:
                raise ValueError("covariance must be positive definite")
            min_var = min(min_var, lam)
            mean.setflags(write=False)
            cov.setflags(write=False)
            if weight < 0.0:
                raise ValueError(f"component weight {weight} is negative")
            frozen_comps.append(Component(float(weight), mean, cov))
        wsum = sum(c.weight for c in frozen_comps)
        if not abs(wsum - 1.0) <= _PROB_TOL:  # NaN fails too
            raise ValueError(f"component weights sum to {wsum}, expected 1")
        if prior < 0.0:
            raise ValueError(f"class prior {prior} is negative")
        built.append(ClassSpec(float(prior), tuple(frozen_comps)))
    psum = sum(c.prior for c in built)
    if not abs(psum - 1.0) <= _PROB_TOL:
        raise ValueError(f"class priors sum to {psum}, expected 1")
    # a log joint divides a squared offset from a mean by a variance of at
    # least min(lambda, 1); offsets between means, and from the origin where
    # chains start, must leave it finite
    means = np.stack([c.mean for cls in built for c in cls.components])
    ends = np.vstack([means, np.zeros(dim)])
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum((means[:, None] - ends[None]) ** 2, axis=2) / min(max(min_var, _EIG_FLOOR), 1.0)
    if not np.all(np.isfinite(sq)):
        raise ValueError("component means are too far apart: squared distances overflow float64")
    return GmmSpec(tuple(built))


def two_class_benchmark() -> GmmSpec:
    """Default 2-D benchmark: two classes, two spherical components each.

    Classes are separated along the first coordinate with components stacked
    along the second; the gap is wide enough that the Bayes error is far
    below 1%.
    """
    v = 0.05
    return make_spec(
        [
            (0.5, [(0.5, [-1.0, -0.8], v), (0.5, [-1.0, 0.8], v)]),
            (0.5, [(0.5, [1.0, -0.8], v), (0.5, [1.0, 0.8], v)]),
        ]
    )


def three_class_benchmark() -> GmmSpec:
    """2-D multi-class variant: three equally likely spherical classes."""
    v = 0.05
    r = 1.4
    angles = [np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3]
    return make_spec(
        [(1.0 / 3.0, [(1.0, [r * np.cos(a), r * np.sin(a)], v)]) for a in angles]
    )


def sample_dataset(spec: GmmSpec, n: int, seed: int) -> LabeledDataset:
    """Draw n labeled points; deterministic in seed, an integer >= 0."""
    check_integer(n, "n", 1)
    check_integer(seed, "seed")
    points, labels = sample_labeled(spec, n, np.random.default_rng(seed))
    points.setflags(write=False)
    labels.setflags(write=False)
    return LabeledDataset(points, labels, seed)


def sample_labeled(spec: GmmSpec, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw n points (n, d) and their labels from the full mixture with rng."""
    labels = rng.choice(spec.n_classes, size=n, p=spec.priors())
    points = np.empty((n, spec.dim))
    for y, cls in enumerate(spec.classes):
        mask = labels == y
        if np.any(mask):
            points[mask] = _sample_class(cls, int(mask.sum()), rng)
    return points, labels


def sample_class_points(spec: GmmSpec, y: int, n: int, rng) -> np.ndarray:
    """Draw n points from class y's mixture using the supplied generator."""
    check_class(y, spec.n_classes)
    return _sample_class(spec.classes[y], n, rng)


def _sample_class(cls: ClassSpec, n: int, rng) -> np.ndarray:
    weights = np.array([c.weight for c in cls.components])
    which = rng.choice(len(cls.components), size=n, p=weights)
    dim = len(cls.components[0].mean)
    out = np.empty((n, dim))
    z = rng.standard_normal((n, dim))
    for k, comp in enumerate(cls.components):
        mask = which == k
        if np.any(mask):
            chol = np.linalg.cholesky(comp.cov)
            out[mask] = comp.mean + z[mask] @ chol.T
    return out


def pooled_components(spec: GmmSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class-marginalized mixture: weights prior*w, stacked means and covs."""
    w, mu, cov = [], [], []
    for cls in spec.classes:
        for comp in cls.components:
            w.append(cls.prior * comp.weight)
            mu.append(comp.mean)
            cov.append(comp.cov)
    return np.array(w), np.stack(mu), np.stack(cov)


_EIG_FLOOR = 1e-12


def check_class(y, n_classes: int, name: str = "y", rows: int | None = None) -> None:
    """Raise ValueError unless y is an integer class in [0, n_classes) or an
    integer array of such classes, one per row when rows is given. A negative
    class would otherwise wrap round to the last one, a float would truncate
    and a bool would index as a mask. One class, the sampler's case, costs a
    comparison and no array."""
    if type(y) is int or isinstance(y, np.integer):
        if not 0 <= y < n_classes:
            raise ValueError(f"{name} must be an integer class in [0, {n_classes}), got {y!r}")
        return
    ys = np.asarray(y)
    if rows is not None and ys.ndim and ys.shape != (rows,):
        raise ValueError(f"{name} of shape {ys.shape}: expected one class, or {rows} classes, one per row")
    if ys.dtype.kind not in "iu":
        got = repr(y) if ys.ndim == 0 else f"{ys.dtype} of shape {ys.shape}"
        raise ValueError(f"{name} must be an integer class in [0, {n_classes}), got {got}")
    if ys.size and (ys.min() < 0 or ys.max() >= n_classes):
        raise ValueError(f"{name} {ys[(ys < 0) | (ys >= n_classes)].flat[0]} outside [0, {n_classes})")


def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum of a over axis, adding the terms one at a time in index order
    (numpy's reductions and einsum may pair or reorder them). The result is
    always a new array."""
    lead = (slice(None),) * (axis % a.ndim)
    total = a[lead + (0,)].copy()
    for k in range(1, a.shape[axis]):
        total += a[lead + (k,)]
    return total


def _sum_of_products(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """_ordered_sum(a * b, axis) for a negative axis, without forming a * b:
    term 0's product, then each later term's product added in index order,
    an operand of length 1 on the axis broadcast. Every element sees the same
    operations, so the bits are those of the whole product's sum."""
    tail = (slice(None),) * (-axis - 1)

    def term(x, k):
        return x[(..., k if x.shape[axis] > 1 else 0) + tail]

    total = term(a, 0) * term(b, 0)
    for k in range(1, max(a.shape[axis], b.shape[axis])):
        total += term(a, k) * term(b, k)
    return total


def _contract(coef: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[..., o, k, n] = sum_j coef[..., j, o, k] v[..., j, k, n], for coef
    (..., j, o, K, 1)."""
    return _sum_of_products(coef, v[..., None, :, :], axis=-4)


class ComponentTables:
    """The pooled components of a spec, eigendecomposed once, and their
    forward-noised marginals N(sqrt(ab) mu_k, ab Sigma_k + (1 - ab) I)
    tabulated at each row of alpha_bars (ab = 1 is clean data).

    A pass is made at a 1-D array of s table rows (one row is an array of
    one), over a step-major batch of s groups of n points, and works on
    (s, coordinate, component, n) arrays, with coefficient tables ending in
    (K, 1). Each table row is read once and broadcast over its group, and
    broadcast products are summed term by term in index order, so a row's
    result depends neither on the rest of its group nor on the other groups.
    """

    def __init__(self, spec: GmmSpec, alpha_bars):
        weights, means, covs = pooled_components(spec)
        self.weights, self.means = weights, means
        vals, vecs = np.linalg.eigh(covs)
        self.cov_eigvals = np.maximum(vals, _EIG_FLOOR)  # (K, d)
        self.cov_eigvecs = vecs  # (K, d, d), columns are eigenvectors
        with np.errstate(divide="ignore"):  # a zero prior's components get log weight -inf
            self.log_weights = np.log(weights)[:, None]
        self.column_means = means.T[:, :, None]  # (d, K, 1)
        self.to_eigen = vecs.transpose(1, 2, 0)[..., None]  # [i, e, k] = V_k[i, e]
        self.from_eigen = vecs.transpose(2, 1, 0)[..., None]  # [e, i, k] = V_k[i, e]
        ab = np.asarray(alpha_bars, dtype=np.float64)[:, None, None]
        sa = np.sqrt(ab)
        marg = ab * self.cov_eigvals + (1.0 - ab)  # (rows, K, d) marginal eigvals
        shrink = self.cov_eigvals / marg  # lambda / marg

        def per_row(table):  # (rows, K, ...) -> (rows, ..., K, 1)
            return np.ascontiguousarray(np.moveaxis(table, 1, -1)[..., None])

        self.marg = per_row(marg)
        self.log_norm = np.sum(np.log(2.0 * np.pi * marg), axis=2)[..., None]  # (rows, K, 1)
        self.shifted_means = per_row(sa * means)  # sqrt(ab) mu_k
        self.shrink = per_row(shrink)

    def log_joint(self, X: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenbasis offsets V_k^T (x - sqrt(ab) mu_k) (s, d, K, n) and each
        component's log joint log w_k + log N(x; sqrt(ab) mu_k, S_k) (s, K, n),
        at a 1-D array of s table rows, for step-major points X (s n, d) of the
        spec's dimension d, or ValueError."""
        if X.shape[1:] != self.means.shape[1:]:
            raise ValueError(f"points of shape {X.shape}: expected (n, {self.means.shape[1]}), one point per row")
        if len(rows) == 0 or len(X) % len(rows):
            raise ValueError(f"{len(X)} rows do not split into {len(rows)} steps")
        marg = self.marg[rows]
        points = X.reshape(len(rows), -1, X.shape[1]).swapaxes(-1, -2)  # (s, d, n)
        diff = points[..., None, :] - self.shifted_means[rows]  # (s, d, K, n)
        proj = _contract(self.to_eigen, diff)
        quad = _ordered_sum(proj * proj / marg, axis=-3)
        return proj, self.log_weights - 0.5 * (quad + self.log_norm[rows])

    def score(self, proj: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Each component's log-density gradient -S_k^{-1} (x - sqrt(ab) mu_k),
        shaped like proj (s, d, K, n)."""
        return -_contract(self.from_eigen, proj / self.marg[rows])


def save_dataset_csv(dataset: LabeledDataset, path) -> None:
    header = [f"x{i}" for i in range(dataset.points.shape[1])] + ["label"]
    write_csv(path, header, (p + [y] for p, y in zip(dataset.points.tolist(), dataset.labels.tolist())))
