import numpy as np
import pytest
from scipy import stats

from diffguide.synthdata import (
    _ordered_sum,
    make_spec,
    pooled_components,
    sample_class_points,
    sample_dataset,
    save_dataset_csv,
    three_class_benchmark,
    two_class_benchmark,
)

from reference import accuracy, class_density, load_dataset_csv, log_class_density


def _single_standard_normal(d):
    return make_spec([(1.0, [(1.0, np.zeros(d), np.eye(d))])])


def test_sample_mean_clt_bound():
    spec = _single_standard_normal(2)
    ds = sample_dataset(spec, 100_000, 3)
    # CLT oracle: 3 sigma / sqrt(n) ~ 0.0095, the asserted bound has slack
    assert np.all(np.abs(ds.points.mean(axis=0)) < 0.02)
    assert np.all(np.abs(ds.points.std(axis=0) - 1.0) < 0.02)


def test_degenerate_prior_all_one_class():
    spec = make_spec(
        [
            (1.0, [(1.0, [0.0, 0.0], 0.1)]),
            (0.0, [(1.0, [5.0, 5.0], 0.1)]),
        ]
    )
    ds = sample_dataset(spec, 500, 0)
    assert np.all(ds.labels == 0)


def test_same_seed_identical():
    spec = two_class_benchmark()
    a = sample_dataset(spec, 300, 42)
    b = sample_dataset(spec, 300, 42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_different_seed_differs():
    spec = two_class_benchmark()
    a = sample_dataset(spec, 300, 42)
    b = sample_dataset(spec, 300, 43)
    assert not np.array_equal(a.points, b.points)


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_dataset(two_class_benchmark(), 0, 1)


def test_class_frequencies_chi2():
    spec = three_class_benchmark()
    ds = sample_dataset(spec, 100_000, 9)
    obs = np.bincount(ds.labels, minlength=3)
    exp = spec.priors() * len(ds)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    assert chi2 < stats.chi2.ppf(0.999, df=2)


def test_density_peak_1d():
    spec = _single_standard_normal(1)
    val = class_density(spec, 0, np.array([0.0]))
    assert val == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-12)
    assert val == pytest.approx(0.3989423, abs=1e-7)


def test_density_symmetric_mixture():
    mu = 1.3
    spec = make_spec([(1.0, [(0.5, [-mu], 1.0), (0.5, [mu], 1.0)])])
    at_zero = class_density(spec, 0, np.array([0.0]))
    # at the symmetry point, both components sit |mu| away
    one_comp = stats.norm.pdf(mu)
    assert at_zero == pytest.approx(one_comp, rel=1e-12)


def test_density_integrates_to_one_2d():
    spec = two_class_benchmark()
    # grid quadrature oracle over a box capturing all the mass
    xs = np.linspace(-3.5, 3.5, 701)
    ys = np.linspace(-3.5, 3.5, 701)
    X, Y = np.meshgrid(xs, ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    dx = xs[1] - xs[0]
    for y in range(2):
        total = class_density(spec, y, pts).sum() * dx * dx
        assert total == pytest.approx(1.0, abs=1e-6)


def test_log_density_matches_density():
    spec = two_class_benchmark()
    pts = np.random.default_rng(1).standard_normal((50, 2))
    np.testing.assert_allclose(
        np.exp(log_class_density(spec, 1, pts)), class_density(spec, 1, pts), rtol=1e-12
    )


def test_class_index_validated():
    spec = two_class_benchmark()
    with pytest.raises(ValueError):
        class_density(spec, 2, np.zeros(2))


def test_make_spec_validation():
    with pytest.raises(ValueError):  # priors off
        make_spec([(0.6, [(1.0, [0.0], 1.0)]), (0.6, [(1.0, [1.0], 1.0)])])
    with pytest.raises(ValueError):  # weights off
        make_spec([(1.0, [(0.5, [0.0], 1.0), (0.4, [1.0], 1.0)])])
    with pytest.raises(ValueError):  # not positive definite
        make_spec([(1.0, [(1.0, [0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))])])
    with pytest.raises(ValueError):  # asymmetric
        make_spec([(1.0, [(1.0, [0.0, 0.0], np.array([[1.0, 0.5], [0.2, 1.0]]))])])


def test_benchmark_specs_well_formed():
    for spec in (two_class_benchmark(), three_class_benchmark()):
        assert spec.dim == 2
        w, mu, cov = pooled_components(spec)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(mu) == len(cov) == len(w)


def test_benchmark_bayes_error_below_1pct():
    # oracle error rate on a large fresh draw
    from diffguide.classifier import bayes_oracle

    spec = two_class_benchmark()
    ds = sample_dataset(spec, 50_000, 17)
    acc = accuracy(bayes_oracle(spec), ds.points, ds.labels)
    assert acc > 0.99


def test_sample_class_points_only_that_class():
    spec = two_class_benchmark()
    pts = sample_class_points(spec, 0, 2000, np.random.default_rng(5))
    # class 0 lives on the negative side of the first coordinate
    assert np.mean(pts[:, 0] < 0) > 0.999


def test_correlated_density_matches_scipy():
    cov = np.array([[0.5, 0.3], [0.3, 0.4]])
    spec = make_spec([(1.0, [(1.0, [0.2, -0.1], cov)])])
    pts = np.random.default_rng(6).standard_normal((30, 2))
    want = stats.multivariate_normal(mean=[0.2, -0.1], cov=cov).pdf(pts)
    np.testing.assert_allclose(class_density(spec, 0, pts), want, rtol=1e-12)


def test_correlated_sampling_covariance():
    cov = np.array([[0.5, 0.3], [0.3, 0.4]])
    spec = make_spec([(1.0, [(1.0, [0.0, 0.0], cov)])])
    ds = sample_dataset(spec, 100_000, 12)
    np.testing.assert_allclose(np.cov(ds.points, rowvar=False), cov, atol=0.02)


def test_csv_round_trip_exact(tmp_path):
    spec = two_class_benchmark()
    ds = sample_dataset(spec, 100, 8)
    path = tmp_path / "data.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)


def _index_order_sum(a, axis):
    # a plain loop: term 0, then each later term added in index order
    total = np.take(a, 0, axis=axis).copy()
    for k in range(1, a.shape[axis]):
        total = total + np.take(a, k, axis=axis)
    return total


@pytest.mark.parametrize(
    "shape",
    [(2, 4, 50), (3, 2, 4, 50), (9, 3, 9), (4, 9, 3, 9), (2, 1, 5), (1, 2, 3, 1)],
    ids=["d-K-n", "step-d-K-n", "9-terms", "step-9-terms", "1-and-2-terms", "1-2-3-1-terms"],
)
def test_ordered_sum_adds_terms_in_index_order(shape):
    rng = np.random.default_rng(41)
    # magnitudes spread over 16 decades, so any reordering of a sum shows
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    for axis in range(-a.ndim, a.ndim):
        total = _ordered_sum(a, axis)
        assert np.array_equal(total, _index_order_sum(a, axis)), axis
        assert not np.shares_memory(total, a), axis  # callers add into the result
    if shape[-1] == 9:  # numpy's pairwise sum would reorder these terms
        assert not np.array_equal(np.sum(a, axis=-1), _index_order_sum(a, -1))
