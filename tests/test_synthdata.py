import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from diffguide.classifier import bayes_oracle, predict_logits
from diffguide.denoiser import AnalyticDenoiser
from diffguide.schedule import linear_schedule
from diffguide.synthdata import (
    _ordered_sum,
    _sum_of_products,
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


def test_zero_prior_spec_builds_denoiser_and_oracle_quietly():
    # a zero prior's log weight is -inf: taken quietly, and its class never wins
    spec = make_spec([(1.0, [(1.0, [0.0, 0.0], 0.1)]), (0.0, [(1.0, [5.0, 5.0], 0.1)])])
    X = np.random.default_rng(2).standard_normal((6, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dn = AnalyticDenoiser(spec, linear_schedule(20, 1e-4, 0.05))
        mean_x0 = dn.posterior_mean_x0(X, 10)
        logits = predict_logits(bayes_oracle(spec), X)
    assert np.all(np.isfinite(mean_x0))
    assert np.all(np.isfinite(logits[:, 0])) and np.all(logits[:, 1] == -np.inf)


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


@pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)], ids=["fraction", "bool", "numpy-float"])
def test_sample_dataset_refuses_a_count_that_is_not_an_integer(n):
    # 2.5 and True failed inside numpy's rng.choice with a TypeError
    with pytest.raises(ValueError, match=rf"n must be an integer >= 1, got {re.escape(repr(n))}"):
        sample_dataset(two_class_benchmark(), n, 1)


def test_a_numpy_integer_count_draws_the_same_points():
    a, b = sample_dataset(two_class_benchmark(), np.int64(40), 5), sample_dataset(two_class_benchmark(), 40, 5)
    assert a.points.tobytes() == b.points.tobytes() and a.labels.tobytes() == b.labels.tobytes()


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


@pytest.mark.parametrize(
    "value", [True, np.bool_(False), "1", None, [1.0]], ids=["bool", "numpy-bool", "string", "none", "list"]
)
@pytest.mark.parametrize("name", ["class prior", "component weight"])
def test_make_spec_refuses_a_prior_or_weight_that_is_not_a_number(name, value):
    # True ran as 1.0; a string or None raised TypeError from <
    prior, weight = (value, 1.0) if name == "class prior" else (1.0, value)
    with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
        make_spec([(prior, [(weight, [0.0], 1.0)])])


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


@pytest.mark.parametrize(
    "y", [True, 1.0, np.float64(1.0), -1, 2], ids=["bool", "float", "np-float64", "negative", "past-last"]
)
def test_sample_class_points_refuses_a_class_that_is_not_an_integer_class(y):
    # unchecked, a bool would index class 1 and a float would not index the classes at all
    if type(y) is int:
        message = rf"y {y} outside \[0, 2\)"
    else:
        message = rf"y must be an integer in \[0, 2\), got {re.escape(repr(y))}"
    with pytest.raises(ValueError, match=message):
        sample_class_points(two_class_benchmark(), y, 10, np.random.default_rng(5))


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


# signed zeros, infinities, NaN, subnormals and magnitudes over many decades
_SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e-300]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _operand_pairs(draw):
    """Two broadcastable operands and a negative axis, shaped as the posterior
    pass's sums: (steps?, d, d, K, n) over K (axis -2) or over the first d
    (axis -4), each axis of each operand either full or 1."""
    d, K, n = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    full = ((draw(st.integers(1, 3)),) if draw(st.booleans()) else ()) + (d, d, K, n)
    axis = draw(st.sampled_from([-2, -4]))
    pair = []
    for _ in range(2):
        keep = draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
        shape = tuple(size if kept else 1 for size, kept in zip(full, keep))
        pair.append(draw(arrays(np.float64, shape, elements=_FLOATS)))
    return pair[0], pair[1], axis


@settings(max_examples=300, deadline=None, database=None)
@given(_operand_pairs())
def test_sum_of_products_has_the_bits_of_the_whole_products_sum(case):
    a, b, axis = case
    with np.errstate(all="ignore"):  # inf * 0, inf - inf and overflow are part of the case
        want = _ordered_sum(a * b, axis)
        got = _sum_of_products(a, b, axis)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, a) and not np.shares_memory(got, b)  # callers add into it


def test_sum_of_products_never_holds_the_whole_product():
    # the Jacobian's first sum in a 16-step block of 250 points: A (16, d, d, K, 1)
    # against the responsibilities; the whole product would be 4x the output
    rng = np.random.default_rng(3)
    A, r = rng.standard_normal((16, 2, 2, 4, 1)), rng.random((16, 4, 250))
    b = r[..., None, None, :, :]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = _sum_of_products(A, b, axis=-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (16, 2, 2, 250)
    assert peak < 4 * out.nbytes, peak / out.nbytes
