import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg as sla

import diffguide as dg
from diffguide.classifier import bayes_oracle, predict_logits
from diffguide.guidance import GuidanceConfig, ema, sample_batch
from diffguide.metrics import (
    EmptyBatchError,
    MetricsReport,
    evaluate,
    fit_gaussian,
    frechet_distance,
    gaussian_frechet,
    save_sweep_csv,
    sweep,
)
from diffguide.synthdata import sample_class_points, sample_dataset

from test_classifier import _spec3

# scoring far-out samples must stay quiet: their non-finite results are handled
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_identical_sets_zero(val_ds):
    assert frechet_distance(val_ds.points, val_ds.points) <= 1e-8


def test_population_mean_shift_only():
    # N(0,1) vs N(1,1) with exact population statistics: distance is 1
    d2 = gaussian_frechet(np.array([0.0]), np.array([[1.0]]), np.array([1.0]), np.array([[1.0]]))
    assert d2 == pytest.approx(1.0, abs=1e-12)


def test_diagonal_closed_form_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        mu_a, mu_b = rng.standard_normal(d), rng.standard_normal(d)
        va, vb = rng.uniform(0.1, 3.0, d), rng.uniform(0.1, 3.0, d)
        got = gaussian_frechet(mu_a, np.diag(va), mu_b, np.diag(vb))
        want = float(np.sum((mu_a - mu_b) ** 2) + np.sum((np.sqrt(va) - np.sqrt(vb)) ** 2))
        assert got == pytest.approx(want, abs=1e-10)


def test_matches_scipy_sqrtm_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        cov_a = A @ A.T + 0.1 * np.eye(3)
        cov_b = B @ B.T + 0.1 * np.eye(3)
        mu_a, mu_b = rng.standard_normal(3), rng.standard_normal(3)
        got = gaussian_frechet(mu_a, cov_a, mu_b, cov_b)
        cross = sla.sqrtm(cov_a @ cov_b).real
        want = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a + cov_b - 2 * cross))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_symmetric_and_rotation_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 2)) * 1.3 + 0.2
    b = rng.standard_normal((300, 2)) * 0.7 - 0.5
    assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-10)
    theta = 1.1
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert frechet_distance(a @ Q.T, b @ Q.T) == pytest.approx(frechet_distance(a, b), abs=1e-8)


def test_degenerate_sets_rejected():
    with pytest.raises(ValueError):
        fit_gaussian(np.zeros((2, 2)))


def test_point_mass_regularized():
    # zero-variance samples: the covariance floor keeps the metric defined
    a = np.tile([5.0, -3.0], (50, 1))
    b = np.random.default_rng(1).standard_normal((50, 2))
    d = frechet_distance(a, b)
    assert np.isfinite(d) and d > 10.0


def test_frechet_of_an_overflowing_covariance_is_infinite():
    # squared spreads near 1e307 sum past the largest double
    far = np.random.default_rng(1).uniform(-8e153, 8e153, (50, 3))
    near = np.random.default_rng(0).standard_normal((50, 3))
    assert frechet_distance(far, near) == np.inf


def test_evaluate_class_conditional_samples(spec2, h_oracle):
    samples = sample_class_points(spec2, 1, 2000, np.random.default_rng(7))
    rep = evaluate(samples, spec2, 1, h_oracle, seed=11)
    assert rep.target_accuracy_oracle > 0.99
    assert rep.cfd < 0.1
    assert rep.fd > rep.cfd  # class-1-only samples sit far from the pooled law
    assert rep.n_samples == 2000


def test_evaluate_pooled_samples(spec2, h_oracle):
    samples = sample_dataset(spec2, 2000, 13).points
    rep = evaluate(samples, spec2, 1, h_oracle, seed=11)
    assert rep.fd < 0.05
    # a pooled draw hits the target class at roughly its prior
    assert rep.target_accuracy_oracle == pytest.approx(0.5, abs=0.05)


def test_evaluate_refuses_samples_of_another_dimension(spec2, h_oracle):
    # three coordinates on the 2-D spec failed as a numpy broadcast error
    with pytest.raises(ValueError, match=r"points of shape \(50, 3\): expected \(n, 2\)"):
        evaluate(np.zeros((50, 3)), spec2, 1, h_oracle, seed=11)


def test_evaluate_refuses_a_negative_diverged_count(spec2, h_oracle):
    # -1 was written into the report
    with pytest.raises(ValueError, match=r"n_diverged must be an integer >= 0, got -1"):
        evaluate(np.zeros((5, 2)), spec2, 1, h_oracle, seed=0, n_diverged=-1)


@pytest.mark.parametrize("n_diverged", [1.5, True, np.float64(1.0)], ids=["fraction", "bool", "numpy-float"])
def test_evaluate_refuses_a_diverged_count_that_is_not_an_integer(spec2, h_oracle, n_diverged):
    # int() wrote each of these into the report as 1
    with pytest.raises(ValueError, match=rf"n_diverged must be an integer >= 0, got {re.escape(repr(n_diverged))}"):
        evaluate(np.zeros((5, 2)), spec2, 1, h_oracle, seed=0, n_diverged=n_diverged)
    # a numpy integer is an integer count
    assert evaluate(np.zeros((5, 2)), spec2, 1, h_oracle, seed=0, n_diverged=np.int64(2)).n_diverged == 2


@pytest.mark.parametrize("shape", [(2,), (2, 2, 2), (0,)], ids=["one-point", "three-axes", "empty-1-d"])
def test_evaluate_refuses_samples_that_are_not_a_batch(spec2, h_oracle, shape):
    # a (2,) point or a 3-D array read as an empty batch
    with pytest.raises(ValueError, match=rf"points of shape {re.escape(str(shape))}: expected \(n, 2\)"):
        evaluate(np.zeros(shape), spec2, 1, h_oracle, seed=0)


def test_evaluate_deterministic(spec2, h_oracle):
    samples = sample_dataset(spec2, 500, 29).points
    a = evaluate(samples, spec2, 0, h_oracle, seed=3)
    b = evaluate(samples, spec2, 0, h_oracle, seed=3)
    assert a.to_json() == b.to_json()


def test_evaluate_counts_a_row_without_finite_oracle_logits_as_a_miss(spec2, h_oracle):
    # at 1e155 every oracle logit is -inf; argmax would name class 0
    rep = evaluate(np.array([[1e155, 0.0]] * 3), spec2, 0, h_oracle, seed=0)
    assert rep.target_accuracy_oracle == 0.0


def test_evaluate_empty_errors(spec2, h_oracle):
    with pytest.raises(EmptyBatchError):
        evaluate(np.empty((0, 2)), spec2, 0, h_oracle, seed=0)


@pytest.mark.parametrize("n", [1, 2])
def test_evaluate_scores_too_few_points_to_fit(spec2, h_oracle, n):
    # d = 2: one or two survivors are too few to fit a Gaussian, but are scored
    X = np.array([[1.0, 0.8], [-1.0, -0.8]])[:n]
    rep = evaluate(X, spec2, 1, h_oracle, seed=0, n_diverged=10 - n)
    assert (rep.target_accuracy_oracle, rep.target_accuracy_guiding) == (1.0 / n, 1.0 / n)
    assert np.isnan(rep.fd) and np.isnan(rep.cfd)
    assert (rep.n_samples, rep.n_diverged) == (n, 10 - n)
    # three points fit
    assert np.isfinite(evaluate(np.vstack([X, X + 0.1, X - 0.2])[:3], spec2, 1, h_oracle, seed=0).fd)


def test_report_json_round_trip():
    import json

    rep = MetricsReport(0.95, 0.97, 1.5, 0.2, 100, 3, "abc123")
    back = json.loads(rep.to_json())
    assert back["target_accuracy_oracle"] == 0.95
    assert back["n_diverged"] == 3
    assert back["config_hash"] == "abc123"


def test_sweep_repeated_scale_identical_rows(small_denoiser, small_schedule, h_oracle):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0, path="x0pred", stabilizer=ema(0.9))
    rows = sweep(small_denoiser, small_schedule, cfg, [2.0, 2.0], 60, seed=19)
    assert rows[0][1].to_json() == rows[1][1].to_json()


def test_sweep_zero_scale_reproduces_unconditional(small_denoiser, small_schedule, h_oracle):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=5.0)
    rows = sweep(small_denoiser, small_schedule, cfg, [0.0], 80, seed=4)
    plain = dg.unconditional_batch(small_denoiser, small_schedule, 80, 4)
    rep = evaluate(plain.samples, small_denoiser.spec, 0, h_oracle, seed=4)
    assert rows[0][1].to_json() == rep.to_json()


def _per_scale_rows(dn, cfg, scales, n, seed):
    """The sweep written as one sample_batch and one evaluate per scale."""
    rows = []
    for s in scales:
        batch = sample_batch(dn, dn.schedule, replace(cfg, scale=s), n, seed)
        rep = evaluate(batch.kept(), dn.spec, cfg.target_class, cfg.classifier, seed=seed, n_diverged=batch.n_diverged)
        rows.append((s, rep.to_json()))
    return rows


def test_sweep_rows_equal_per_scale_loop_mlp(small_denoiser, h_nonrobust):
    cfg = GuidanceConfig(classifier=h_nonrobust, target_class=1, path="x0pred", stabilizer=ema(0.99))
    scales = [0.0, 1.0, 5.0, 20.0]
    got = [(s, rep.to_json()) for s, rep in sweep(small_denoiser, small_denoiser.schedule, cfg, scales, 40, seed=6)]
    assert got == _per_scale_rows(small_denoiser, cfg, scales, 40, 6)


@pytest.mark.parametrize(
    "path, scales",
    [("raw", [0.0, 5.0, 1300.0]), ("x0pred", [0.0, 5.0, 50.0])],
    ids=["raw-some-chains-diverge", "x0pred-full-jacobian"],
)
def test_sweep_rows_equal_per_scale_loop_oracle_3d_full_cov(small_schedule, path, scales):
    spec = _spec3()
    dn = dg.AnalyticDenoiser(spec, small_schedule)
    cfg = GuidanceConfig(classifier=bayes_oracle(spec), target_class=1, path=path)
    rows = sweep(dn, small_schedule, cfg, scales, 50, seed=3)
    assert [(s, rep.to_json()) for s, rep in rows] == _per_scale_rows(dn, cfg, scales, 50, 3)
    if path == "raw":
        # at scale 1300 some chains overflow and some do not
        assert 0 < rows[-1][1].n_diverged < 50


def test_sweep_all_diverged_rows_reported(small_denoiser, small_schedule, h_oracle):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1e12, path="raw", objective="logit")
    rows = sweep(small_denoiser, small_schedule, cfg, [1e12], 5, seed=1)
    rep = rows[0][1]
    assert rep.n_samples == 0
    assert rep.n_diverged == 5
    assert np.isnan(rep.fd)
    assert np.isnan(rep.target_accuracy_oracle) and np.isnan(rep.target_accuracy_guiding)


def test_sweep_requires_scales(small_denoiser, small_schedule, h_oracle):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0)
    with pytest.raises(ValueError):
        sweep(small_denoiser, small_schedule, cfg, [], 10, seed=0)


def test_sweep_csv_format(tmp_path, small_denoiser, small_schedule, h_oracle):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0)
    rows = sweep(small_denoiser, small_schedule, cfg, [0.0, 2.0], 30, seed=2)
    path = tmp_path / "sweep.csv"
    save_sweep_csv(rows, path, config_hash="cafe01")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash: cafe01"
    assert lines[1] == "s,acc_oracle,acc_guiding,fd,cfd,n,n_diverged"
    assert len(lines) == 4


def test_oracle_tables_are_built_once_per_spec(small_schedule, h_nonrobust, monkeypatch):
    # every scale's evaluation, and every oracle handle on the spec, reads
    # the one clean-data table cached on the spec
    spec = dg.two_class_benchmark()
    dn = dg.AnalyticDenoiser(spec, small_schedule)
    eigh, stacks = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:  # a stack of component covariances, not a Frechet square root
            stacks.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cfg = GuidanceConfig(classifier=h_nonrobust, target_class=1, path="x0pred", stabilizer=ema(0.9))
    sweep(dn, small_schedule, cfg, [0.0, 1.0, 2.0], 20, seed=3)
    assert len(stacks) == 1
    X = np.random.default_rng(2).standard_normal((5, 2))
    first, second = bayes_oracle(spec), bayes_oracle(spec)
    np.testing.assert_array_equal(predict_logits(first, X), predict_logits(second, X))
    assert len(stacks) == 1
