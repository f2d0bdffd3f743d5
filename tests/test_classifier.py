import re

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from diffguide import classifier
from diffguide.classifier import ClassifierHandle, bayes_oracle, input_gradient, predict_logits
from diffguide.nn import init_mlp, log_softmax, log_softmax_target
from diffguide.schedule import schedule_from_betas
from diffguide.synthdata import make_spec, sample_dataset, three_class_benchmark, two_class_benchmark

from conftest import binomial_3sigma
from reference import accuracy, class_density, log_class_density

# oracle calls at far points must stay quiet: their -inf logits and 0 gradients are handled
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_oracle_equal_logits_at_midpoint():
    spec = make_spec(
        [
            (0.5, [(1.0, [-1.0, 0.0], 0.2)]),
            (0.5, [(1.0, [1.0, 0.0], 0.2)]),
        ]
    )
    logits = predict_logits(bayes_oracle(spec), np.array([[0.0, 0.37]]))[0]
    assert logits[0] == pytest.approx(logits[1], abs=1e-12)


def test_oracle_argmax_inside_component(spec2, h_oracle):
    deep = spec2.classes[0].components[0].mean
    assert np.argmax(predict_logits(h_oracle, deep[None])[0]) == 0
    deep1 = spec2.classes[1].components[1].mean
    assert np.argmax(predict_logits(h_oracle, deep1[None])[0]) == 1


def _spec3():
    """Three classes in 3-D with full covariances, one class with one component."""
    cov_a = np.array([[0.30, 0.12, -0.05], [0.12, 0.20, 0.04], [-0.05, 0.04, 0.15]])
    cov_b = np.array([[0.10, -0.03, 0.02], [-0.03, 0.25, 0.06], [0.02, 0.06, 0.40]])
    cov_c = np.array([[0.50, 0.10, 0.00], [0.10, 0.08, -0.02], [0.00, -0.02, 0.12]])
    return make_spec(
        [
            (0.3, [(0.6, [-0.8, 0.3, 0.5], cov_a), (0.4, [0.9, -0.2, -0.4], cov_b)]),
            (0.45, [(1.0, [0.1, 0.9, -0.7], cov_c)]),
            (
                0.25,
                [(0.5, [0.4, -0.6, 0.2], cov_b), (0.2, [-0.3, -0.4, 0.8], 0.1), (0.3, [0.0, 0.0, 0.0], [0.2, 0.3, 0.1])],
            ),
        ]
    )


def _check_true_posterior(spec, x):
    # softmax of log-joint logits must reproduce prior * density / evidence
    logits = predict_logits(bayes_oracle(spec), x[None])[0]
    post = np.exp(log_softmax(logits))
    joint = np.array([c.prior * class_density(spec, y, x) for y, c in enumerate(spec.classes)])
    np.testing.assert_allclose(post, joint / joint.sum(), rtol=1e-12)


def test_oracle_softmax_is_true_posterior(spec2):
    _check_true_posterior(spec2, np.array([0.31, -0.44]))


@pytest.mark.parametrize("x", [[0.31, -0.44, 0.2], [-0.6, 0.5, 0.1], [0.5, -0.3, -0.2]])
def test_oracle_softmax_is_true_posterior_3class_full_cov(x):
    _check_true_posterior(_spec3(), np.array(x))


def test_oracle_logits_match_scipy_mixture():
    spec = _spec3()
    X = np.random.default_rng(8).standard_normal((25, 3)) * 0.8
    logits = predict_logits(bayes_oracle(spec), X)
    for y, cls in enumerate(spec.classes):
        dens = sum(c.weight * np.exp(multivariate_normal.logpdf(X, c.mean, c.cov)) for c in cls.components)
        np.testing.assert_allclose(logits[:, y] - np.log(cls.prior), np.log(dens), rtol=1e-12)


def test_robust_clean_accuracy_close_to_nonrobust(h_nonrobust, h_robust, val_ds):
    a_nr = accuracy(h_nonrobust, val_ds.points, val_ds.labels)
    a_r = accuracy(h_robust, val_ds.points, val_ds.labels)
    assert a_r >= a_nr - 0.02


def test_oracle_beats_trained_on_fresh_data(spec2, h_oracle, h_nonrobust, h_robust):
    fresh = sample_dataset(spec2, 4000, 777)
    a_o = accuracy(h_oracle, fresh.points, fresh.labels)
    slack = binomial_3sigma(0.99, len(fresh))
    for h in (h_nonrobust, h_robust):
        assert a_o >= accuracy(h, fresh.points, fresh.labels) - slack


def test_accuracy_on_training_set(h_nonrobust, train_ds):
    assert accuracy(h_nonrobust, train_ds.points, train_ds.labels) >= 0.99


def test_full_noise_accuracy_near_chance(h_nonrobust, val_ds, schedule400):
    acc = accuracy(
        h_nonrobust, val_ds.points, val_ds.labels, "forward_noise",
        t=400, schedule=schedule400, seed=5,
    )
    assert 0.4 <= acc <= 0.6


def test_zero_beta_noise_equals_clean(h_nonrobust, val_ds):
    sch0 = schedule_from_betas(np.zeros(10), allow_degenerate=True)
    plain = accuracy(h_nonrobust, val_ds.points, val_ds.labels)
    noised = accuracy(
        h_nonrobust, val_ds.points, val_ds.labels, "forward_noise",
        t=5, schedule=sch0, seed=3,
    )
    assert noised == plain


def test_noisy_accuracy_nonincreasing_up_to_sampling_error(h_nonrobust, val_ds, schedule400):
    tol = binomial_3sigma(0.5, len(val_ds))
    best = 1.0
    for t in range(20, 401, 20):
        acc = accuracy(
            h_nonrobust, val_ds.points, val_ds.labels, "forward_noise",
            t=t, schedule=schedule400, seed=100 + t,
        )
        assert acc <= best + tol
        best = min(best, acc)


def test_robust_not_below_nonrobust_under_noise(h_nonrobust, h_robust, val_ds, schedule400):
    tol = binomial_3sigma(0.5, len(val_ds))
    for t in range(100, 401, 50):
        kw = dict(t=t, schedule=schedule400, seed=200 + t)
        a_r = accuracy(h_robust, val_ds.points, val_ds.labels, "forward_noise", **kw)
        a_nr = accuracy(h_nonrobust, val_ds.points, val_ds.labels, "forward_noise", **kw)
        assert a_r >= a_nr - tol


def test_x0_pred_preprocess_runs(h_nonrobust, val_ds, schedule400, denoiser):
    acc = accuracy(
        h_nonrobust, val_ds.points[:500], val_ds.labels[:500], "x0_pred",
        t=150, schedule=schedule400, denoiser=denoiser, seed=4,
    )
    assert 0.5 <= acc <= 1.0


def test_accuracy_validates_arguments(h_nonrobust, val_ds):
    with pytest.raises(ValueError):
        accuracy(h_nonrobust, val_ds.points, val_ds.labels, "blur")
    with pytest.raises(ValueError):
        accuracy(h_nonrobust, val_ds.points, val_ds.labels, "forward_noise")


def _check_finite_differences(spec, objective, seed, n=20):
    h_oracle = bayes_oracle(spec)
    d, n_classes = spec.dim, spec.n_classes

    def objective_at(x, y):
        logits = predict_logits(h_oracle, x[None])
        return logits[0, y] if objective == "logit" else log_softmax_target(logits, y)[0]

    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = rng.standard_normal(d) * 1.2
        y = int(rng.integers(n_classes))
        g = input_gradient(h_oracle, x[None], y, objective)[0]
        h = 1e-5
        g_fd = np.zeros(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            g_fd[j] = (objective_at(x + e, y) - objective_at(x - e, y)) / (2 * h)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g_fd))


def test_oracle_input_gradient_matches_finite_differences(spec2):
    _check_finite_differences(spec2, "log_softmax", seed=31)


@pytest.mark.parametrize("objective", ["log_softmax", "logit"])
def test_oracle_input_gradient_matches_finite_differences_3class_full_cov(objective):
    _check_finite_differences(_spec3(), objective, seed=32)


@pytest.mark.parametrize("objective", ["log_softmax", "logit"])
def test_oracle_finite_far_from_every_component(objective):
    # at distance 60 and 1e3 every pooled responsibility exp(log joint)
    # underflows to 0; per-class shifts keep logits and gradients finite
    for spec in (_spec3(), three_class_benchmark()):
        h = bayes_oracle(spec)
        direction = np.ones(spec.dim) / np.sqrt(spec.dim)
        for dist in (60.0, 1e3):
            X = np.stack([dist * direction, -dist * direction])
            assert np.all(np.exp(np.concatenate([log_class_density(spec, y, X) for y in range(spec.n_classes)])) == 0.0)
            assert np.all(np.isfinite(predict_logits(h, X)))
            for y in range(spec.n_classes):
                assert np.all(np.isfinite(input_gradient(h, X, y, objective)))


def test_oracle_beyond_squared_distance_overflow_has_no_nan():
    # beyond about 1e154 every log joint is -inf: each class's logit is -inf
    # and both objectives' gradients 0, where the max shifts once gave NaN;
    # a near point batched with far ones keeps every bit of its own row
    h = bayes_oracle(two_class_benchmark())
    X = np.array([[1e155, 0.0]])
    assert np.all(predict_logits(h, X) == -np.inf)
    near = np.array([[0.3, -0.2]])
    mixed = np.concatenate([X, near, [[-1e160, 3.0]]])
    for objective in ("log_softmax", "logit"):
        for y in range(2):
            assert np.array_equal(input_gradient(h, X, y, objective), np.zeros((1, 2)))
            g = input_gradient(h, mixed, y, objective)
            assert np.array_equal(g[[0, 2]], np.zeros((2, 2)))
            assert g[1].tobytes() == input_gradient(h, near, y, objective)[0].tobytes()


def test_oracle_logit_gradient_for_one_component_class_is_the_score():
    for spec, y in ((_spec3(), 1), (three_class_benchmark(), 2)):
        comp = spec.classes[y].components[0]
        X = np.random.default_rng(9).standard_normal((30, spec.dim)) * 2.0
        g = input_gradient(bayes_oracle(spec), X, y, "logit")
        for x, gx in zip(X, g):
            score = -np.linalg.solve(comp.cov, x - comp.mean)
            assert np.linalg.norm(gx - score) <= 1e-12 * np.linalg.norm(score)


def test_oracle_with_a_component_weight_of_1e_minus_12():
    spec = make_spec(
        [
            (0.5, [(1.0 - 1e-12, [-1.0, 0.0], 0.05), (1e-12, [3.0, 3.0], 0.01)]),
            (0.5, [(1.0, [1.0, 0.0], 0.05)]),
        ]
    )
    h = bayes_oracle(spec)
    # at (3, 3) the tiny component outweighs the main one by far
    X = np.array([[3.0, 3.0], [3.05, 2.9], [-1.0, 0.1], [0.2, -0.3]])
    logits = predict_logits(h, X)
    for y, cls in enumerate(spec.classes):
        np.testing.assert_allclose(logits[:, y], np.log(cls.prior) + log_class_density(spec, y, X), rtol=1e-12)
    assert np.argmax(logits[0]) == 0
    _check_finite_differences(spec, "log_softmax", seed=33, n=10)
    _check_finite_differences(spec, "logit", seed=34, n=10)


def test_oracle_floors_a_near_singular_covariance():
    # an eigenvalue of 1e-13 is floored at _EIG_FLOOR = 1e-12, so the oracle
    # equals, bit for bit, the one built with the floor value itself
    def spec_with(thin):
        return make_spec(
            [
                (0.5, [(1.0, [-1.0, 0.0], [thin, 0.05])]),
                (0.5, [(1.0, [1.0, 0.0], 0.05)]),
            ]
        )

    X = np.array([[-1.0, 0.0], [-1.0 + 1e-3, 0.2], [0.3, -0.4]])
    thin, floored = bayes_oracle(spec_with(1e-13)), bayes_oracle(spec_with(1e-12))
    np.testing.assert_array_equal(predict_logits(thin, X), predict_logits(floored, X))
    assert np.all(np.isfinite(predict_logits(thin, X)))
    for objective in ("log_softmax", "logit"):
        g = input_gradient(thin, X, 0, objective)
        np.testing.assert_array_equal(g, input_gradient(floored, X, 0, objective))
        assert np.all(np.isfinite(g))


@pytest.mark.parametrize("objective", ["log_softmax", "logit"])
def test_oracle_rows_are_shard_invariant(spec2, objective):
    for spec in (spec2, _spec3()):
        h = bayes_oracle(spec)
        X = np.random.default_rng(10).standard_normal((1000, spec.dim)) * 1.5
        ys = np.arange(1000) % spec.n_classes
        whole = input_gradient(h, X, ys, objective)
        shards = np.concatenate([input_gradient(h, X[i : i + 64], ys[i : i + 64], objective) for i in range(0, 1000, 64)])
        np.testing.assert_array_equal(whole, shards)
        logit_shards = np.concatenate([predict_logits(h, X[i : i + 64]) for i in range(0, 1000, 64)])
        np.testing.assert_array_equal(predict_logits(h, X), logit_shards)


def _rows_near_and_far(spec, seed):
    """Random rows, a row at a component mean, and rows beyond 1e154 where
    every class is gone; for _spec3, also rows where one class is gone."""
    d = spec.dim
    X = np.random.default_rng(seed).standard_normal((200, d)) * 1.5
    far = [np.full(d, 1e155), np.full(d, -1e160)]
    if spec.dim == 3:
        far += [[5.89e153, 0.0, 0.0], [0.0, 3.24e153, 0.0]]
    return np.concatenate([X, [spec.classes[-1].components[0].mean], far])


@pytest.mark.parametrize(
    "y, message",
    [
        (-1, r"y must be an integer class in \[0, 2\), got -1"),
        (2, r"y must be an integer class in \[0, 2\), got 2"),
        (0.5, r"y must be an integer class in \[0, 2\), got 0.5"),
        (True, r"y must be an integer class in \[0, 2\), got True"),
        (np.array([0, -1, 1]), r"y -1 outside \[0, 2\)"),
        (np.array([0.0, 1.0, 1.0]), r"y must be an integer class in \[0, 2\), got float64 of shape \(3,\)"),
        (np.array([0, 1]), r"y of shape \(2,\): expected one class, or 3 classes, one per row"),
        (np.array([0, 1, 1, 0]), r"y of shape \(4,\): expected one class, or 3 classes, one per row"),
        (np.zeros((3, 1), dtype=np.int64), r"y of shape \(3, 1\): expected one class, or 3 classes, one per row"),
    ],
    ids=["negative", "too-large", "fraction", "bool", "negative-row", "float-rows", "short", "long", "column"],
)
@pytest.mark.parametrize("persona", ["h_nonrobust", "h_oracle"])
def test_input_gradient_refuses_a_class_outside_the_classifiers(request, persona, y, message):
    # -1 would give the last class's gradient, 0.5 class 0's and 2 an
    # IndexError; class arrays of another length failed in the one-hot or
    # gather with an IndexError naming neither y nor the rows
    h = request.getfixturevalue(persona)
    with pytest.raises(ValueError, match=message):
        input_gradient(h, np.zeros((3, 2)), y)


@pytest.mark.parametrize("call", ["logits", "gradient"])
def test_oracle_refuses_points_of_another_dimension(h_oracle, call):
    # three coordinates on the 2-D spec failed as a numpy broadcast error
    X = np.zeros((5, 3))
    with pytest.raises(ValueError, match=r"points of shape \(5, 3\): expected \(n, 2\)"):
        predict_logits(h_oracle, X) if call == "logits" else input_gradient(h_oracle, X, 0)


@pytest.mark.parametrize("objective", ["log_softmax", "logit"])
def test_oracle_scalar_class_equals_per_row_classes_bitwise(monkeypatch, objective):
    # a scalar class reads its own row of the pass, a class array gathers
    # each row's; both give the same bits, and a new C-contiguous array
    buffers = []

    def recording_pass(h, X):
        out = real_pass(h, X)
        buffers.append(out[1])
        return out

    real_pass = classifier._oracle_pass
    monkeypatch.setattr(classifier, "_oracle_pass", recording_pass)
    for spec in (two_class_benchmark(), three_class_benchmark(), _spec3()):
        h = bayes_oracle(spec)
        X = _rows_near_and_far(spec, seed=11)
        logits = predict_logits(h, X)
        gone = np.all(logits == -np.inf, axis=1)
        assert gone.sum() == 2 and np.any(logits[~gone] == -np.inf) == (spec.dim == 3)
        for y in range(spec.n_classes):
            got = input_gradient(h, X, y, objective)
            assert got.flags.c_contiguous and got.shape == X.shape
            assert not np.shares_memory(got, buffers[-1])
            want = input_gradient(h, X, np.full(len(X), y), objective)
            assert got.tobytes() == want.tobytes(), (spec.n_classes, y)
            assert not np.isnan(got).any() and np.all(got[gone] == 0.0)
            if objective == "logit":
                assert np.all(got[logits[:, y] == -np.inf] == 0.0)


@pytest.mark.parametrize("persona", ["bayes_oracle", "non_robust"])
def test_unknown_objective_is_refused_by_every_persona(h_oracle, h_nonrobust, persona):
    h = h_oracle if persona == "bayes_oracle" else h_nonrobust
    with pytest.raises(ValueError, match="objective must be one of"):
        input_gradient(h, np.zeros((3, 2)), 1, "nonsense")


@pytest.mark.parametrize("shape", [(2,), (1, 2, 2)], ids=["one-point", "three-axes"])
@pytest.mark.parametrize("persona", ["bayes_oracle", "non_robust"])
def test_every_persona_refuses_points_that_are_not_a_batch(h_oracle, h_nonrobust, persona, shape):
    # a single point is a batch of one, x[None]; a (2,) point was once
    # unwrapped to a (C,) result and a 3-D array failed inside numpy
    h = h_oracle if persona == "bayes_oracle" else h_nonrobust
    message = rf"points of shape {re.escape(str(shape))}: expected \(n, 2\)"
    with pytest.raises(ValueError, match=message):
        predict_logits(h, np.zeros(shape))
    with pytest.raises(ValueError, match=message):
        input_gradient(h, np.zeros(shape), 0)


def test_mlp_handle_gradient_delegates(h_nonrobust, model_nonrobust):
    from diffguide import nn

    x = np.array([[0.2, -0.1]])
    np.testing.assert_array_equal(
        input_gradient(h_nonrobust, x, 1), nn.input_gradient(model_nonrobust, x, 1)
    )


@pytest.mark.parametrize(
    "kind, with_model, with_spec, message",
    [
        ("bogus", True, False, "unknown classifier kind 'bogus'"),
        ("bayes_oracle", True, False, "needs a spec"),
        ("non_robust", False, True, "needs a model"),
        ("robust", False, True, "needs a model"),
    ],
    ids=["unknown-kind", "oracle-without-spec", "non-robust-without-model", "robust-without-model"],
)
def test_handle_is_checked_when_built(spec2, kind, with_model, with_spec, message):
    # refused when built, so neither logits nor gradients can run on a bad handle
    model = init_mlp([2, 4, 2]) if with_model else None
    with pytest.raises(ValueError, match=message):
        ClassifierHandle(kind, model=model, spec=spec2 if with_spec else None)
