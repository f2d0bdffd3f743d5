import csv
import math
import statistics
import warnings

import numpy as np
import pytest

import diffguide as dg
from diffguide.classifier import ClassifierHandle, bayes_oracle, predict_logits
from diffguide.denoiser import AnalyticDenoiser
from diffguide.guidance import GuidanceConfig, adam, ema, identity
from diffguide.nn import MlpModel
from diffguide.schedule import forward_sample, schedule_from_betas
from diffguide.sensitivity import curve, save_curve_csv
from diffguide.synthdata import make_spec

from reference import coupled_pair, gradient_sensitivity, guided_gradient, logit_sensitivity, sensitivity_walk


def _recipe(h, **kw):
    """A guidance recipe on h; a curve takes each point's label as the target class."""
    return GuidanceConfig(h, target_class=0, **kw)


def _linear_handle(W, b=None):
    W = np.asarray(W, dtype=np.float64)
    b = np.zeros(W.shape[1]) if b is None else np.asarray(b, dtype=np.float64)
    return ClassifierHandle("non_robust", model=MlpModel((W,), (b,)))


def test_logit_sensitivity_identity_map():
    h = _linear_handle(np.eye(2))
    a, b = np.array([0.3, 1.0]), np.array([0.1, -0.2])
    assert logit_sensitivity(h, a, b) == pytest.approx(1.0, abs=1e-12)


def test_logit_sensitivity_constant_map():
    h = _linear_handle(np.zeros((2, 2)), b=np.array([3.0, -1.0]))
    assert logit_sensitivity(h, np.zeros(2), np.ones(2)) == 0.0


def test_logit_sensitivity_scaling():
    h = _linear_handle(2.0 * np.eye(2))
    a, b = np.array([0.5, 0.5]), np.array([-0.5, 1.5])
    assert logit_sensitivity(h, a, b) == pytest.approx(2.0, abs=1e-12)


def test_logit_sensitivity_zero_denominator_undefined():
    h = _linear_handle(np.eye(2))
    assert np.isnan(logit_sensitivity(h, np.ones(2), np.ones(2)))


def test_logit_sensitivity_symmetric(h_nonrobust):
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(2), rng.standard_normal(2)
    assert logit_sensitivity(h_nonrobust, a, b) == logit_sensitivity(h_nonrobust, b, a)


def test_logit_sensitivity_rotation_invariant(model_nonrobust):
    # rotate the logits of both points by composing the last layer with Q
    theta = 0.7
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = MlpModel(
        model_nonrobust.weights[:-1] + (model_nonrobust.weights[-1] @ Q,),
        model_nonrobust.biases[:-1] + (model_nonrobust.biases[-1] @ Q,),
        model_nonrobust.activation,
    )
    h = ClassifierHandle("non_robust", model=model_nonrobust)
    h_rot = ClassifierHandle("non_robust", model=rotated)
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        assert logit_sensitivity(h, a, b) == pytest.approx(
            logit_sensitivity(h_rot, a, b), abs=1e-8
        )


def test_gradient_sensitivity_linear_classifier_zero(small_denoiser):
    # raw logit gradients of an affine model are constant in x
    h = _linear_handle(np.array([[1.0, -0.5], [0.2, 0.4]]))
    val = gradient_sensitivity(
        h, small_denoiser, np.array([0.4, 0.2]), np.array([0.1, 0.1]), 5, 0, objective="logit"
    )
    assert val == 0.0


def test_gradient_sensitivity_quadratic_surrogate():
    # class-0 logit of a standard normal oracle component is -||x||^2/2 + const,
    # so its gradient is -x and the ratio is exactly 1
    spec = make_spec([(0.5, [(1.0, [0.0, 0.0], 1.0)]), (0.5, [(1.0, [4.0, 4.0], 1.0)])])
    sch = schedule_from_betas([0.05, 0.05])
    dn = AnalyticDenoiser(spec, sch)
    h = bayes_oracle(spec)
    a, b = np.array([0.7, -0.3]), np.array([0.1, 0.4])
    val = gradient_sensitivity(h, dn, a, b, 2, 0, objective="logit")
    assert val == pytest.approx(1.0, abs=1e-12)


def test_gradient_sensitivity_symmetric_swap(h_nonrobust, small_denoiser):
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(2), rng.standard_normal(2)
    # swapping the pair swaps which point gets which step index; for the raw
    # path the value only depends on the two gradients, so equality is exact
    v1 = gradient_sensitivity(h_nonrobust, small_denoiser, a, b, 5, 1, path="raw")
    g_a = guided_gradient(small_denoiser, h_nonrobust, a, 5, 1, path="raw")
    g_b = guided_gradient(small_denoiser, h_nonrobust, b, 4, 1, path="raw")
    assert v1 == pytest.approx(
        float(np.linalg.norm(g_a - g_b) / np.linalg.norm(a - b)), rel=1e-15
    )
    assert v1 == pytest.approx(
        float(np.linalg.norm(g_b - g_a) / np.linalg.norm(b - a)), rel=1e-15
    )


def test_gradient_sensitivity_nonrobust_exceeds_robust_midway(
    h_nonrobust, h_robust, denoiser, schedule400, val_ds
):
    rng = np.random.default_rng(11)
    t = 200
    vals_nr, vals_r = [], []
    for i in range(120):
        eps = rng.standard_normal(2)
        x_t, x_tm1 = coupled_pair(schedule400, val_ds.points[i], t, eps)
        y = int(val_ds.labels[i])
        vals_nr.append(gradient_sensitivity(h_nonrobust, denoiser, x_t, x_tm1, t, y))
        vals_r.append(gradient_sensitivity(h_robust, denoiser, x_t, x_tm1, t, y))
    assert np.mean(vals_nr) > np.mean(vals_r)


def _one_point_pairs(schedule, x0, seed):
    """The coupled pairs (x_t, x_{t-1}), t = 2..T, of a one-point curve at seed."""
    eps = np.random.default_rng(seed).standard_normal((1, 2))[0]
    return [coupled_pair(schedule, x0, t, eps) for t in range(2, schedule.T + 1)]


def test_stabilized_identity_equals_pointwise(h_nonrobust, small_denoiser, small_schedule):
    x0 = np.random.default_rng(4).standard_normal(2)
    recipe = _recipe(h_nonrobust, stabilizer=identity())
    c = curve(recipe, small_denoiser, x0[None], [1], "stabilized_gradient", seed=40)
    for i, (x_t, x_tm1) in enumerate(_one_point_pairs(small_schedule, x0, 40)):
        want = gradient_sensitivity(h_nonrobust, small_denoiser, x_t, x_tm1, int(c.t[i]), 1, path="raw")
        assert c.mean[i] == pytest.approx(want, rel=1e-12)


def test_stabilized_ema_constant_gradient_geometric_decay(small_denoiser, small_schedule):
    # affine logits give a constant gradient sequence; the ema differences
    # then shrink by exactly beta per step and the ratios tend to zero
    h = _linear_handle(np.array([[0.8, -0.2], [0.1, 0.9]]))
    x0 = np.random.default_rng(5).standard_normal(2)
    beta = 0.9
    recipe = _recipe(h, stabilizer=ema(beta), objective="logit")
    c = curve(recipe, small_denoiser, x0[None], [0], "stabilized_gradient", seed=50)
    vals = c.mean
    dens = np.array([np.linalg.norm(a - b) for a, b in _one_point_pairs(small_schedule, x0, 50)])
    nums = vals * dens  # ||nu_t - nu_{t+1}|| walking downward
    nums = nums[::-1]  # chronological order of the walk
    for k in range(len(nums) - 1):
        assert nums[k + 1] == pytest.approx(beta * nums[k], rel=1e-9)
    assert vals[0] < 1e-2 * vals[-1]


def test_stabilized_identity_curve_equals_gradient_curve(h_nonrobust, small_denoiser, val_ds):
    pts, labs = val_ds.points[:12], val_ds.labels[:12]
    for path in ("raw", "x0pred"):
        plain = curve(_recipe(h_nonrobust, path=path), small_denoiser, pts, labs, "gradient", seed=8)
        recipe = _recipe(h_nonrobust, path=path, stabilizer=identity())
        stab = curve(recipe, small_denoiser, pts, labs, "stabilized_gradient", seed=8)
        assert np.array_equal(stab.mean, plain.mean)
        assert np.array_equal(stab.std, plain.std)
        assert np.array_equal(stab.count, plain.count)


def test_curve_matches_scalar_ops(h_nonrobust, small_denoiser, small_schedule, val_ds):
    pts, labs = val_ds.points[:3], val_ds.labels[:3]
    c = curve(_recipe(h_nonrobust), small_denoiser, pts, labs, "gradient", seed=99)
    rng = np.random.default_rng(99)
    eps = rng.standard_normal((3, 2))
    t = 30
    vals = [
        gradient_sensitivity(
            h_nonrobust,
            small_denoiser,
            *coupled_pair(small_schedule, pts[i], t, eps[i]),
            t,
            int(labs[i]),
        )
        for i in range(3)
    ]
    assert c.mean[t - 2] == pytest.approx(np.mean(vals), rel=1e-12)
    assert c.count[t - 2] == 3


def test_curve_degenerate_schedule(h_nonrobust, spec2):
    sch0 = schedule_from_betas(np.zeros(12), allow_degenerate=True)
    dn0 = AnalyticDenoiser(spec2, sch0)
    pts = np.random.default_rng(0).standard_normal((5, 2))
    c = curve(_recipe(h_nonrobust), dn0, pts, np.zeros(5, dtype=int), "logit", seed=1)
    assert c.degenerate
    assert np.all(c.count == 0)
    assert np.all(np.isnan(c.mean))


def test_curve_refuses_a_nan_change_between_distinct_points(small_denoiser, spec2):
    # one NaN output weight makes every logit NaN: a NaN change between
    # distinct points is a fault of the classifier, not an undefined pair
    model = dg.init_mlp([2, 4, 2], "tanh", seed=3)
    W_out = model.weights[1].copy()
    W_out[0, 0] = np.nan
    h = ClassifierHandle("non_robust", model=MlpModel((model.weights[0], W_out), model.biases, "tanh"))
    pts = np.random.default_rng(0).standard_normal((5, 2))
    for metric in ("logit", "gradient", "stabilized_gradient"):
        for path in ("raw", "x0pred"):
            with pytest.raises(ValueError, match="changed by NaN between distinct points"):
                curve(_recipe(h, path=path), small_denoiser, pts, np.zeros(5, dtype=int), metric, seed=1)
    # no pair is distinct under a zero-beta schedule: still degenerate, not refused
    dn0 = AnalyticDenoiser(spec2, schedule_from_betas(np.zeros(12), allow_degenerate=True))
    c = curve(_recipe(h), dn0, pts, np.zeros(5, dtype=int), "logit", seed=1)
    assert c.degenerate and np.all(c.count == 0)


def test_curve_aggregates_each_steps_defined_ratios(h_oracle, spec2, monkeypatch):
    # an aggregation check independent of numpy's NaN-aware reductions: beta_3
    # = 0 puts every x_3 on x_2, so step 3 has no defined pair; point 0's x_6
    # is pinned to its x_7 (step 7 loses one pair) and the other points' x_5
    # to their x_6 (step 6 keeps only point 0's pair)
    betas = np.linspace(0.01, 0.2, 8)
    betas[3 - 1] = 0.0
    dn = AnalyticDenoiser(spec2, schedule_from_betas(betas, allow_degenerate=True))
    pts = np.random.default_rng(4).standard_normal((4, 2))
    n, T = len(pts), dn.schedule.T

    def pinned(schedule, X0, t, eps):
        t = np.broadcast_to(t, len(X0))
        point = np.arange(len(X0)) % n  # rows are step-major stacks of the n points
        src = t.copy()
        src[(t == 6) & (point == 0)] = 7
        src[(t == 5) & (point > 0)] = 6
        return forward_sample(schedule, X0, src, eps)

    monkeypatch.setattr(dg.sensitivity, "forward_sample", pinned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = curve(_recipe(h_oracle), dn, pts, [0, 1, 1, 0], "logit", seed=9)
    eps = np.random.default_rng(9).standard_normal((n, 2))
    xs = {t: pinned(dn.schedule, pts, t, eps).tolist() for t in range(1, T + 1)}
    fs = {t: predict_logits(h_oracle, np.array(x)).tolist() for t, x in xs.items()}
    for t in range(2, T + 1):
        ratios = [
            math.dist(fs[t][i], fs[t - 1][i]) / math.dist(xs[t][i], xs[t - 1][i])
            for i in range(n)
            if xs[t][i] != xs[t - 1][i]
        ]
        assert c.count[t - 2] == len(ratios) == {3: 0, 6: 1, 7: 3}.get(t, n), t
        if ratios:
            assert c.mean[t - 2] == pytest.approx(statistics.fmean(ratios), rel=1e-13, abs=0), t
            assert c.std[t - 2] == pytest.approx(statistics.pstdev(ratios), rel=1e-12, abs=1e-300), t
        else:
            assert np.isnan(c.mean[t - 2]) and np.isnan(c.std[t - 2]), t


def test_a_ratio_that_overflows_reads_inf_and_the_aggregation_stays_quiet(small_denoiser):
    # the far point's logit change overflows its norm to inf: each step's mean
    # is inf and its std NaN (inf - inf in the centring), with no warning from
    # the norm or the aggregation, which pytest would raise as an error
    h = _linear_handle(np.eye(2) * 1e150)
    pts = np.array([[0.3, -0.2], [1e10, 0.0]])
    c = curve(_recipe(h), small_denoiser, pts, [0, 1], "logit", seed=2)
    assert np.all(c.count == 2)
    assert np.all(c.mean == np.inf) and np.all(np.isnan(c.std))


def test_curve_deterministic(h_nonrobust, small_denoiser, val_ds):
    a = curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:20], val_ds.labels[:20], "logit", seed=5)
    b = curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:20], val_ds.labels[:20], "logit", seed=5)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std, b.std)


def test_curve_ema_window_ordering(h_nonrobust, denoiser, val_ds):
    # larger window smooths more on the denoised-prediction path
    pts, labs = val_ds.points[:150], val_ds.labels[:150]
    T = denoiser.schedule.T
    metric = "stabilized_gradient"
    c99 = curve(_recipe(h_nonrobust, path="x0pred", stabilizer=ema(0.99)), denoiser, pts, labs, metric, seed=7)
    c90 = curve(_recipe(h_nonrobust, path="x0pred", stabilizer=ema(0.9)), denoiser, pts, labs, metric, seed=7)
    half = c99.t < T // 2
    assert np.nanmean(c99.mean[half]) < np.nanmean(c90.mean[half])


def test_curve_validates_metric(h_nonrobust, small_denoiser, val_ds):
    with pytest.raises(ValueError):
        curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:5], val_ds.labels[:5], "hessian")
    with pytest.raises(ValueError, match="at least one point"):
        curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:0], val_ds.labels[:0], "logit")


@pytest.mark.parametrize("shape", [(2,), (5, 3), (1, 5, 2)], ids=["one-point", "three-coordinates", "three-axes"])
def test_curve_refuses_points_that_are_not_n_by_dim(h_nonrobust, small_denoiser, shape):
    pts = np.zeros(shape)
    with pytest.raises(ValueError, match=r"points of shape .*: expected \(n, 2\)"):
        curve(_recipe(h_nonrobust), small_denoiser, pts, [0] * len(pts), "logit")


def test_curve_refuses_a_label_outside_the_classes(h_nonrobust, small_denoiser, val_ds):
    # -1 would pick the last class's row of the one-hot
    labs = val_ds.labels[:5].copy()
    labs[2] = -1
    with pytest.raises(ValueError, match=r"label -1 outside \[0, 2\)"):
        curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:5], labs, "gradient")
    labs[2] = 2
    with pytest.raises(ValueError, match=r"label 2 outside \[0, 2\)"):
        curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:5], labs, "gradient")


def test_curve_refuses_a_fractional_label(h_nonrobust, small_denoiser, val_ds):
    # 0.5 would truncate to class 0
    labs = [0.5, 1, 0, 1, 0]
    with pytest.raises(ValueError, match="labels must be 5 integers"):
        curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:5], labs, "gradient")


def test_curve_refuses_fewer_labels_than_points(h_nonrobust, small_denoiser, val_ds):
    with pytest.raises(ValueError, match=r"labels must be 80 integers.* shape \(60,\)"):
        curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:80], val_ds.labels[:60], "gradient")


def test_curve_csv_round_trip(tmp_path, h_nonrobust, small_denoiser, val_ds):
    c = curve(_recipe(h_nonrobust), small_denoiser, val_ds.points[:10], val_ds.labels[:10], "logit", seed=3)
    path = tmp_path / "curve.csv"
    save_curve_csv(c, path, config_hash="deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash: deadbeef"
    assert lines[1] == "t,mean,std,count,metric,path,stabilizer"
    assert len(lines) == 2 + len(c.t)
    first = lines[2].split(",")
    assert int(first[0]) == 2
    assert float(first[1]) == pytest.approx(c.mean[0], rel=1e-16)
    # the adam label holds commas: it is quoted, and reads back whole
    recipe = _recipe(h_nonrobust, stabilizer=adam())
    c = curve(recipe, small_denoiser, val_ds.points[:10], val_ds.labels[:10], "stabilized_gradient", seed=3)
    save_curve_csv(c, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "mean", "std", "count", "metric", "path", "stabilizer"]
    assert len(rows) == 1 + len(c.t)
    assert {r[6] for r in rows[1:]} == {"adam(0.9,0.999)"}
    assert [float(r[1]) for r in rows[1:]] == c.mean.tolist()


def test_x0pred_gradient_curve_runs_one_posterior_pass_per_gradient(
    h_nonrobust, small_denoiser, val_ds, monkeypatch
):
    from diffguide import classifier

    calls = {"posterior": 0, "gradient": 0, "norm": 0}
    rows = {"posterior": 0, "gradient": 0}
    bundle, input_gradient, norm = AnalyticDenoiser._bundle, classifier.input_gradient, np.linalg.norm

    def counted_bundle(self, X, t, with_jacobian=False):
        calls["posterior"] += 1
        rows["posterior"] += len(X)
        return bundle(self, X, t, with_jacobian)

    def counted_gradient(h, x, *args, **kwargs):
        calls["gradient"] += 1
        rows["gradient"] += len(x)
        return input_gradient(h, x, *args, **kwargs)

    def counted_norm(*args, **kwargs):
        calls["norm"] += 1
        return norm(*args, **kwargs)

    monkeypatch.setattr(AnalyticDenoiser, "_bundle", counted_bundle)
    monkeypatch.setattr(classifier, "input_gradient", counted_gradient)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    n, T = 20, small_denoiser.schedule.T
    monkeypatch.setattr(dg.sensitivity, "_BLOCK_ROWS", 7 * n)  # blocks of 7 steps
    dg.sensitivity.curve(
        _recipe(h_nonrobust, path="x0pred"), small_denoiser, val_ds.points[:n], val_ds.labels[:n], "gradient"
    )
    # the walk runs in blocks of steps: one pass feeds each gradient call,
    # and together they see every step's rows once; each block's ratios
    # take one norm of its gradient differences and one of its distances
    assert calls["posterior"] == calls["gradient"] == -(-T // 7)
    assert calls["norm"] == 2 * calls["gradient"]
    assert rows["posterior"] == rows["gradient"] == T * n


_BLOCK_CASES = [
    ("h_nonrobust", "logit", "raw", "full", None),
    ("h_nonrobust", "logit", "x0pred", "full", None),
    ("h_nonrobust", "gradient", "raw", "full", None),
    ("h_nonrobust", "gradient", "x0pred", "full", None),
    ("h_nonrobust", "gradient", "x0pred", "stop_gradient", None),
    ("h_nonrobust", "stabilized_gradient", "x0pred", "full", ema(0.99)),
    ("h_nonrobust", "stabilized_gradient", "raw", "full", adam()),
    ("h_nonrobust", "stabilized_gradient", "x0pred", "stop_gradient", adam()),
    ("h_oracle", "stabilized_gradient", "x0pred", "full", ema(0.9)),
]


@pytest.mark.parametrize("persona,metric,path,jacobian_mode,stabilizer", _BLOCK_CASES)
def test_curve_does_not_depend_on_the_block_size(
    request, denoiser, val_ds, monkeypatch, persona, metric, path, jacobian_mode, stabilizer
):
    # 300 points: 4096 // 300 = 13 steps per block, which leave a short last
    # block of T = 400 steps; one row per block gives one step per block
    h = request.getfixturevalue(persona)
    pts, labs = val_ds.points[:300], val_ds.labels[:300]
    curves = []
    for block_rows in (1, dg.sensitivity._BLOCK_ROWS):
        monkeypatch.setattr(dg.sensitivity, "_BLOCK_ROWS", block_rows)
        recipe = _recipe(h, path=path, jacobian_mode=jacobian_mode, stabilizer=stabilizer or identity())
        curves.append(curve(recipe, denoiser, pts, labs, metric, seed=12))
    one_step, blocked = curves
    assert denoiser.schedule.T % (dg.sensitivity._BLOCK_ROWS // 300) != 0
    for field in ("t", "mean", "std", "count"):
        a, b = getattr(one_step, field), getattr(blocked, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("zero_beta", [False, True], ids=["T400", "zero-beta-across-blocks"])
@pytest.mark.parametrize("metric", ["logit", "gradient", "stabilized_gradient"])
def test_curve_equals_the_per_step_walk(h_nonrobust, denoiser, spec2, val_ds, metric, zero_beta):
    # 300 points: 4096 // 300 = 13 steps per block, so T = 400 and T = 40
    # both end in a short block
    pts, labs = val_ds.points[:300], val_ds.labels[:300]
    assert dg.sensitivity._BLOCK_ROWS // 300 == 13
    dn = denoiser
    if zero_beta:
        # beta_28 = 0 puts x_28 on x_27: step 28 ends the first block (40..28),
        # so the undefined pair spans the step carried into the next block
        betas = np.linspace(1e-3, 0.05, 40)
        betas[28 - 1] = 0.0
        dn = AnalyticDenoiser(spec2, schedule_from_betas(betas, allow_degenerate=True))
    recipe = _recipe(h_nonrobust, path="x0pred", stabilizer=adam())
    c = curve(recipe, dn, pts, labs, metric, seed=21)
    mean, std, count = sensitivity_walk(recipe, dn, pts, labs, metric, seed=21)
    assert c.mean.tobytes() == mean.tobytes()
    assert c.std.tobytes() == std.tobytes()
    assert c.count.dtype == count.dtype and c.count.tobytes() == count.tobytes()
    if zero_beta:
        assert count[28 - 2] == 0 and np.all(np.delete(count, 28 - 2) == 300)
