"""End-to-end acceptance suite for the guidance laboratory.

Each check prints one line, "[acceptance] <name>: PASS|FAIL (detail)", before
asserting, so a full run always shows the per-criterion outcome (run with
pytest -s to see the lines for passing tests too).

Scale of the directional checks: the default 2-D two-class benchmark, the
400-step linear schedule, 2000 validation points and 2000 sampled chains.

Three directional checks come from non-robust image classifiers in high
dimension: accuracy collapse under forward noise, a gradient-sensitivity gap
over the noised part of the time axis, and unstabilized guidance failing
outright. The first two are checked against exact references: the Bayes
classifier of the mixture forward-noised to each step, and a window of steps
computed from the spec's component covariances and the schedule. On this
benchmark the clean and noisy Bayes rules coincide, so clean-trained
accuracy cannot collapse, and test_noisy_accuracy_curves asserts that cause
directly. The third check is asserted as stated and fails here; its docstring
gives the measured reason.
"""

import time

import numpy as np
import pytest
from scipy import integrate

import diffguide as dg
from diffguide import nn
from diffguide.denoiser import AnalyticDenoiser
from diffguide.guidance import (
    GuidanceConfig,
    adam,
    ema,
    identity,
    init_stabilizer_state,
    sample_batch,
    stabilize,
    unconditional_batch,
)
from diffguide.metrics import gaussian_frechet, frechet_distance, sweep
from diffguide.sensitivity import curve
from diffguide.synthdata import make_spec

from conftest import binomial_3sigma
from reference import accuracy, guided_gradient, x0_prediction

N_CHAINS = 2000
SCALES = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0]
SWEEP_SEED = 424242


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- shared heavy artifacts ----------------------------------------------------


def _noised_spec(spec, ab: float):
    """The class mixture forward-noised to cumulative product ab: each
    component (w, mu, Sigma) becomes (w, sqrt(ab) mu, ab Sigma + (1 - ab) I)."""
    eye = np.eye(spec.dim)
    return make_spec(
        [
            (cls.prior, [(c.weight, np.sqrt(ab) * c.mean, ab * c.cov + (1.0 - ab) * eye)
                         for c in cls.components])
            for cls in spec.classes
        ]
    )


@pytest.fixture(scope="module")
def acc_curves(h_nonrobust, h_robust, h_oracle, denoiser, spec2, schedule400, val_ds):
    """Accuracy over every step t for the three classifier setups, plus two
    references, with the same fresh noise draw shared across all at each t:
    "bayes" is a*(t), the exact Bayes rule of the mixture noised to step t,
    and "oracle" is the clean-data Bayes rule applied to the noised points."""
    T = schedule400.T
    keys = ("nonrobust", "robust", "x0pred", "bayes", "oracle")
    out = {k: np.empty(T) for k in keys}
    for t in range(1, T + 1):
        kw = dict(t=t, schedule=schedule400, seed=90_000 + t)
        h_noisy = dg.bayes_oracle(_noised_spec(spec2, schedule400.alpha_bar[t]))
        out["bayes"][t - 1] = accuracy(
            h_noisy, val_ds.points, val_ds.labels, "forward_noise", **kw
        )
        out["oracle"][t - 1] = accuracy(
            h_oracle, val_ds.points, val_ds.labels, "forward_noise", **kw
        )
        out["nonrobust"][t - 1] = accuracy(
            h_nonrobust, val_ds.points, val_ds.labels, "forward_noise", **kw
        )
        out["robust"][t - 1] = accuracy(
            h_robust, val_ds.points, val_ds.labels, "forward_noise", **kw
        )
        out["x0pred"][t - 1] = accuracy(
            h_nonrobust, val_ds.points, val_ds.labels, "x0_pred", denoiser=denoiser, **kw
        )
    return out


@pytest.fixture(scope="module")
def sens_curves(h_nonrobust, h_robust, denoiser, val_ds):
    pts, labs = val_ds.points, val_ds.labels
    seed = 777

    def recipe(h, path="raw"):  # a curve takes each point's label as the target class
        return GuidanceConfig(h, target_class=0, path=path)

    return {
        "sl_nonrobust": curve(recipe(h_nonrobust), denoiser, pts, labs, "logit", seed=seed),
        "sl_robust": curve(recipe(h_robust), denoiser, pts, labs, "logit", seed=seed),
        "sg_nonrobust": curve(recipe(h_nonrobust), denoiser, pts, labs, "gradient", seed=seed),
        "sg_robust": curve(recipe(h_robust), denoiser, pts, labs, "gradient", seed=seed),
        "sg_x0pred": curve(recipe(h_nonrobust, "x0pred"), denoiser, pts, labs, "gradient", seed=seed),
    }


@pytest.fixture(scope="module")
def stab_curves(h_nonrobust, denoiser, val_ds):
    pts, labs = val_ds.points, val_ds.labels
    seed = 777

    def walk(stab):
        recipe = GuidanceConfig(h_nonrobust, target_class=0, path="x0pred", stabilizer=stab)
        return curve(recipe, denoiser, pts, labs, "stabilized_gradient", seed=seed)

    return {"ema99": walk(ema(0.99)), "ema90": walk(ema(0.9)), "adam": walk(adam())}


@pytest.fixture(scope="module")
def sweep_ema(h_nonrobust, denoiser, schedule400):
    cfg = GuidanceConfig(
        classifier=h_nonrobust, target_class=1, path="x0pred", stabilizer=ema(0.99)
    )
    return sweep(denoiser, schedule400, cfg, SCALES, N_CHAINS, SWEEP_SEED)


@pytest.fixture(scope="module")
def sweep_raw_unstabilized(h_nonrobust, denoiser, schedule400):
    cfg = GuidanceConfig(
        classifier=h_nonrobust, target_class=1, path="raw", stabilizer=identity()
    )
    return sweep(denoiser, schedule400, cfg, SCALES, N_CHAINS, SWEEP_SEED)


@pytest.fixture(scope="module")
def sweep_robust(h_robust, denoiser, schedule400):
    cfg = GuidanceConfig(
        classifier=h_robust, target_class=1, path="raw", stabilizer=identity()
    )
    return sweep(denoiser, schedule400, cfg, SCALES, N_CHAINS, SWEEP_SEED)


# -- exact / oracle criteria -----------------------------------------------


def test_gradient_correctness(denoiser, schedule400):
    """Input gradients and the composed denoised-path gradient match central
    finite differences with relative error <= 1e-5 on 100+ random cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    h_fd = 1e-5
    worst = 0.0
    for case in range(110):
        sizes = [2, int(rng.integers(4, 17)), 2]
        model = nn.init_mlp(sizes, seed=int(rng.integers(1 << 31)))
        handle = dg.non_robust(model)
        x = rng.standard_normal(2) * 1.5
        t = int(rng.integers(1, schedule400.T + 1))
        y = int(rng.integers(2))

        g = nn.input_gradient(model, x[None], y)[0]
        g_fd = np.zeros(2)
        for q in range(2):
            e = np.zeros(2)
            e[q] = h_fd
            g_fd[q] = (
                nn.log_softmax_target(nn.forward(model, (x + e)[None]), y)[0]
                - nn.log_softmax_target(nn.forward(model, (x - e)[None]), y)[0]
            ) / (2 * h_fd)
        rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
        worst = max(worst, rel)

        g2 = guided_gradient(denoiser, handle, x[None], t, y, path="x0pred")[0]
        g2_fd = np.zeros(2)
        for q in range(2):
            e = np.zeros(2)
            e[q] = h_fd
            up = nn.log_softmax_target(
                nn.forward(model, denoiser.posterior_mean_x0((x + e)[None], t)), y
            )[0]
            dn_ = nn.log_softmax_target(
                nn.forward(model, denoiser.posterior_mean_x0((x - e)[None], t)), y
            )[0]
            g2_fd[q] = (up - dn_) / (2 * h_fd)
        rel2 = np.linalg.norm(g2 - g2_fd) / max(np.linalg.norm(g2_fd), 1e-12)
        worst = max(worst, rel2)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    assert _report(
        "gradient-correctness", ok, f"worst rel err {worst:.2e} <= 1e-5, {elapsed:.1f}s < 10s"
    )


def test_analytic_denoiser_quadrature(schedule400):
    """Posterior mean matches 1-D numerical Bayes integration within 1e-6 on
    a 20x20 grid of (x_t, t); the one-step prediction identity holds to 1e-12."""
    start = time.perf_counter()
    spec1 = make_spec([(1.0, [(0.4, [-1.0], 0.25), (0.6, [0.8], 0.06)])])
    dn = AnalyticDenoiser(spec1, schedule400)

    def density0(x0):
        return 0.4 * np.exp(-0.5 * (x0 + 1.0) ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25) + 0.6 * np.exp(
            -0.5 * (x0 - 0.8) ** 2 / 0.06
        ) / np.sqrt(2 * np.pi * 0.06)

    t_grid = np.unique(np.linspace(1, schedule400.T, 20).astype(int))
    x_grid = np.linspace(-2.2, 2.2, 20)
    worst_quad = 0.0
    for t in t_grid:
        ab = schedule400.alpha_bar[t]
        noise_var = 1.0 - ab
        for x_t in x_grid:
            center = x_t / np.sqrt(ab)
            width = np.sqrt(noise_var / ab)
            hints = sorted({-1.0, 0.8, center - 4 * width, center, center + 4 * width})
            hints = [h for h in hints if -14 < h < 14]

            def num(x0):
                return x0 * density0(x0) * np.exp(-0.5 * (x_t - np.sqrt(ab) * x0) ** 2 / noise_var)

            def den(x0):
                return density0(x0) * np.exp(-0.5 * (x_t - np.sqrt(ab) * x0) ** 2 / noise_var)

            # deep tails leave the evidence integral tiny; force relative
            # convergence so the ratio oracle stays accurate there
            quad_kw = dict(limit=800, points=hints, epsabs=1e-280, epsrel=1e-11)
            n_val = integrate.quad(num, -14, 14, **quad_kw)[0]
            d_val = integrate.quad(den, -14, 14, **quad_kw)[0]
            got = dn.posterior_mean_x0(np.array([[x_t]]), int(t))[0, 0]
            worst_quad = max(worst_quad, abs(got - n_val / d_val))

    rng = np.random.default_rng(9)
    X = rng.standard_normal((200, 1))
    worst_rt = 0.0
    for t in t_grid:
        diff = np.abs(x0_prediction(dn, X, int(t)) - dn.posterior_mean_x0(X, int(t)))
        worst_rt = max(worst_rt, float(diff.max()))
    elapsed = time.perf_counter() - start
    ok = worst_quad <= 1e-6 and worst_rt <= 1e-12 and elapsed < 30.0
    assert _report(
        "analytic-denoiser-quadrature",
        ok,
        f"quad err {worst_quad:.2e} <= 1e-6, round-trip {worst_rt:.2e} <= 1e-12, {elapsed:.1f}s < 30s",
    )


def test_stabilizer_recursions():
    """Running-moment recursions against hand-evaluated closed forms."""
    state = init_stabilizer_state(1)
    vals = []
    for _ in range(3):
        state, nu = stabilize(state, ema(0.9), np.array([1.0]))
        vals.append(nu[0])
    # the decimal targets are not binary-representable; "exact" means equal
    # to within float64 round-off of the stated decimals (a few ulp)
    ema_ok = vals == [
        pytest.approx(0.1, abs=1e-15),
        pytest.approx(0.19, abs=1e-15),
        pytest.approx(0.271, abs=1e-15),
    ]

    eps = 1e-8
    state, nu = stabilize(init_stabilizer_state(1), adam(eps=eps), np.array([2.0]))
    closed = (0.1 * 2.0) / (np.sqrt(0.001 * 4.0) + eps)
    adam_first_ok = abs(nu[0] - closed) <= 1e-12

    sign_ok = True
    for g_val in (3.0, -0.25):
        state = init_stabilizer_state(1)
        for _ in range(10_000):
            state, nu = stabilize(state, adam(), np.array([g_val]))
        sign_ok &= abs(nu[0] - np.sign(g_val)) <= 1e-3

    ok = ema_ok and adam_first_ok and sign_ok
    assert _report(
        "stabilizer-recursions",
        ok,
        f"ema seq {ema_ok}, adam first step {adam_first_ok}, adam sign limit {sign_ok}",
    )


def test_sampler_scale_zero_identity(denoiser, schedule400, h_nonrobust):
    """Guided sampling at scale 0 is bit-identical to the unguided chain."""
    plain = unconditional_batch(denoiser, schedule400, 8, 2024)
    ok = True
    for path in ("raw", "x0pred"):
        cfg = GuidanceConfig(
            classifier=h_nonrobust, target_class=1, scale=0.0, path=path, stabilizer=ema(0.99)
        )
        guided = sample_batch(denoiser, schedule400, cfg, 8, 2024)
        ok &= np.array_equal(guided.samples, plain.samples)
    single = sample_batch(
        denoiser,
        schedule400,
        GuidanceConfig(classifier=h_nonrobust, target_class=1, scale=0.0),
        1,
        2024,
    )
    ok &= np.array_equal(single.samples[0], plain.samples[0])
    assert _report("sampler-scale-zero-identity", ok, "bitwise equal over 8 chains, both paths")


def test_frechet_distance_agreement(val_ds):
    """Eigendecomposition path vs the diagonal closed form and the zero case."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        mu_a, mu_b = rng.standard_normal(d), rng.standard_normal(d)
        va, vb = rng.uniform(0.05, 4.0, d), rng.uniform(0.05, 4.0, d)
        got = gaussian_frechet(mu_a, np.diag(va), mu_b, np.diag(vb))
        closed = float(np.sum((mu_a - mu_b) ** 2) + np.sum((np.sqrt(va) - np.sqrt(vb)) ** 2))
        worst = max(worst, abs(got - closed))
    self_d = frechet_distance(val_ds.points, val_ds.points)
    ok = worst <= 1e-10 and self_d <= 1e-8
    assert _report(
        "frechet-distance-agreement", ok, f"diag err {worst:.2e} <= 1e-10, self {self_d:.2e} <= 1e-8"
    )


# -- directional reproductions ----------------------------------------------


def test_noisy_accuracy_curves(acc_curves, schedule400, val_ds):
    """Accuracy-under-noise shape, checked against the exact noisy-Bayes
    accuracy a*(t) on the same noise draw: (i) the clean Bayes rule attains
    a*(t) at every step, so this spec leaves no room for a collapse; (ii) the
    non-robust classifier falls from >= 0.99 at t = 1 to a*(T); the robust
    classifier keeps a non-negative mean margin over t >= T/4; and the
    denoised-prediction setup is not below the non-robust one at >= 90% of
    steps. Every tolerance is binomial_3sigma(0.5, n), the 3-sigma sampling
    error of an accuracy near 0.5 on n validation points.

    The paper's collapse of clean-trained classifiers to chance under noise
    needs a spec whose clean and noisy Bayes rules differ. Here the classes
    mirror each other across x_1 = 0 and every component has the same
    isotropic covariance, so forward noising keeps x_1 = 0 as the Bayes
    boundary and the clean rule scores a*(t) at all 400 steps, with
    a*(T/4) = 0.9585 and a*(T) = 0.5340. The non-robust, robust and x0pred
    accuracies all stay within 0.0125 of a*(t), so the robust margin
    measures -0.0006 against a tolerance of -0.0335. Clause (i) fails on a
    spec whose rules differ: a central blob inside a six-component ring at
    radius 1.2 scores 0.729 under the clean rule against a*(100) = 0.762.
    """
    T = schedule400.T
    tol = binomial_3sigma(0.5, len(val_ds))
    q = np.arange(1, T + 1) >= T // 4
    nr, rb, x0 = acc_curves["nonrobust"], acc_curves["robust"], acc_curves["x0pred"]
    bayes, orc = acc_curves["bayes"], acc_curves["oracle"]
    agree = int(np.sum(orc == bayes))
    clean_rule_ok = agree == T
    fall_ok = nr[0] >= 0.99 and abs(nr[-1] - bayes[-1]) <= tol
    margin = float(np.mean(rb[q] - nr[q]))
    margin_ok = margin >= -tol
    dominance = float(np.mean(x0 >= nr - tol))
    dominance_ok = dominance >= 0.90
    ok = clean_rule_ok and fall_ok and margin_ok and dominance_ok
    assert _report(
        "noisy-accuracy-curves",
        ok,
        f"clean rule = a*(t) at {agree}/{T} steps {clean_rule_ok}, "
        f"a*(T/4)={bayes[T // 4 - 1]:.4f}, a*(T)={bayes[-1]:.4f}, "
        f"fall {nr[0]:.3f} >= 0.99 to {nr[-1]:.3f} within {tol:.4f} of a*(T) {fall_ok}, "
        f"margin {margin:+.4f} >= {-tol:+.4f} {margin_ok}, "
        f"dominance {dominance:.2f} >= 0.90 {dominance_ok}",
    )


def test_sensitivity_orderings(sens_curves, spec2, schedule400):
    """Logit sensitivity of the non-robust classifier exceeds the robust
    classifier's over >= 90% of steps, and so does gradient sensitivity over
    >= 90% of the steps where the forward-noise variance 1 - alpha_bar_t is at
    least the smallest eigenvalue of the spec's component covariances; the
    denoised-path gradient curve averages strictly between them.

    The gradient window comes from the spec and the schedule alone. Below it
    the noise has not yet covered the data's own spread, and the exact Bayes
    oracle's gradient sensitivity is itself below the robust network's floor
    of 0.53-0.58 (<= 0.001 for t <= 20, 0.44 at t = 50), so counting those
    steps would contradict the optimal classifier rather than test
    robustness. Here the smallest eigenvalue is 0.05, the window is
    t >= 44 (357 steps), and the measured fraction is 0.97; over all steps
    it is 0.87, with non-robust > robust failing at exactly t = 2..53.
    """
    lam_min = min(
        float(np.linalg.eigvalsh(c.cov).min()) for cls in spec2.classes for c in cls.components
    )
    ts = np.arange(1, schedule400.T + 1)
    t_first = int(ts[1.0 - schedule400.alpha_bar[1:] >= lam_min][0])
    sg_nr, sg_rb = sens_curves["sg_nonrobust"], sens_curves["sg_robust"]
    w = sg_nr.t >= t_first
    sl_frac = float(np.mean(sens_curves["sl_nonrobust"].mean > sens_curves["sl_robust"].mean))
    sg_frac = float(np.mean(sg_nr.mean[w] > sg_rb.mean[w]))
    m_nr = float(np.mean(sg_nr.mean))
    m_rb = float(np.mean(sg_rb.mean))
    m_x0 = float(np.mean(sens_curves["sg_x0pred"].mean))
    between = m_rb < m_x0 < m_nr
    ok = sl_frac >= 0.90 and sg_frac >= 0.90 and between
    assert _report(
        "sensitivity-orderings",
        ok,
        f"logit frac {sl_frac:.2f} >= 0.9, gradient frac {sg_frac:.2f} >= 0.9 "
        f"over t >= {t_first} ({int(w.sum())} steps), "
        f"between {m_rb:.2f} < {m_x0:.2f} < {m_nr:.2f}: {between}",
    )


def test_stabilized_sensitivity_orderings(sens_curves, stab_curves, schedule400):
    """Moving-average windows order the stabilized sensitivity early in the
    axis, and the adaptive-moment variant deteriorates at large t."""
    T = schedule400.T
    unstab = sens_curves["sg_x0pred"]
    early = unstab.t < T // 2
    late = unstab.t >= T // 2
    m_u = float(np.nanmean(unstab.mean[early]))
    m_99 = float(np.nanmean(stab_curves["ema99"].mean[early]))
    m_90 = float(np.nanmean(stab_curves["ema90"].mean[early]))
    window_ok = m_99 <= m_90 <= m_u
    m_adam_late = float(np.nanmean(stab_curves["adam"].mean[late]))
    m_99_late = float(np.nanmean(stab_curves["ema99"].mean[late]))
    adam_ok = m_adam_late > m_99_late
    ok = window_ok and adam_ok
    assert _report(
        "stabilized-sensitivity-orderings",
        ok,
        f"early means {m_99:.2f} <= {m_90:.2f} <= {m_u:.2f}: {window_ok}, "
        f"late adam {m_adam_late:.2f} > ema99 {m_99_late:.2f}: {adam_ok}",
    )


def _uncond_row(rows):
    for s, rep in rows:
        if s == 0.0:
            return rep
    raise AssertionError("scale grid must include 0")


def test_guidance_sweep_tradeoffs(sweep_ema, sweep_raw_unstabilized):
    """Scale sweeps: the stabilized denoised-path setup reaches high oracle
    accuracy with no divergences and shows the fd/cfd trade-off with an
    interior cfd minimum; unstabilized raw non-robust guidance reaches
    nothing (or diverges) at any scale.

    Clause (a), unstabilized failure, does not hold on this spec and stays
    asserted as written. The paper attributes that failure to the accuracy
    a clean-trained classifier loses under noise, and this spec's clean and
    noisy Bayes rules coincide, so there is no such loss
    (test_noisy_accuracy_curves). Measured with 2000 chains and seed 424242:
    raw guidance reaches 0.990 oracle accuracy at scale 0.25 with 0
    divergences, and its best cfd (0.0042) beats the EMA x0pred path's best
    (0.0172). No direction of the clause holds here, so it waits for a spec
    whose clean and noisy Bayes rules differ. Clauses (b)-(d) pass.
    """
    uncond = _uncond_row(sweep_ema)
    # (a) unstabilized raw guidance: every scale below 0.9 accuracy or diverging
    fails_everywhere = all(
        (rep.n_samples == 0) or (rep.n_diverged > 0) or (rep.target_accuracy_oracle < 0.9)
        for s, rep in sweep_raw_unstabilized
        if s > 0
    )
    # (b) stabilized path: >= 0.95 accuracy, zero divergences, at some scale
    good = [
        (s, rep)
        for s, rep in sweep_ema
        if s > 0 and rep.n_diverged == 0 and rep.target_accuracy_oracle >= 0.95
    ]
    reaches = len(good) > 0
    # (c) at the best such scale the conditional fit improves while the
    # pooled fit degrades
    tradeoff = False
    if reaches:
        best = min(good, key=lambda it: it[1].cfd)[1]
        tradeoff = best.cfd < uncond.cfd and best.fd > uncond.fd
    # (d) interior minimum of cfd over the grid
    cfds = np.array([rep.cfd for _, rep in sweep_ema])
    k = int(np.nanargmin(cfds))
    interior = 0 < k < len(cfds) - 1
    ok = fails_everywhere and reaches and tradeoff and interior
    assert _report(
        "guidance-sweep-tradeoffs",
        ok,
        f"unstabilized fails everywhere {fails_everywhere}, stabilized reaches 0.95 {reaches}, "
        f"trade-off {tradeoff}, interior cfd minimum {interior} (argmin index {k})",
    )


def test_robust_guidance_baseline(sweep_robust):
    """Plain guidance with the robust classifier reaches >= 0.95 oracle
    accuracy at some scale, so the stabilized non-robust result closes a gap
    rather than succeeding in a vacuum."""
    good = [
        s
        for s, rep in sweep_robust
        if rep.n_diverged == 0 and rep.target_accuracy_oracle >= 0.95
    ]
    ok = len(good) > 0
    assert _report(
        "robust-guidance-baseline", ok, f"scales reaching 0.95: {good if good else 'none'}"
    )
