import numpy as np
import pytest
from scipy import integrate

import diffguide as dg
from diffguide.denoiser import AnalyticDenoiser
from diffguide.schedule import linear_schedule, schedule_from_betas
from diffguide.synthdata import make_spec

from reference import alpha_bar_product, epsilon, guided_gradient, jacobian, x0_prediction


def _single_gaussian_1d(mu=0.0, var=1.0):
    return make_spec([(1.0, [(1.0, [mu], var)])])


def _schedule_with_abar(ab):
    # one step with beta = 1 - ab
    return schedule_from_betas([1.0 - ab])


def test_posterior_mean_single_component_scalar():
    dn = AnalyticDenoiser(_single_gaussian_1d(), _schedule_with_abar(0.5))
    out = dn.posterior_mean_x0(np.array([[1.0]]), 1)
    # conjugate-Gaussian oracle: sqrt(ab) * var / (ab * var + 1 - ab) * x_t
    want = np.sqrt(0.5) * 1.0 / (0.5 + 0.5) * 1.0
    assert out[0, 0] == pytest.approx(want, abs=1e-12)
    assert out[0, 0] == pytest.approx(0.7071068, abs=1e-7)


def test_posterior_mean_identity_limit():
    dn = AnalyticDenoiser(_single_gaussian_1d(), _schedule_with_abar(1.0 - 1e-12))
    x = np.array([[0.73]])
    assert dn.posterior_mean_x0(x, 1)[0, 0] == pytest.approx(0.73, abs=1e-9)


def test_posterior_mean_pure_noise_limit(spec2, schedule400):
    # alpha_bar -> 0: posterior mean approaches the pooled mixture mean
    sch = _schedule_with_abar(1e-14)
    dn = AnalyticDenoiser(spec2, sch)
    w, mu, _ = dg.synthdata.pooled_components(spec2)
    pooled_mean = w @ mu
    for x in (np.array([[3.0, -2.0]]), np.array([[-1.0, 0.5]])):
        np.testing.assert_allclose(dn.posterior_mean_x0(x, 1)[0], pooled_mean, atol=1e-5)


def test_posterior_mean_quadrature_1d():
    # Bayes-posterior integration oracle on a two-component asymmetric mixture
    spec = make_spec([(1.0, [(0.3, [-1.2], 0.3), (0.7, [0.9], 0.08)])])
    sch = linear_schedule(40, 1e-3, 0.08)
    dn = AnalyticDenoiser(spec, sch)

    def density0(x0):
        return 0.3 * np.exp(-0.5 * (x0 + 1.2) ** 2 / 0.3) / np.sqrt(2 * np.pi * 0.3) + 0.7 * np.exp(
            -0.5 * (x0 - 0.9) ** 2 / 0.08
        ) / np.sqrt(2 * np.pi * 0.08)

    for t in (1, 10, 25, 40):
        ab = sch.alpha_bar[t]
        for x_t in (-1.5, -0.2, 0.6, 1.4):
            def integrand_num(x0):
                lik = np.exp(-0.5 * (x_t - np.sqrt(ab) * x0) ** 2 / (1 - ab))
                return x0 * density0(x0) * lik

            def integrand_den(x0):
                lik = np.exp(-0.5 * (x_t - np.sqrt(ab) * x0) ** 2 / (1 - ab))
                return density0(x0) * lik

            # the likelihood can be a narrow spike; hint its location to quad
            center = x_t / np.sqrt(ab)
            width = np.sqrt((1 - ab) / ab)
            hints = sorted({-1.2, 0.9, center - 4 * width, center, center + 4 * width})
            num = integrate.quad(integrand_num, -12, 12, limit=400, points=hints)[0]
            den = integrate.quad(integrand_den, -12, 12, limit=400, points=hints)[0]
            got = dn.posterior_mean_x0(np.array([[x_t]]), t)[0, 0]
            assert got == pytest.approx(num / den, abs=1e-8)


def test_epsilon_recovers_exact_noise_for_point_mass():
    # near-delta component pins x0, so the implied noise is the true noise
    spec = make_spec([(1.0, [(1.0, [0.4], 1e-10)])])
    sch = _schedule_with_abar(0.6)
    dn = AnalyticDenoiser(spec, sch)
    eps = 1.37
    x_t = np.sqrt(0.6) * 0.4 + np.sqrt(0.4) * eps
    assert epsilon(dn, np.array([x_t]), 1)[0] == pytest.approx(eps, abs=1e-6)


def test_epsilon_scalar_case():
    dn = AnalyticDenoiser(_single_gaussian_1d(), _schedule_with_abar(0.5))
    got = epsilon(dn, np.array([1.0]), 1)[0]
    want = (1.0 - np.sqrt(0.5) * 0.7071067811865476) / np.sqrt(0.5)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.7071068, abs=1e-7)


def test_x0_prediction_round_trip(spec2, schedule400, denoiser):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 2))
    for t in (1, 100, 400):
        np.testing.assert_allclose(
            x0_prediction(denoiser, X, t), denoiser.posterior_mean_x0(X, t), rtol=0, atol=1e-12
        )


def test_x0_prediction_quadrature_1d():
    spec = _single_gaussian_1d(mu=0.5, var=0.7)
    sch = _schedule_with_abar(0.35)
    dn = AnalyticDenoiser(spec, sch)

    def density0(x0):
        return np.exp(-0.5 * (x0 - 0.5) ** 2 / 0.7)

    x_t = 0.8
    ab = 0.35

    def num(x0):
        return x0 * density0(x0) * np.exp(-0.5 * (x_t - np.sqrt(ab) * x0) ** 2 / (1 - ab))

    def den(x0):
        return density0(x0) * np.exp(-0.5 * (x_t - np.sqrt(ab) * x0) ** 2 / (1 - ab))

    want = integrate.quad(num, -15, 15)[0] / integrate.quad(den, -15, 15)[0]
    assert x0_prediction(dn, np.array([x_t]), 1)[0] == pytest.approx(want, abs=1e-6)


def test_jacobian_single_gaussian_constant():
    var = 1.0
    dn = AnalyticDenoiser(_single_gaussian_1d(var=var), _schedule_with_abar(0.5))
    for x in (-2.0, 0.0, 3.0):
        J = jacobian(dn, np.array([x]), 1)
        want = np.sqrt(0.5) * var / (0.5 * var + 0.5)
        assert J[0, 0] == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.7071068, abs=1e-7)


def test_jacobian_identity_limit(spec2):
    dn = AnalyticDenoiser(spec2, _schedule_with_abar(1.0 - 1e-12))
    J = jacobian(dn, np.array([0.3, -0.4]), 1)
    np.testing.assert_allclose(J, np.eye(2), atol=1e-6)


def test_jacobian_finite_differences(denoiser):
    # full mode vs central differences, 100 random points
    rng = np.random.default_rng(9)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(2) * 1.5
        t = int(rng.integers(1, 401))
        J = jacobian(denoiser, x, t)
        J_fd = np.zeros((2, 2))
        for q in range(2):
            e = np.zeros(2)
            e[q] = h
            J_fd[:, q] = (
                denoiser.posterior_mean_x0((x + e)[None], t)[0] - denoiser.posterior_mean_x0((x - e)[None], t)[0]
            ) / (2 * h)
        worst = max(worst, float(np.abs(J - J_fd).max()))
    assert worst <= 1e-5


def test_monotone_information_decay():
    # single Gaussian: the Jacobian's spectral norm shrinks as alpha_bar does
    sch = linear_schedule(50, 1e-3, 0.1)
    dn = AnalyticDenoiser(_single_gaussian_1d(var=0.8), sch)
    norms = [abs(jacobian(dn, np.array([0.4]), t)[0, 0]) for t in range(1, 51)]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_guided_gradient_raw_points_to_class_mean():
    # tight target class against a broad alternative: the log-posterior
    # gradient has positive inner product with the direction to the mean
    spec = make_spec(
        [
            (0.5, [(1.0, [1.5, 0.0], 0.05)]),
            (0.5, [(1.0, [0.0, 0.0], 25.0)]),
        ]
    )
    sch = _schedule_with_abar(0.9)
    dn = AnalyticDenoiser(spec, sch)
    h = dg.bayes_oracle(spec)
    rng = np.random.default_rng(2)
    mu = np.array([1.5, 0.0])
    for _ in range(25):
        x = rng.standard_normal(2) * 2.0
        g = guided_gradient(dn, h, x, 1, 0, path="raw")
        assert g @ (mu - x) > 0.0


def test_guided_gradient_x0pred_identity_limit(spec2, h_oracle):
    sch = schedule_from_betas([1e-12])
    dn = AnalyticDenoiser(spec2, sch)
    x = np.array([0.4, -0.9])
    g_raw = guided_gradient(dn, h_oracle, x, 1, 1, path="raw")
    g_x0 = guided_gradient(dn, h_oracle, x, 1, 1, path="x0pred")
    np.testing.assert_allclose(g_x0, g_raw, atol=1e-10)


def test_guided_gradient_x0pred_finite_differences(denoiser, h_nonrobust, model_nonrobust):
    from diffguide.nn import forward, log_softmax_target

    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(30):
        x = rng.standard_normal(2) * 1.3
        t = int(rng.integers(1, 401))
        y = int(rng.integers(2))
        g = guided_gradient(denoiser, h_nonrobust, x, t, y, path="x0pred")

        def obj(v):
            return log_softmax_target(forward(model_nonrobust, denoiser.posterior_mean_x0(v[None], t)), y)[0]

        g_fd = np.array(
            [(obj(x + h * np.eye(2)[q]) - obj(x - h * np.eye(2)[q])) / (2 * h) for q in range(2)]
        )
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g_fd))


def test_guided_gradient_stop_mode(denoiser, h_nonrobust, schedule400):
    x = np.array([[0.2, 0.6]])
    t = 111
    v = dg.classifier.input_gradient(h_nonrobust, denoiser.posterior_mean_x0(x, t), 1)
    g = guided_gradient(denoiser, h_nonrobust, x, t, 1, path="x0pred", jacobian_mode="stop_gradient")
    np.testing.assert_allclose(g, v / np.sqrt(alpha_bar_product(schedule400, t)), rtol=1e-15)


def test_guided_gradient_validates_path(denoiser, h_nonrobust):
    with pytest.raises(ValueError):
        guided_gradient(denoiser, h_nonrobust, np.zeros(2), 1, 0, path="direct")


def test_epsilon_rejects_alpha_bar_one(spec2):
    sch0 = schedule_from_betas(np.zeros(3), allow_degenerate=True)
    dn = AnalyticDenoiser(spec2, sch0)
    with pytest.raises(ValueError):
        epsilon(dn, np.zeros(2), 2)


def test_correlated_covariance_conjugate_oracle():
    # full covariance component: closed-form conjugate update with explicit
    # matrix inverses as the oracle for the eigendecomposition path
    cov = np.array([[0.30, 0.12], [0.12, 0.10]])
    mu = np.array([0.4, -0.6])
    spec = make_spec([(1.0, [(1.0, mu, cov)])])
    sch = _schedule_with_abar(0.55)
    dn = AnalyticDenoiser(spec, sch)
    ab = 0.55
    S = ab * cov + (1 - ab) * np.eye(2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(2)
        want = mu + np.sqrt(ab) * cov @ np.linalg.solve(S, x - np.sqrt(ab) * mu)
        np.testing.assert_allclose(dn.posterior_mean_x0(x[None], 1)[0], want, rtol=1e-12)
        want_J = np.sqrt(ab) * cov @ np.linalg.inv(S)
        np.testing.assert_allclose(jacobian(dn, x, 1), want_J, rtol=1e-11)


def test_correlated_mixture_jacobian_finite_differences():
    cov_a = np.array([[0.2, -0.08], [-0.08, 0.15]])
    cov_b = np.array([[0.05, 0.02], [0.02, 0.4]])
    spec = make_spec(
        [(0.6, [(1.0, [-0.8, 0.3], cov_a)]), (0.4, [(1.0, [0.9, -0.2], cov_b)])]
    )
    sch = linear_schedule(30, 1e-3, 0.08)
    dn = AnalyticDenoiser(spec, sch)
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(30):
        x = rng.standard_normal(2) * 1.4
        t = int(rng.integers(1, 31))
        J = jacobian(dn, x, t)
        J_fd = np.zeros((2, 2))
        for q in range(2):
            e = np.zeros(2)
            e[q] = h
            J_fd[:, q] = (dn.posterior_mean_x0((x + e)[None], t) - dn.posterior_mean_x0((x - e)[None], t))[0] / (2 * h)
        assert np.abs(J - J_fd).max() <= 1e-5


@pytest.mark.parametrize(
    "x",
    [np.zeros((4, 1)), np.zeros(1), np.zeros((4, 3)), np.zeros((4, 1, 2)), np.zeros(2)],
    ids=["one-coordinate-rows", "one-coordinate-point", "three-coordinate-rows", "three-axes", "one-point"],
)
def test_posterior_mean_refuses_points_of_another_dimension(denoiser, x):
    # a one-coordinate point broadcast against the 2-D tables and came back 2-D
    with pytest.raises(ValueError, match=r"points of shape .*: expected \(n, 2\)"):
        denoiser.posterior_mean_x0(x, 5)


@pytest.mark.parametrize("x", [np.float64(1.0), np.array(1.0)], ids=["numpy-scalar", "0-d-array"])
def test_posterior_mean_names_the_shape_of_a_0d_point(denoiser, x):
    # the step-split check took len() of the points first: TypeError: len() of unsized object
    with pytest.raises(ValueError, match=r"points of shape \(\): expected \(n, 2\)"):
        denoiser.posterior_mean_x0(x, 3)
    with pytest.raises(ValueError, match=r"points of shape \(\): expected \(n, 2\)"):
        denoiser._bundle(x, np.array([3, 2]), True)


def test_batch_matches_single(denoiser):
    rng = np.random.default_rng(14)
    X = rng.standard_normal((9, 2))
    t = 250
    E = denoiser.posterior_mean_x0(X, t)
    J = jacobian(denoiser, X, t)
    for i in range(9):
        np.testing.assert_allclose(E[i], denoiser.posterior_mean_x0(X[i][None], t)[0], atol=1e-15)
        np.testing.assert_allclose(J[i], jacobian(denoiser, X[i][None], t)[0], atol=1e-15)


def _einsum_bundle(dn, X, t, with_jacobian):
    """The closed form as a literal einsum transcription, one contraction per
    call: the oracle the table-driven posterior kernel must reproduce."""
    ab = alpha_bar_product(dn.schedule, t)
    sa = np.sqrt(ab)
    V, lam = dn.tables.cov_eigvecs, dn.tables.cov_eigvals
    marg = ab * lam + (1.0 - ab)
    diff = X[:, None, :] - sa * dn.tables.means[None, :, :]
    proj = np.einsum("kde,nkd->nke", V, diff)
    quad = np.sum(proj * proj / marg[None], axis=2)
    log_r = np.log(dn.tables.weights)[None] - 0.5 * (quad + np.sum(np.log(2.0 * np.pi * marg), axis=1)[None])
    r = np.exp(log_r - np.max(log_r, axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    comp_mean = dn.tables.means[None] + sa * np.einsum("kde,nke->nkd", V, proj * (lam / marg)[None])
    dens_grad = -np.einsum("kde,nke->nkd", V, proj / marg[None])
    E = np.einsum("nk,nkd->nd", r, comp_mean)
    if not with_jacobian:
        return E, None
    A = sa * np.einsum("kde,kfe->kdf", V * (lam / marg)[:, None, :], V)
    J = np.einsum("nk,kdf->ndf", r, A)
    J += np.einsum("nk,nkd,nkf->ndf", r, comp_mean, dens_grad)
    J -= E[:, :, None] * np.einsum("nk,nkd->nd", r, dens_grad)[:, None, :]
    return E, J


def _spec3():
    # full covariances in d = 3, K = 3 pooled components
    cov_a = np.array([[0.30, 0.12, -0.05], [0.12, 0.20, 0.04], [-0.05, 0.04, 0.15]])
    cov_b = np.array([[0.10, -0.03, 0.02], [-0.03, 0.25, 0.06], [0.02, 0.06, 0.40]])
    cov_c = np.array([[0.50, 0.10, 0.00], [0.10, 0.08, -0.02], [0.00, -0.02, 0.12]])
    return make_spec(
        [
            (0.45, [(0.6, [-0.8, 0.3, 0.5], cov_a), (0.4, [0.9, -0.2, -0.4], cov_b)]),
            (0.55, [(1.0, [0.1, 0.9, -0.7], cov_c)]),
        ]
    )


_REFERENCE_STEPS = (0, 1, 2, 200, 400)  # clean data, the first steps, T/2 and T


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_bundle_bitwise_equals_einsum_reference(denoiser, with_jacobian):
    rng = np.random.default_rng(31)
    for n in (1, 3, 250):
        X = rng.standard_normal((n, 2)) * 1.5
        for t in _REFERENCE_STEPS:
            E, J = denoiser._bundle(X, t, with_jacobian)
            E_ref, J_ref = _einsum_bundle(denoiser, X, t, with_jacobian)
            assert np.array_equal(E, E_ref), (n, t)
            if with_jacobian:
                assert np.array_equal(J, J_ref), (n, t)
            else:
                assert J is None


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_bundle_full_covariance_3d_against_einsum_reference(schedule400, with_jacobian):
    # einsum's SIMD reduction may add three terms as (e0 + e2) + e1 where the
    # kernel adds them in index order, so here the reference holds to a
    # rounding tolerance (measured: 1.4e-14, 64 eps, at most); each row is
    # still bitwise independent of the rest of its batch
    tol = 512 * np.finfo(np.float64).eps
    dn = AnalyticDenoiser(_spec3(), schedule400)
    rng = np.random.default_rng(32)
    for n in (1, 3, 250):
        X = rng.standard_normal((n, 3)) * 1.5
        for t in _REFERENCE_STEPS:
            E, J = dn._bundle(X, t, with_jacobian)
            E_ref, J_ref = _einsum_bundle(dn, X, t, with_jacobian)
            np.testing.assert_allclose(E, E_ref, rtol=0, atol=tol)
            if with_jacobian:
                np.testing.assert_allclose(J, J_ref, rtol=0, atol=tol)
            for i in (0, n - 1):
                E_i, J_i = dn._bundle(X[i : i + 1], t, with_jacobian)
                assert np.array_equal(E_i[0], E[i])
                if with_jacobian:
                    assert np.array_equal(J_i[0], J[i])


def test_bundle_rejects_steps_outside_schedule(denoiser, schedule400):
    X = np.zeros((3, 2))
    for t in (-1, schedule400.T + 1):
        with pytest.raises(ValueError, match="outside"):
            denoiser._bundle(X, t)
        with pytest.raises(ValueError, match="outside"):
            denoiser._bundle(X, t, with_jacobian=True)
        # one bad step in a stack of steps
        with pytest.raises(ValueError, match="outside"):
            denoiser._bundle(X, np.array([5, t, 7]), with_jacobian=True)


@pytest.mark.parametrize(
    "t",
    [True, 2.5, np.float64(3.0), np.array([5.0, 7.0]), np.array([True, False])],
    ids=["bool", "float", "np-float64", "float-array", "bool-array"],
)
def test_bundle_rejects_non_integer_steps(denoiser, t):
    # unchecked, a bool step would broadcast the tables as a mask and a float step would not index them
    X = np.zeros((2, 2))
    for with_jacobian in (False, True):
        with pytest.raises(ValueError, match="is not an integer"):
            denoiser._bundle(X, t, with_jacobian)
    if np.ndim(t) == 0:
        with pytest.raises(ValueError, match="is not an integer"):
            denoiser.posterior_mean_x0(X, t)


def test_bundle_takes_numpy_integer_steps(denoiser):
    X = np.random.default_rng(35).standard_normal((4, 2))
    for t in (np.int64(200), np.int32(200), np.uint16(200)):
        assert np.array_equal(denoiser.posterior_mean_x0(X, t), denoiser.posterior_mean_x0(X, 200))
    E, _ = denoiser._bundle(X, np.array([200, 7], dtype=np.int32))
    assert np.array_equal(E, denoiser._bundle(X, np.array([200, 7]))[0])


def test_bundle_reads_a_0d_step_array_as_one_step(denoiser):
    # forward_sample and check_steps take a 0-d step array as one step; so does the posterior pass
    X = np.random.default_rng(36).standard_normal((4, 2))
    assert denoiser.posterior_mean_x0(X, np.array(200)).tobytes() == denoiser.posterior_mean_x0(X, 200).tobytes()
    for got, want in zip(denoiser._bundle(X, np.array(200), True), denoiser._bundle(X, 200, True)):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="1-D array"):
        denoiser._bundle(X, np.array([[200, 7]]))


def test_bundle_rejects_rows_that_do_not_split_into_the_steps(denoiser):
    for rows, steps in ((5, [3, 2]), (3, [9, 8, 7, 6]), (4, [])):
        for with_jacobian in (False, True):
            with pytest.raises(ValueError, match="do not split"):
                denoiser._bundle(np.zeros((rows, 2)), np.array(steps, dtype=np.int64), with_jacobian)


@pytest.mark.parametrize("with_jacobian", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
def test_bundle_step_stack_equals_per_step_calls_bitwise(schedule400, spec2, dim, with_jacobian):
    # s groups of n rows at s steps, stacked step-major, give the bits of
    # the s separate one-step calls
    dn = AnalyticDenoiser(spec2 if dim == 2 else _spec3(), schedule400)
    rng = np.random.default_rng(34)
    for n in (1, 3, 250):
        for steps in ([0], [400], [400, 399, 398], [2, 0, 1, 200, 400, 57]):
            groups = [rng.standard_normal((n, dim)) * 1.5 for _ in steps]
            E, J = dn._bundle(np.concatenate(groups), np.array(steps), with_jacobian)
            assert E.shape == (len(steps) * n, dim)
            for i, (X, t) in enumerate(zip(groups, steps)):
                E_t, J_t = dn._bundle(X, t, with_jacobian)
                rows = slice(i * n, (i + 1) * n)
                assert np.array_equal(E[rows], E_t), (n, steps, t)
                if with_jacobian:
                    assert np.array_equal(J[rows], J_t), (n, steps, t)
                else:
                    assert J is None


@pytest.mark.parametrize("preset", ["two_class", "three_class", "full_covariance_3d"])
def test_oracle_clean_pass_equals_the_denoisers_row_0_pass_bitwise(schedule400, preset):
    # the Bayes oracle reads spec.clean_tables, built at ab = 1 alone; the
    # denoiser's tables hold the same clean data at row 0 of every step
    presets = {"two_class": dg.two_class_benchmark, "three_class": dg.three_class_benchmark}
    spec = presets.get(preset, _spec3)()
    dn = AnalyticDenoiser(spec, schedule400)
    X = np.random.default_rng(37).standard_normal((250, spec.dim)) * 1.5
    row = np.array([0])
    proj, log_joint = spec.clean_tables.log_joint(X, row)
    dn_proj, dn_log_joint = dn.tables.log_joint(X, row)
    assert proj.shape == (1, spec.dim, len(dn.tables.weights), len(X))
    assert proj.tobytes() == dn_proj.tobytes()
    assert log_joint.tobytes() == dn_log_joint.tobytes()
    assert spec.clean_tables.score(proj, row).tobytes() == dn.tables.score(dn_proj, row).tobytes()


def test_guided_gradient_is_jacobian_pullback_bitwise(denoiser, h_nonrobust):
    # one posterior pass gives the same bits as the mean and Jacobian
    # computed by separate passes and contracted with the classifier gradient
    X = np.random.default_rng(33).standard_normal((40, 2)) * 1.3
    for t in (1, 57, 400):
        v = dg.classifier.input_gradient(h_nonrobust, denoiser.posterior_mean_x0(X, t), 1)
        want = np.einsum("npq,np->nq", jacobian(denoiser, X, t), v)
        got = guided_gradient(denoiser, h_nonrobust, X, t, 1, path="x0pred")
        assert np.array_equal(got, want), t
