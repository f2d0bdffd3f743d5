import errno
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import diffguide as dg
from diffguide import cli
from diffguide.guidance import (
    GuidanceConfig,
    StabilizerConfig,
    _pregenerate_noise,
    adam,
    ema,
    identity,
    init_stabilizer_state,
    sample_batch,
    stabilize,
    unconditional_batch,
)
from diffguide.metrics import frechet_distance
from diffguide.rng import substream
from diffguide.schedule import schedule_from_betas

from reference import chain_noise, guided_chain, guided_gradient, reverse_step
from test_classifier import _spec3


# -- stabilizers --------------------------------------------------------------


def test_ema_beta_zero_passthrough():
    state = init_stabilizer_state(3)
    g = np.array([1.0, -2.0, 0.5])
    _, nu = stabilize(state, ema(0.0), g)
    assert np.array_equal(nu, g)


def test_ema_constant_input_recursion():
    state = init_stabilizer_state(1)
    cfg = ema(0.9)
    g = np.array([1.0])
    expected = [0.1, 0.19, 0.271]
    for want in expected:
        state, nu = stabilize(state, cfg, g)
        assert nu[0] == pytest.approx(want, abs=1e-15)


def test_adam_first_step_closed_form():
    eps = 1e-8
    state = init_stabilizer_state(1)
    state, nu = stabilize(state, adam(eps=eps), np.array([2.0]))
    m1 = 0.1 * 2.0
    v1 = 0.001 * 4.0
    assert nu[0] == pytest.approx(m1 / (np.sqrt(v1) + eps), abs=1e-12)
    assert nu[0] == pytest.approx(3.1623, abs=1e-4)


@pytest.mark.parametrize("eps", [np.inf, np.nan, 0.0, -1e-8])
def test_adam_refuses_an_eps_that_is_not_finite_and_positive(eps):
    # eps = inf divided every update to zero: guidance off
    with pytest.raises(ValueError, match="adam eps must be finite and > 0"):
        adam(eps=eps)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("ema", "beta", False), ("ema", "beta", "0.5"), ("adam", "beta1", None),
        ("adam", "beta2", True), ("adam", "eps", "x"),
    ],
    ids=["ema-bool", "ema-string", "adam-none", "adam-bool", "eps-string"],
)
def test_stabilizer_fields_must_be_numbers(kind, field, value):
    # beta=False ran ema(0); a string or None raised a TypeError from a comparison
    message = rf"^{kind} {field} must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        StabilizerConfig(kind, **{field: value})


@pytest.mark.parametrize("value", [True, "2", None], ids=["bool", "string", "none"])
def test_guidance_scale_must_be_a_number(h_oracle, value):
    # scale=True ran as scale 1; "2" and None raised a TypeError from np.isfinite
    with pytest.raises(ValueError, match=rf"^scale must be a real number, got {re.escape(repr(value))}$"):
        GuidanceConfig(classifier=h_oracle, target_class=0, scale=value)


def test_adam_fixed_point_is_sign():
    cfg = adam()
    for g_val in (2.0, -0.3):
        state = init_stabilizer_state(1)
        g = np.array([g_val])
        for _ in range(10_000):
            state, nu = stabilize(state, cfg, g)
        assert nu[0] == pytest.approx(np.sign(g_val), abs=1e-3)


def test_identity_does_not_touch_state():
    state = init_stabilizer_state(2)
    new_state, nu = stabilize(state, identity(), np.array([1.0, 2.0]))
    assert new_state is state
    assert np.array_equal(new_state.m, np.zeros(2))


def test_ema_one_homogeneous():
    rng = np.random.default_rng(0)
    gs = rng.standard_normal((20, 3))
    c = -2.7
    s1 = init_stabilizer_state(3)
    s2 = init_stabilizer_state(3)
    for g in gs:
        s1, nu1 = stabilize(s1, ema(0.95), g)
        s2, nu2 = stabilize(s2, ema(0.95), c * g)
    np.testing.assert_allclose(nu2, c * nu1, rtol=1e-12)


def test_adam_scale_invariant_on_constant_sequences():
    g = np.array([0.7])
    outs = []
    for c in (1.0, 100.0):
        state = init_stabilizer_state(1)
        for _ in range(50):
            state, nu = stabilize(state, adam(), c * g)
        outs.append(nu[0])
    assert outs[0] == pytest.approx(outs[1], abs=1e-6)


def test_stabilize_finite_for_finite_input():
    rng = np.random.default_rng(1)
    for cfg in (identity(), ema(0.99), adam()):
        state = init_stabilizer_state(4)
        for _ in range(30):
            g = rng.standard_normal(4) * 10.0 ** rng.integers(-8, 8)
            state, nu = stabilize(state, cfg, g)
            assert np.all(np.isfinite(nu))
    state = init_stabilizer_state(2)
    _, nu = stabilize(state, adam(), np.zeros(2))
    assert np.array_equal(nu, np.zeros(2))


def test_stabilize_is_pure():
    state = init_stabilizer_state(2)
    m_before = state.m.copy()
    stabilize(state, ema(0.9), np.ones(2))
    assert np.array_equal(state.m, m_before)


def test_stabilize_batch_rows_independent():
    # row-wise batched update equals per-row scalar updates, bitwise
    rng = np.random.default_rng(2)
    G = rng.standard_normal((3, 5, 2))  # 3 steps, 5 chains
    batch = init_stabilizer_state((5, 2))
    singles = [init_stabilizer_state(2) for _ in range(5)]
    for step in range(3):
        batch, nu_b = stabilize(batch, adam(), G[step])
        for i in range(5):
            singles[i], nu_s = stabilize(singles[i], adam(), G[step][i])
            assert np.array_equal(nu_b[i], nu_s)


def test_stabilizer_config_validation():
    with pytest.raises(ValueError):
        StabilizerConfig("ema", beta=1.0)
    with pytest.raises(ValueError):
        StabilizerConfig("adam", eps=0.0)
    with pytest.raises(ValueError):
        StabilizerConfig("adam", eps=float("nan"))
    with pytest.raises(ValueError):
        StabilizerConfig("momentum")
    with pytest.raises(ValueError):
        stabilize(init_stabilizer_state(2), ema(0.9), np.zeros(3))


def test_guidance_config_validation(h_oracle):
    with pytest.raises(ValueError):
        GuidanceConfig(classifier=h_oracle, target_class=0, scale=-1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(classifier=h_oracle, target_class=0, path="x1pred")
    with pytest.raises(ValueError):
        GuidanceConfig(classifier=h_oracle, target_class=0, jacobian_mode="partial")
    with pytest.raises(ValueError):
        GuidanceConfig(classifier=h_oracle, target_class=0, objective="bogus")


@pytest.mark.parametrize("target", [-1, 2, 0.5, 1.0, True], ids=["negative", "too-large", "fraction", "float", "bool"])
@pytest.mark.parametrize("persona", ["h_nonrobust", "h_oracle"])
def test_guidance_config_refuses_a_target_outside_the_classes(request, persona, target):
    # both personas have 2 classes; -1 would wrap round to class 1 in the one-hot and the oracle's rows
    h = request.getfixturevalue(persona)
    assert h.n_classes == 2
    if type(target) is int:
        message = rf"target_class {target} outside \[0, 2\)"
    else:
        message = rf"target_class must be an integer in \[0, 2\), got {re.escape(repr(target))}"
    with pytest.raises(ValueError, match=message):
        GuidanceConfig(classifier=h, target_class=target)
    assert GuidanceConfig(classifier=h, target_class=np.int64(1)).target_class == 1


# -- reverse sampling ----------------------------------------------------------


def test_reverse_step_no_noise_limit(spec2):
    sch = schedule_from_betas([1e-13, 1e-13])
    dn = dg.AnalyticDenoiser(spec2, sch)
    x = np.array([0.4, -0.2])
    out = reverse_step(dn, sch, x, 2, np.random.default_rng(0))
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_reverse_step_final_step_deterministic(small_denoiser, small_schedule):
    x = np.array([0.3, 0.9])
    a = reverse_step(small_denoiser, small_schedule, x, 1, np.random.default_rng(1))
    b = reverse_step(small_denoiser, small_schedule, x, 1, np.random.default_rng(999))
    assert np.array_equal(a, b)


def test_scale_zero_bit_identical_to_unguided(small_denoiser, small_schedule, h_nonrobust):
    for path in ("raw", "x0pred"):
        cfg = GuidanceConfig(
            classifier=h_nonrobust, target_class=1, scale=0.0, path=path, stabilizer=ema(0.9)
        )
        guided = sample_batch(small_denoiser, small_schedule, cfg, 8, 77)
        plain = unconditional_batch(small_denoiser, small_schedule, 8, 77)
        assert np.array_equal(guided.samples, plain.samples)


def test_scale_zero_never_reaches_a_nan_classifier(small_denoiser, small_schedule, h_nonrobust):
    # a NaN output weight makes every guidance gradient NaN; at scale 0 the
    # chains are still the unguided ones
    weights = list(h_nonrobust.model.weights)
    weights[-1] = weights[-1].copy()
    weights[-1][0, 0] = np.nan
    h_nan = dg.non_robust(replace(h_nonrobust.model, weights=tuple(weights)))
    plain = unconditional_batch(small_denoiser, small_schedule, 8, 77)
    for path in ("raw", "x0pred"):
        cfg = GuidanceConfig(classifier=h_nan, target_class=1, scale=0.0, path=path, stabilizer=ema(0.9))
        guided = sample_batch(small_denoiser, small_schedule, cfg, 8, 77)
        assert guided.n_diverged == 0
        assert np.array_equal(guided.samples, plain.samples)


def test_scale_zero_rows_skip_the_classifier(small_denoiser, small_schedule, h_nonrobust, monkeypatch):
    rows = []
    gradient = dg.classifier.input_gradient

    def counted(h, X, *args):
        rows.append(len(X))
        return gradient(h, X, *args)

    monkeypatch.setattr(dg.classifier, "input_gradient", counted)
    cfg = GuidanceConfig(classifier=h_nonrobust, target_class=1, path="x0pred", stabilizer=ema(0.9))
    for scales in ([0.0, 1.0, 5.0], [1.0, 0.0, 5.0]):
        rows.clear()
        dg.guidance._run_chains(small_denoiser, small_schedule, cfg, scales, 6, 12)
        assert rows == [12] * small_schedule.T


def test_single_chain_equals_batch_row_zero(small_denoiser, small_schedule, h_nonrobust):
    cfg = GuidanceConfig(
        classifier=h_nonrobust, target_class=1, scale=4.0, path="x0pred", stabilizer=ema(0.99)
    )
    batch = sample_batch(small_denoiser, small_schedule, cfg, 3, 55)
    single = sample_batch(small_denoiser, small_schedule, cfg, 1, 55)
    assert np.array_equal(single.samples[0], batch.samples[0])


def test_chain_permutation_permutes_outputs(small_denoiser, small_schedule, h_nonrobust):
    cfg = GuidanceConfig(classifier=h_nonrobust, target_class=1, scale=4.0, path="raw")
    base = sample_batch(small_denoiser, small_schedule, cfg, 4, 31)
    perm = [2, 0, 3, 1]
    shuffled = sample_batch(small_denoiser, small_schedule, cfg, 4, 31, chain_indices=perm)
    assert np.array_equal(shuffled.samples, base.samples[perm])


def test_mlp_guided_batch_equals_reversed_uneven_shards(small_denoiser, small_schedule, h_nonrobust):
    # the classifier's products must not make a chain depend on its batch;
    # at 1000 rows plain BLAS products give other row results than at the
    # shards' row counts
    cfg = GuidanceConfig(
        classifier=h_nonrobust, target_class=1, scale=4.0, path="x0pred", stabilizer=ema(0.99)
    )
    base = sample_batch(small_denoiser, small_schedule, cfg, 1000, 21)
    order = list(range(999, -1, -1))
    for lo, hi in ((0, 7), (7, 390), (390, 1000)):
        part = sample_batch(small_denoiser, small_schedule, cfg, hi - lo, 21, chain_indices=order[lo:hi])
        assert np.array_equal(part.samples, base.samples[order[lo:hi]])


def test_multi_scale_batch_rows_equal_single_scale_batches(small_denoiser, small_schedule, h_nonrobust):
    # one (scale, chain) batch, scale-major, against one batch per scale
    # scale 0 leads in the first order and sits between guided rows in the second
    cfg = GuidanceConfig(classifier=h_nonrobust, target_class=1, path="x0pred", stabilizer=ema(0.9))
    for scales in ([0.0, 1.0, 5.0, 20.0], [1.0, 0.0, 5.0, 20.0]):
        joint = dg.guidance._run_chains(small_denoiser, small_schedule, cfg, scales, 30, 12)
        for k, s in enumerate(scales):
            alone = sample_batch(small_denoiser, small_schedule, replace(cfg, scale=s), 30, 12)
            rows = slice(30 * k, 30 * (k + 1))
            assert np.array_equal(joint.samples[rows], alone.samples)
            assert np.array_equal(joint.diverged_t[rows], alone.diverged_t)


def test_unguided_engine_matches_scalar_reverse_loop(small_denoiser, small_schedule):
    batch = unconditional_batch(small_denoiser, small_schedule, 3, 42)
    for i in range(3):
        gen = substream(42, "chain", i)
        x = gen.standard_normal(2)
        for t in range(small_schedule.T, 0, -1):
            x = reverse_step(small_denoiser, small_schedule, x, t, gen)
        assert np.array_equal(x, batch.samples[i])


def test_trace_gradients_match_public_op(small_denoiser, small_schedule, h_nonrobust, monkeypatch):
    # record the state, step and gradient the sampler guides with at each step
    records = []
    sampler_gradient = dg.guidance.guidance_gradient

    def recorded(cfg, dn, X, t, *args):
        g = sampler_gradient(cfg, dn, X, t, *args)
        records.append((X.copy(), t, g.copy()))
        return g

    monkeypatch.setattr(dg.guidance, "guidance_gradient", recorded)
    cfg = GuidanceConfig(
        classifier=h_nonrobust, target_class=0, scale=2.0, path="x0pred", stabilizer=ema(0.9)
    )
    sample_batch(small_denoiser, small_schedule, cfg, 1, 5)
    assert [t for _, t, _ in records] == list(range(small_schedule.T, 0, -1))
    assert np.array_equal(records[0][0][0], substream(5, "chain", 0).standard_normal(2))
    for X, t, g in records:
        want = guided_gradient(small_denoiser, h_nonrobust, X[:1], t, 0, path="x0pred")
        np.testing.assert_allclose(g[:1], want, rtol=0, atol=1e-13)


def test_sampling_deterministic(small_denoiser, small_schedule, h_oracle):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=3.0, path="x0pred")
    a = sample_batch(small_denoiser, small_schedule, cfg, 6, 9)
    b = sample_batch(small_denoiser, small_schedule, cfg, 6, 9)
    assert np.array_equal(a.samples, b.samples)


def test_different_seeds_differ(small_denoiser, small_schedule):
    a = unconditional_batch(small_denoiser, small_schedule, 4, 1)
    b = unconditional_batch(small_denoiser, small_schedule, 4, 2)
    assert not np.array_equal(a.samples, b.samples)


def test_unconditional_samples_match_data_distribution(denoiser, schedule400, spec2):
    batch = unconditional_batch(denoiser, schedule400, 1500, 123)
    assert batch.n_diverged == 0
    ref = dg.sample_dataset(spec2, 1500, 321).points
    assert frechet_distance(batch.samples, ref) < 0.05


def test_divergence_detection_and_reporting(small_denoiser, small_schedule, h_oracle):
    # unnormalized oracle logit gradients grow linearly in x, so an absurd
    # scale compounds to overflow within a few steps
    cfg = GuidanceConfig(
        classifier=h_oracle, target_class=0, scale=1e12, path="raw", objective="logit"
    )
    batch = sample_batch(small_denoiser, small_schedule, cfg, 4, 3)
    assert batch.n_diverged == 4
    assert np.all(np.isnan(batch.samples))
    assert np.all(batch.diverged_t > 0)
    assert len(batch.kept()) == 0


def test_partly_diverging_batch_matches_lone_chains_and_scalar_loop(small_denoiser, small_schedule, h_oracle):
    # at this scale the logit guidance overshoots: chain 26 stays finite,
    # chains 1 and 3 first leave the finite numbers at t = 1 and chains 0
    # and 12 at t = 2, so the last step sees NaN rows and new bad ones at once
    chains = [26, 0, 1, 12, 3]
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1070.0, path="raw", objective="logit")
    batch = sample_batch(small_denoiser, small_schedule, cfg, len(chains), 3, chain_indices=chains)
    assert batch.diverged_t.tolist() == [-1, 2, 1, 2, 1]
    for row, i in enumerate(chains):
        alone = sample_batch(small_denoiser, small_schedule, cfg, 1, 3, chain_indices=[i])
        assert alone.diverged_t[0] == batch.diverged_t[row]
        x, t = guided_chain(small_denoiser, small_schedule, h_oracle, 0, 1070.0, 3, i, "logit")
        assert t == batch.diverged_t[row]
        if t == -1:
            assert not batch.diverged[row]
            assert np.array_equal(batch.samples[row], x)
        else:
            assert batch.diverged[row]
            assert np.all(np.isnan(batch.samples[row]))


def test_row_with_one_infinite_coordinate_is_all_nan(small_denoiser, small_schedule, h_oracle, monkeypatch):
    # a gradient that is +inf in one coordinate of one row at the last step
    # leaves that row [inf, finite]; the sampler reports it as all NaN
    sampler_gradient = dg.guidance.guidance_gradient

    def one_infinite(cfg, dn, X, t, *args):
        g = sampler_gradient(cfg, dn, X, t, *args)
        if t == 1:
            g[1, 0] = np.inf
        return g

    monkeypatch.setattr(dg.guidance, "guidance_gradient", one_infinite)
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0, path="raw")
    batch = sample_batch(small_denoiser, small_schedule, cfg, 3, 8)
    assert batch.diverged_t.tolist() == [-1, 1, -1]
    assert np.all(np.isnan(batch.samples[1]))
    assert np.all(np.isfinite(batch.samples[[0, 2]]))


@pytest.mark.parametrize("T", [2, 12])
@pytest.mark.parametrize("chains", [[4, 3, 2, 1, 0], [9, 2, 30, 7]], ids=["reversed", "scattered"])
def test_pregenerated_noise_is_each_chains_start_then_its_zs(T, chains):
    starts, zs = _pregenerate_noise(chains, T, 2, 13)
    assert starts.shape == (len(chains), 2) and zs.shape == (len(chains), T - 1, 2)
    for row, i in enumerate(chains):
        start, z = chain_noise(13, i, T, 2)
        assert starts[row].tobytes() == start.tobytes()
        assert zs[row].tobytes() == z.tobytes()


def test_oracle_guidance_lands_in_target_class(denoiser, schedule400, h_oracle, spec2):
    # end-to-end check scored by exact Bayes classification of the outputs
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=3.0, path="raw")
    batch = sample_batch(denoiser, schedule400, cfg, 300, 606)
    assert batch.n_diverged == 0
    from diffguide.classifier import predict_logits

    pred = np.argmax(predict_logits(h_oracle, batch.samples), axis=1)
    assert np.mean(pred == 0) >= 0.95


def test_healthy_chains_unaffected_by_bad_ones(small_denoiser, small_schedule, h_oracle):
    # a diverged chain is NaN-frozen; other chains keep their isolated outcome
    cfg_ok = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0, path="raw")
    ok = sample_batch(small_denoiser, small_schedule, cfg_ok, 3, 8)
    assert ok.n_diverged == 0
    assert np.all(np.isfinite(ok.samples))


def test_batch_rejects_bad_n(small_denoiser, small_schedule, h_oracle):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0)
    with pytest.raises(ValueError):
        sample_batch(small_denoiser, small_schedule, cfg, 0, 1)
    with pytest.raises(ValueError):
        unconditional_batch(small_denoiser, small_schedule, 0, 1)


def test_batch_refuses_chain_indices_that_contradict_n(small_denoiser, small_schedule, h_oracle):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0)
    with pytest.raises(ValueError, match="3 chain indices for n = 10"):
        sample_batch(small_denoiser, small_schedule, cfg, 10, 1, chain_indices=[0, 1, 2])


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
def test_batch_refuses_an_n_that_is_not_an_integer(small_denoiser, small_schedule, h_oracle, n):
    # True would run one chain
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        sample_batch(small_denoiser, small_schedule, cfg, n, 1)


def test_batch_refuses_a_repeated_chain_index(small_denoiser, small_schedule, h_oracle):
    # [0, 0, 0] would return three copies of chain 0 as independent chains
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0)
    with pytest.raises(ValueError, match="chain indices repeat a chain"):
        sample_batch(small_denoiser, small_schedule, cfg, 3, 1, chain_indices=[0, 0, 0])


@pytest.mark.parametrize("index", [0.5, True], ids=["fraction", "bool"])
def test_batch_refuses_a_chain_index_that_is_not_an_integer(small_denoiser, small_schedule, h_oracle, index):
    # 0.5 would run as chain 0, True as chain 1
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0)
    with pytest.raises(ValueError, match="substream index must be an integer"):
        sample_batch(small_denoiser, small_schedule, cfg, 1, 1, chain_indices=[index])


@pytest.mark.parametrize(
    "seed, index, name",
    [(1.5, 0, "seed"), (True, 0, "seed"), (1, 0.5, "index"), (1, False, "index")],
    ids=["fractional-seed", "bool-seed", "fractional-index", "bool-index"],
)
def test_substream_refuses_a_seed_or_index_that_is_not_an_integer(seed, index, name):
    # int() would truncate 1.5 onto seed 1's stream
    with pytest.raises(ValueError, match=f"substream {name} must be an integer"):
        substream(seed, "chain", index)
    # numpy integers name the same stream as Python ones
    assert np.array_equal(substream(np.int64(3), "chain", np.uint32(2)).random(3), substream(3, "chain", 2).random(3))


def test_batch_refuses_a_schedule_other_than_the_denoisers(small_denoiser, small_schedule, h_oracle):
    # same T, other betas: the denoiser's posterior would meet another
    # schedule's reverse coefficients
    cfg = GuidanceConfig(classifier=h_oracle, target_class=0, scale=1.0)
    other = dg.linear_schedule(small_schedule.T, 1e-4, 0.04)
    with pytest.raises(ValueError, match="betas differ"):
        sample_batch(small_denoiser, other, cfg, 3, 1)
    with pytest.raises(ValueError, match="betas differ"):
        unconditional_batch(small_denoiser, other, 3, 1)
    # an equal schedule built again is the same axis
    again = dg.linear_schedule(small_schedule.T, 1e-4, 0.05)
    expected = sample_batch(small_denoiser, small_schedule, cfg, 3, 1).samples
    assert sample_batch(small_denoiser, again, cfg, 3, 1).samples.tobytes() == expected.tobytes()


# -- chains sharded across processes ------------------------------------------


def _same_rows(got, want):
    return (
        np.array_equal(got.samples, want.samples, equal_nan=True)
        and np.array_equal(got.diverged, want.diverged)
        and np.array_equal(got.diverged_t, want.diverged_t)
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("path", ["raw", "x0pred", None], ids=["raw", "x0pred", "unguided"])
@pytest.mark.parametrize("order", [range(31), range(30, -1, -1)], ids=["in-order", "reversed"])
def test_sharded_chains_equal_the_serial_loop_bitwise(
    small_denoiser, small_schedule, h_nonrobust, cpus, forks, k, path, order
):
    # 31 chains split 10, 10, 11 over three shards; scale 0 sits between guided rows
    cfg = path and GuidanceConfig(classifier=h_nonrobust, target_class=1, path=path, stabilizer=ema(0.9))
    scales = [1.0, 0.0, 5.0]
    serial = dg.guidance._chain_loop(small_denoiser, small_schedule, cfg, scales, order, 12)
    cpus(k)
    sharded = dg.guidance._run_chains(small_denoiser, small_schedule, cfg, scales, 31, 12, chain_indices=order)
    assert [len(shard) for shard in forks] == {1: [], 2: [16], 3: [10, 11]}[k]
    assert _same_rows(sharded, serial)


@pytest.mark.parametrize("k", [2, 3])
def test_sharded_diverging_chains_equal_the_serial_loop(small_schedule, cpus, forks, k):
    # the 3-D full-covariance oracle on the raw path: at scale 1300 some chains overflow
    spec = _spec3()
    dn = dg.AnalyticDenoiser(spec, small_schedule)
    cfg = GuidanceConfig(classifier=dg.bayes_oracle(spec), target_class=1, path="raw")
    scales = [0.0, 5.0, 1300.0]
    serial = dg.guidance._chain_loop(dn, small_schedule, cfg, scales, range(50), 3)
    assert 0 < serial.n_diverged < 50
    cpus(k)
    assert _same_rows(dg.guidance._run_chains(dn, small_schedule, cfg, scales, 50, 3), serial)
    assert len(forks) == k - 1


def test_a_failed_fork_runs_the_shard_in_the_parent(small_denoiser, small_schedule, h_nonrobust, cpus, monkeypatch):
    cfg = GuidanceConfig(classifier=h_nonrobust, target_class=1, path="x0pred", stabilizer=ema(0.9))
    serial = dg.guidance._chain_loop(small_denoiser, small_schedule, cfg, [0.0, 2.0], range(9), 4)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(3)
    assert _same_rows(dg.guidance._run_chains(small_denoiser, small_schedule, cfg, [0.0, 2.0], 9, 4), serial)


def test_a_child_that_exits_without_a_result_is_rerun_in_the_parent(
    small_denoiser, small_schedule, h_nonrobust, cpus, forks, monkeypatch
):
    cfg = GuidanceConfig(classifier=h_nonrobust, target_class=1, path="x0pred", stabilizer=ema(0.9))
    loop = dg.guidance._chain_loop
    serial = loop(small_denoiser, small_schedule, cfg, [0.0, 2.0], range(9), 4)
    parent = os.getpid()

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return loop(*args)

    monkeypatch.setattr(dg.guidance, "_chain_loop", dies_in_a_child)
    cpus(3)
    assert _same_rows(dg.guidance._run_chains(small_denoiser, small_schedule, cfg, [0.0, 2.0], 9, 4), serial)
    assert len(forks) == 2


class _Garbage:
    """A shard result whose samples are garbage and whose diverged_t raises."""

    def __init__(self, shape):
        self.samples = np.full(shape, 7.0)

    @property
    def diverged_t(self):
        raise MemoryError("killed mid-write")


def test_a_child_that_wrote_part_of_its_rows_is_rerun_over_them(
    small_denoiser, small_schedule, h_nonrobust, cpus, forks, monkeypatch
):
    cfg = GuidanceConfig(classifier=h_nonrobust, target_class=1, path="x0pred", stabilizer=ema(0.9))
    loop = dg.guidance._chain_loop
    serial = loop(small_denoiser, small_schedule, cfg, [0.0, 2.0], range(9), 4)
    parent = os.getpid()

    def writes_garbage_in_a_child(dn, schedule, cfg, scales, chain_indices, seed):
        if os.getpid() != parent:
            return _Garbage((len(scales) * len(chain_indices), dn.dim))
        return loop(dn, schedule, cfg, scales, chain_indices, seed)

    monkeypatch.setattr(dg.guidance, "_chain_loop", writes_garbage_in_a_child)
    cpus(3)
    assert _same_rows(dg.guidance._run_chains(small_denoiser, small_schedule, cfg, [0.0, 2.0], 9, 4), serial)
    assert [len(shard) for shard in forks] == [3, 3]


def _fails_on_shard(monkeypatch, chain, error):
    """Make the shard that runs `chain` raise error, in whichever process runs it."""
    loop = dg.guidance._chain_loop

    def failing(dn, schedule, cfg, scales, chain_indices, seed):
        if chain in chain_indices:
            raise error
        return loop(dn, schedule, cfg, scales, chain_indices, seed)

    monkeypatch.setattr(dg.guidance, "_chain_loop", failing)


@pytest.mark.parametrize("chain", [0, 8], ids=["parent-shard", "child-shard"])
def test_an_error_in_a_shard_reaches_the_caller(small_denoiser, small_schedule, h_oracle, cpus, forks, monkeypatch, chain):
    cfg = GuidanceConfig(classifier=h_oracle, target_class=1, scale=2.0)
    _fails_on_shard(monkeypatch, chain, ValueError("shard refused"))
    cpus(3)
    with pytest.raises(ValueError, match="shard refused"):
        sample_batch(small_denoiser, small_schedule, cfg, 9, 4)
    assert len(forks) == 2


@pytest.mark.parametrize("chain", [0, 29], ids=["parent-shard", "child-shard"])
def test_cli_exits_1_with_one_line_when_a_shard_runs_out_of_memory(tmp_path, capsys, cpus, forks, monkeypatch, chain):
    config = {
        "seed": 7,
        "schedule": {"T": 12},
        "guidance": {"classifier": "bayes_oracle", "path": "raw"},
        "sample": {"n": 30},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    _fails_on_shard(monkeypatch, chain, MemoryError("Unable to allocate 8.0 EiB"))
    cpus(2)
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "run"), "sample"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: out of memory: Unable to allocate 8.0 EiB\n"
    assert len(forks) == 1
