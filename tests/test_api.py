import math
import re
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import diffguide
from diffguide import classifier, nn
from diffguide.synthdata import sample_class_points

# the names a user needs to run each CLI command from Python
PUBLIC = {
    "make_spec", "two_class_benchmark", "three_class_benchmark", "sample_dataset",
    "linear_schedule",
    "init_mlp", "train",
    "non_robust", "robust", "bayes_oracle",
    "AnalyticDenoiser",
    "StabilizerConfig", "GuidanceConfig", "stabilize", "sample_batch", "unconditional_batch",
    "curve",
    "evaluate", "sweep",
}


def test_public_names_are_the_pipeline_surface():
    names = {
        name
        for name, val in vars(diffguide).items()
        if not name.startswith("_") and not isinstance(val, types.ModuleType)
    }
    assert names == PUBLIC


@pytest.mark.parametrize("seed", [True, 1.5, -1], ids=["bool", "fraction", "negative"])
@pytest.mark.parametrize("entry", ["init_mlp", "sample_dataset", "train", "curve"])
def test_seeded_entry_points_refuse_a_seed_that_is_not_an_integer(spec2, small_denoiser, h_oracle, entry, seed):
    # True ran as seed 1, and 1.5 and -1 failed inside numpy
    recipe = diffguide.GuidanceConfig(h_oracle, target_class=0)
    calls = {
        "init_mlp": lambda: diffguide.init_mlp([2, 4, 2], seed=seed),
        "sample_dataset": lambda: diffguide.sample_dataset(spec2, 10, seed),
        "train": lambda: diffguide.train(diffguide.init_mlp([2, 4, 2]), np.zeros((4, 2)), [0, 1, 0, 1], seed=seed),
        "curve": lambda: diffguide.curve(recipe, small_denoiser, np.zeros((3, 2)), [0, 1, 0], "logit", seed=seed),
    }
    with pytest.raises(ValueError, match=rf"seed must be an integer >= 0, got {re.escape(repr(seed))}"):
        calls[entry]()


def test_a_numpy_integer_seed_is_the_same_seed(spec2):
    a, b = diffguide.sample_dataset(spec2, 10, np.int64(7)), diffguide.sample_dataset(spec2, 10, 7)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)
    w_numpy, w_int = diffguide.init_mlp([2, 4, 2], seed=np.uint32(5)).weights, diffguide.init_mlp([2, 4, 2], seed=5).weights
    assert all(np.array_equal(a, b) for a, b in zip(w_numpy, w_int))


# -- one point check and one index check ---------------------------------------


@pytest.mark.parametrize("shape", [(5, 3), (2,), (2, 3, 2)], ids=["wrong-width", "one-point", "three-axes"])
@pytest.mark.parametrize(
    "entry",
    ["forward", "nn.input_gradient", "train", "posterior_mean_x0", "oracle logits", "oracle gradient", "evaluate", "curve"],
)
def test_every_entry_point_refuses_points_that_are_not_an_n_by_d_batch(spec2, small_denoiser, h_oracle, entry, shape):
    # each goes through synthdata.check_points, so each refusal reads the same
    model, x, labels = diffguide.init_mlp([2, 4, 2]), np.zeros(shape), np.zeros(shape[0], dtype=np.int64)
    recipe = diffguide.GuidanceConfig(h_oracle, target_class=0)
    calls = {
        "forward": lambda: nn.forward(model, x),
        "nn.input_gradient": lambda: nn.input_gradient(model, x, 0),
        "train": lambda: diffguide.train(model, x, labels, epochs=1),
        "posterior_mean_x0": lambda: small_denoiser.posterior_mean_x0(x, 5),
        "oracle logits": lambda: classifier.predict_logits(h_oracle, x),
        "oracle gradient": lambda: classifier.input_gradient(h_oracle, x, 0),
        "evaluate": lambda: diffguide.evaluate(x, spec2, 0, h_oracle),
        "curve": lambda: diffguide.curve(recipe, small_denoiser, x, labels, "logit"),
    }
    with pytest.raises(ValueError, match=rf"^points of shape {re.escape(str(shape))}: expected \(n, 2\)$"):
        calls[entry]()


@pytest.mark.parametrize("kind", ["bool", "float", "negative", "too-large"])
@pytest.mark.parametrize(
    "entry",
    ["check_steps", "target_class", "non_robust gradient", "bayes_oracle gradient", "train labels", "sample_class_points"],
)
def test_every_step_class_and_label_refusal_reads_the_same(spec2, small_schedule, h_oracle, entry, kind):
    # each goes through rng.check_index: the argument's name, then the bad value or its dtype
    model, x = diffguide.init_mlp([2, 4, 2]), np.zeros((3, 2))
    calls = {
        "check_steps": ("step t", small_schedule.T + 1, small_schedule.check_steps),
        "target_class": ("target_class", 2, lambda v: diffguide.GuidanceConfig(h_oracle, v)),
        "non_robust gradient": ("y", 2, lambda v: classifier.input_gradient(diffguide.non_robust(model), x, v)),
        "bayes_oracle gradient": ("y", 2, lambda v: classifier.input_gradient(h_oracle, x, v)),
        "train labels": ("label", 2, lambda v: diffguide.train(model, np.zeros((4, 2)), np.full(4, v), epochs=1)),
        "sample_class_points": ("y", 2, lambda v: sample_class_points(spec2, v, 3, np.random.default_rng(0))),
    }
    name, stop, call = calls[entry]
    bad = {"bool": True, "float": 1.5, "negative": -1, "too-large": stop}[kind]
    if type(bad) is int:
        message = rf"^{name} {bad} outside \[0, {stop}\)$"
    else:
        got = f"{np.full(4, bad).dtype} of shape (4,)" if entry == "train labels" else repr(bad)
        message = rf"^{name} must be an integer in \[0, {stop}\), got {re.escape(got)}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


# -- every public scalar argument fails closed ---------------------------------


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def _trained(env, **kw):
    res = diffguide.train(diffguide.init_mlp([2, 3, 2]), env.points, env.labels, **{"epochs": 1, "batch_size": 8, **kw})
    return _bits(*res.model.weights, *res.model.biases, res.losses)


def _chains(env, cfg, n=2, seed=0):
    res = diffguide.sample_batch(env.dn, env.dn.schedule, cfg, n, seed)
    return _bits(res.samples, res.diverged_t)


def _stabilized(cfg):
    state, outs = diffguide.guidance.init_stabilizer_state(2), []
    for g in ([1.0, -2.0], [0.5, 0.25], [-3.0, 1.0]):
        state, out = diffguide.stabilize(state, cfg, np.array(g))
        outs.append(out)
    return _bits(*outs)


def _dataset(env, n=4, seed=0):
    data = diffguide.sample_dataset(env.spec, n, seed)
    return _bits(data.points, data.labels)


def _spec(prior=1.0, weight=1.0):
    spec = diffguide.make_spec([(prior, [(weight, [0.0, 0.0], 1.0)])])
    return _bits(spec.priors(), spec.classes[0].components[0].weight)


def _schedule(T=10, beta_start=0.01, beta_end=0.5):
    return _bits(diffguide.linear_schedule(T, beta_start, beta_end).alpha_bar)


def _curve(env, seed):
    return _bits(diffguide.curve(env.cfg, env.dn, env.points[:3], env.labels[:3], "logit", seed=seed).mean)


def _sweep(env, seed):
    return [r.to_json() for _, r in diffguide.sweep(env.dn, env.dn.schedule, env.cfg, [0.0], 3, seed)]


# (entry point, argument): (whether it takes an integer, a tiny call with
# the argument set to v, returning its result's bits)
_SCALAR_ARGS = {
    ("sample_dataset", "n"): (True, lambda env, v: _dataset(env, n=v)),
    ("sample_dataset", "seed"): (True, lambda env, v: _dataset(env, seed=v)),
    ("make_spec", "prior"): (False, lambda env, v: _spec(prior=v)),
    ("make_spec", "weight"): (False, lambda env, v: _spec(weight=v)),
    ("linear_schedule", "T"): (True, lambda env, v: _schedule(T=v)),
    ("linear_schedule", "beta_start"): (False, lambda env, v: _schedule(beta_start=v)),
    ("linear_schedule", "beta_end"): (False, lambda env, v: _schedule(beta_end=v)),
    ("init_mlp", "layer_sizes"): (True, lambda env, v: _bits(*diffguide.init_mlp([2, v, 2]).weights)),
    ("init_mlp", "seed"): (True, lambda env, v: _bits(*diffguide.init_mlp([2, 3, 2], seed=v).weights)),
    ("train", "epochs"): (True, lambda env, v: _trained(env, epochs=v)),
    ("train", "batch_size"): (True, lambda env, v: _trained(env, batch_size=v)),
    ("train", "lr"): (False, lambda env, v: _trained(env, lr=v)),
    ("train", "seed"): (True, lambda env, v: _trained(env, seed=v)),
    ("GuidanceConfig", "scale"): (False, lambda env, v: _chains(env, diffguide.GuidanceConfig(env.oracle, 1, scale=v))),
    ("GuidanceConfig", "target_class"): (True, lambda env, v: _chains(env, diffguide.GuidanceConfig(env.oracle, v))),
    ("StabilizerConfig", "beta"): (False, lambda env, v: _stabilized(diffguide.StabilizerConfig("ema", beta=v))),
    ("StabilizerConfig", "beta1"): (False, lambda env, v: _stabilized(diffguide.StabilizerConfig("adam", beta1=v))),
    ("StabilizerConfig", "beta2"): (False, lambda env, v: _stabilized(diffguide.StabilizerConfig("adam", beta2=v))),
    ("StabilizerConfig", "eps"): (False, lambda env, v: _stabilized(diffguide.StabilizerConfig("adam", eps=v))),
    ("sample_batch", "n"): (True, lambda env, v: _chains(env, env.cfg, n=v)),
    ("sample_batch", "seed"): (True, lambda env, v: _chains(env, env.cfg, seed=v)),
    ("unconditional_batch", "seed"): (
        True, lambda env, v: _bits(diffguide.unconditional_batch(env.dn, env.dn.schedule, 2, v).samples)
    ),
    ("curve", "seed"): (True, _curve),
    ("evaluate", "seed"): (True, lambda env, v: [diffguide.evaluate(env.points, env.spec, 0, env.oracle, seed=v).to_json()]),
    ("sweep", "seed"): (True, _sweep),
}
_NUMBERS = st.one_of(st.integers(-3, 4), st.integers(-12, 16).map(lambda k: k / 4))  # quarters: fractions and whole floats
_SCALARS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=2),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    _NUMBERS,
    _NUMBERS.map(lambda v: np.int64(v) if type(v) is int else np.float64(v)),
    st.integers(-3, 4).map(np.int32),
)


def _outcome(env, call, v):
    """The call's result bits, or its ValueError's message; any other
    exception fails the test."""
    try:
        return call(env, v)
    except ValueError as err:
        return str(err)


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(sorted(_SCALAR_ARGS)), _SCALARS)
def test_every_public_scalar_argument_fails_closed(spec2, small_denoiser, h_oracle, entry_arg, v):
    # scale=True ran as scale 1, lr=True trained at lr 1 and beta=False ran
    # ema(0); a string or None raised a TypeError inside numpy, as did
    # linear_schedule(2.5, ...) and init_mlp([2, 2.5, 2]); make_spec ran a
    # True prior or weight as 1.0
    data = diffguide.sample_dataset(spec2, 8, 3)
    ema = diffguide.StabilizerConfig("ema", beta=0.9)
    env = types.SimpleNamespace(
        spec=spec2, dn=small_denoiser, oracle=h_oracle, points=data.points, labels=data.labels,
        cfg=diffguide.GuidanceConfig(h_oracle, 1, path="x0pred", stabilizer=ema),
    )
    integer, call = _SCALAR_ARGS[entry_arg]
    got = _outcome(env, call, v)
    number = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, (bool, np.bool_))
    if not number or not math.isfinite(v) or v < 0 or (integer and not isinstance(v, (int, np.integer))):
        assert isinstance(got, str), f"{entry_arg} = {v!r} ran"
    if isinstance(got, str):
        assert re.search(rf"\b{entry_arg[1]}\b", got), (entry_arg, v, got)
    if isinstance(v, np.generic) and number:
        want = _outcome(env, call, v.item())
        assert isinstance(got, str) == isinstance(want, str), (entry_arg, v)
        if not isinstance(got, str):
            assert got == want, f"{entry_arg} = {v!r} is not the Python number's result"
