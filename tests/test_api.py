import re
import types

import numpy as np
import pytest

import diffguide

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
