import types

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
