"""The diffguide layer boundaries the traced run wraps, and the per-layer
metrics computed from one traced job.

Each boundary is a function a caller in another layer looks up. The
denoiser's boundary is ``AnalyticDenoiser._bundle``, which the sampler calls
directly and ``posterior_mean_x0`` and ``x0_jacobian`` call underneath, so
one span counts one posterior pass whichever way it was reached.
"""

from bench_trace import Boundary, self_times


def _is_oracle(args, kwargs) -> bool:
    return args[0].kind == "bayes_oracle"


def _posterior_counts(args, kwargs) -> dict:
    with_jacobian = args[3] if len(args) > 3 else kwargs.get("with_jacobian", False)
    return {"denoiser.posterior.rows": len(args[1]), "denoiser.posterior.jacobian_calls": int(bool(with_jacobian))}


def _input_rows(args, kwargs) -> dict:
    x = args[1]
    return {"nn.input_gradient.rows": len(x) if getattr(x, "ndim", 1) == 2 else 1}


BOUNDARIES = [
    Boundary("diffguide.cli", "main", "cli"),
    Boundary("diffguide.synthdata", "sample_dataset", "synthdata.sample"),
    Boundary("diffguide.synthdata", "sample_class_points", "synthdata.sample"),
    Boundary("diffguide.denoiser", "AnalyticDenoiser._bundle", "denoiser.posterior", count=_posterior_counts),
    Boundary("diffguide.nn", "input_gradient", "nn.input_gradient", count=_input_rows),
    Boundary("diffguide.nn", "_parameter_gradients", "nn.param_grad"),
    Boundary("diffguide.nn", "train", "nn.train"),
    Boundary("diffguide.classifier", "predict_logits", "classifier.oracle", when=_is_oracle),
    # every guidance gradient, whatever the persona, goes through here
    Boundary(
        "diffguide.classifier",
        "input_gradient",
        "classifier.oracle",
        when=_is_oracle,
        count=lambda args, kwargs: {"classifier.gradients": 1},
    ),
    Boundary(
        "diffguide.guidance",
        "_pregenerate_noise",
        "guidance.noise",
        count=lambda args, kwargs: {"guidance.noise.substreams": len(args[0])},
    ),
    Boundary("diffguide.guidance", "_run_chains", "guidance.step"),
    Boundary("diffguide.guidance", "stabilize", "guidance.stabilize"),
    Boundary("diffguide.sensitivity", "curve", "sensitivity.curve"),
    Boundary("diffguide.metrics", "evaluate", "metrics.evaluate"),
    Boundary("diffguide.metrics", "frechet_distance", "metrics.frechet"),
    Boundary("numpy", "einsum", None, count=lambda args, kwargs: {"numpy.einsum.calls": 1}),
    Boundary(
        "numpy.linalg",
        "eigh",
        None,
        count=lambda args, kwargs: {"classifier.oracle.eigh_calls": 1},
        within="classifier.oracle",
    ),
]

_COUNTS = [
    "denoiser.posterior.calls",
    "denoiser.posterior.rows",
    "denoiser.posterior.jacobian_calls",
    "numpy.einsum.calls",
    "nn.input_gradient.calls",
    "nn.input_gradient.rows",
    "nn.param_grad.calls",
    "classifier.oracle.calls",
    "classifier.oracle.eigh_calls",
    "guidance.noise.substreams",
    "guidance.stabilize.calls",
    "metrics.evaluate.calls",
    "metrics.frechet.calls",
]

_SELF_TIMES = [
    "denoiser.posterior",
    "nn.input_gradient",
    "nn.param_grad",
    "nn.train",
    "classifier.oracle",
    "guidance.noise",
    "guidance.step",
    "guidance.stabilize",
    "sensitivity.curve",
    "metrics.evaluate",
    "metrics.frechet",
    "synthdata.sample",
    "cli",
]


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced job; layers that did not run read 0."""
    own = self_times(spans)
    out = {name: float(counts.get(name, 0)) for name in _COUNTS}
    for layer in _SELF_TIMES:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    posterior_s = out["denoiser.posterior.self_s"]
    out["denoiser.posterior.rows_per_s"] = out["denoiser.posterior.rows"] / posterior_s if posterior_s > 0 else 0.0
    gradients = counts.get("classifier.gradients", 0)
    out["denoiser.posterior.passes_per_gradient"] = (
        out["denoiser.posterior.calls"] / gradients if gradients else 0.0
    )
    return out
