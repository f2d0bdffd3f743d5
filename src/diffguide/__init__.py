"""Desk-scale laboratory for diffusion classifier guidance on Gaussian
mixtures with exactly known structure: analytic denoiser, hand-written
classifier gradients, guidance stabilizers, and exact evaluation metrics."""

from .schedule import (
    Schedule,
    schedule_from_betas,
    linear_schedule,
    forward_sample,
    coupled_pair,
    reverse_coefficients,
)
from .synthdata import (
    GmmSpec,
    LabeledDataset,
    make_spec,
    two_class_benchmark,
    three_class_benchmark,
    sample_dataset,
    class_density,
    log_class_density,
)
from .nn import MlpModel, init_mlp, forward, log_softmax_target, input_gradient, train
from .classifier import ClassifierHandle, non_robust, robust, bayes_oracle, predict_logits, accuracy
from .denoiser import AnalyticDenoiser, guided_log_prob_gradient
from .sensitivity import SensitivityCurve, logit_sensitivity, gradient_sensitivity, curve
from .guidance import (
    StabilizerConfig,
    StabilizerState,
    GuidanceConfig,
    stabilize,
    reverse_step,
    sample_batch,
    unconditional_batch,
)
from .metrics import MetricsReport, frechet_distance, gaussian_frechet, evaluate, sweep

__version__ = "0.1.0"
