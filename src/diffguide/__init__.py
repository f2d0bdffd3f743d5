"""Desk-scale laboratory for diffusion classifier guidance on Gaussian
mixtures with exactly known structure: analytic denoiser, hand-written
classifier gradients, guidance stabilizers, and exact evaluation metrics."""

from .schedule import linear_schedule
from .synthdata import make_spec, two_class_benchmark, three_class_benchmark, sample_dataset
from .nn import init_mlp, train
from .classifier import non_robust, robust, bayes_oracle
from .denoiser import AnalyticDenoiser
from .guidance import StabilizerConfig, GuidanceConfig, stabilize, sample_batch, unconditional_batch
from .sensitivity import curve
from .metrics import evaluate, sweep

__version__ = "0.1.0"
