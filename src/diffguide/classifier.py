"""One evaluation/gradient interface over three classifier personas.

non_robust wraps a network trained on clean data, robust wraps one trained on
forward-noised data, and bayes_oracle scores classes exactly from the known
mixture (logits are log joint densities, so its softmax is the true
posterior). The oracle is the unbiased judge for generated samples; the
trained personas are the guidance subjects.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .rng import check_index
from .synthdata import GmmSpec, _ordered_sum

_KINDS = ("non_robust", "robust", "bayes_oracle")
_CLEAN_ROW = np.zeros(1, dtype=np.intp)  # the one row of GmmSpec.clean_tables
_CLEAN_ROW.setflags(write=False)


@dataclass(frozen=True)
class ClassifierHandle:
    kind: str
    model: nn.MlpModel | None = None
    spec: GmmSpec | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if self.kind == "bayes_oracle" and self.spec is None:
            raise ValueError("a bayes_oracle handle needs a spec")
        if self.kind != "bayes_oracle" and self.model is None:
            raise ValueError(f"a {self.kind} handle needs a model")

    @property
    def n_classes(self) -> int:
        return self.spec.n_classes if self.kind == "bayes_oracle" else self.model.n_classes


def non_robust(model: nn.MlpModel) -> ClassifierHandle:
    return ClassifierHandle("non_robust", model=model)


def robust(model: nn.MlpModel) -> ClassifierHandle:
    return ClassifierHandle("robust", model=model)


def bayes_oracle(spec: GmmSpec) -> ClassifierHandle:
    return ClassifierHandle("bayes_oracle", spec=spec)


def predict_logits(h: ClassifierHandle, x) -> np.ndarray:
    """Class logits (n, C) at points x (n, d); oracle logits are log(prior * class density)."""
    if h.kind != "bayes_oracle":
        return nn.forward(h.model, x)
    with np.errstate(over="ignore", invalid="ignore"):  # far points: see _oracle_pass
        return np.ascontiguousarray(_oracle_pass(h, np.asarray(x, dtype=np.float64))[0].T)


def input_gradient(h: ClassifierHandle, x, y, objective: str = "log_softmax") -> np.ndarray:
    """Gradient (n, d) of the class-y objective at points x (n, d), for any
    persona; y is one class for every row or an array of one class per row."""
    if h.kind != "bayes_oracle":
        return nn.input_gradient(h.model, x, y, objective)
    if objective not in nn._OBJECTIVES:
        raise ValueError(f"objective must be one of {nn._OBJECTIVES}")
    X = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # far points: see _oracle_pass
        logits, grads, some_gone = _oracle_pass(h, X)  # (C, n), (C, d, n)
        check_index(y, h.n_classes, "y", rows=len(X))
        # gradient of the class-y logit (d, n): one class's row of the pass,
        # or a gather of each row's own class
        g = grads[int(y)] if np.ndim(y) == 0 else grads[np.asarray(y, dtype=np.int64), :, np.arange(len(X))].T
        if objective != "logit":
            peak = logits.max(axis=0)
            e = np.exp(logits - peak)
            p = e / _ordered_sum(e, axis=0)  # (C, n) class posteriors
            g = g - _ordered_sum(p[:, None] * grads, axis=0)
            if some_gone:
                g[:, peak == -np.inf] = 0.0  # no finite class logit: -inf - -inf gave NaN above
        return np.ascontiguousarray(g.T)  # a new (n, d) array on either objective


def _oracle_pass(h: ClassifierHandle, X: np.ndarray):
    """Oracle logits (C, n) and logit gradients (C, d, n) from one pass over
    the pooled components at clean data, and whether some class of some row
    is gone (see below). Class c's logit is the log-sum-exp,
    shifted by its own max so that far points do not underflow, of its
    components' log joints log(prior_c w_k N(x; mu_k, Sigma_k)); its gradient
    is their responsibility-weighted sum of component scores. Where every
    component of a class underflows (log joints all -inf, as at points
    beyond about 1e154), the class's logit is -inf and its gradient 0; the
    callers run it with overflow and invalid-value warnings off."""
    tb = h.spec.clean_tables
    proj, log_joint = tb.log_joint(X, _CLEAN_ROW)  # (1, d, K, n), (1, K, n)
    score, log_joint = tb.score(proj, _CLEAN_ROW)[0], log_joint[0]
    (n, d), C = X.shape, h.spec.n_classes
    peaks, logits, grads, lo = np.empty((C, n)), np.empty((C, n)), np.empty((C, d, n)), 0
    for c, cls in enumerate(h.spec.classes):
        hi = lo + len(cls.components)
        m = log_joint[lo:hi].max(axis=0, out=peaks[c])
        e = np.exp(log_joint[lo:hi] - m)
        total = _ordered_sum(e, axis=0)
        logits[c] = m + np.log(total)
        grads[c] = _ordered_sum(e / total * score[:, lo:hi], axis=1)
        lo = hi
    gone = peaks == -np.inf  # there -inf - -inf gave NaN above
    some_gone = bool(gone.any())
    if some_gone:
        logits[gone] = -np.inf
        grads.transpose(0, 2, 1)[gone] = 0.0
    return logits, grads, some_gone
