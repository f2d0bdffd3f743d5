"""Exact noise predictor for Gaussian-mixture data.

Under the forward marginal, a mixture component N(mu_k, Sigma_k) contributes
N(sqrt(ab_t) mu_k, ab_t Sigma_k + (1 - ab_t) I) at step t, writing ab_t for
the cumulative product alpha_bar_t. The conditional mean of the clean point
given the noisy one is therefore available in closed form:

    E[x0 | x_t] = sum_k r_k(x_t) (mu_k + sqrt(ab_t) Sigma_k S_k^{-1} (x_t - sqrt(ab_t) mu_k))

with S_k = ab_t Sigma_k + (1 - ab_t) I and responsibilities r_k proportional
to w_k N(x_t; sqrt(ab_t) mu_k, S_k). This plays the role of an optimally
trained denoising network, and because it is differentiable in closed form
the full input Jacobian is exact as well, which is what guidance through the
denoised prediction needs.

The mixture is pooled over classes (the denoiser is unconditional); class
information enters sampling only through the guiding classifier.
"""

import numpy as np

from . import classifier as clf
from .schedule import Schedule
from .synthdata import ComponentTables, GmmSpec, _contract, _ordered_sum, as_batch


class AnalyticDenoiser:
    """Closed-form posterior-mean denoiser for a pooled Gaussian mixture.

    Immutable after construction; all methods are pure and accept a single
    point (d,) or a batch (n, d).
    """

    def __init__(self, spec: GmmSpec, schedule: Schedule):
        self.spec = spec
        self.schedule = schedule
        # one table row per t = 0..T, row 0 being clean data (ab = 1)
        self.tables = tb = ComponentTables(spec, np.concatenate(([1.0], schedule.alpha_bars)))
        if abs(tb.weights.sum() - 1.0) > 1e-12:
            raise ValueError("pooled component weights must sum to 1")
        self.dim = tb.means.shape[1]

    # -- internal -----------------------------------------------------------

    def _bundle(self, X: np.ndarray, t: int, with_jacobian: bool = False):
        """Posterior mean E[x0 | X] (n, d) and, optionally, its Jacobian
        (n, d, d), at step t from one pass over the tables; t = 0 is clean
        data. A row's result does not depend on the rest of the batch."""
        if not 0 <= t <= self.schedule.T:
            raise ValueError(f"step index t={t} outside [0, {self.schedule.T}]")
        tb = self.tables
        proj, log_r = tb.log_joint(X, t)  # V_k^T diff (d, K, n), log joints (K, n)
        r = np.exp(log_r - np.max(log_r, axis=0))
        r /= _ordered_sum(r, axis=0)  # (K, n) responsibilities
        # component posterior means mu_k + sa * Sigma_k S_k^{-1} diff
        comp_mean = tb.column_means + tb.sqrt_ab[t] * _contract(tb.from_eigen, proj * tb.shrink[t])
        weighted = r * comp_mean
        E = _ordered_sum(weighted, axis=1)  # (d, n)
        if not with_jacobian:
            return np.ascontiguousarray(E.T), None
        # gradient of each component's log marginal density: -S_k^{-1} diff
        dens_grad = tb.score(proj, t)
        J = _ordered_sum(tb.A[t] * r, axis=2)  # (d, d, n)
        J += _ordered_sum(weighted[:, None] * dens_grad[None], axis=2)
        gbar = _ordered_sum(r * dens_grad, axis=1)
        J -= E[:, None] * gbar[None]
        return np.ascontiguousarray(E.T), np.ascontiguousarray(J.transpose(2, 0, 1))

    # -- public -------------------------------------------------------------

    def posterior_mean_x0(self, x_t, t: int) -> np.ndarray:
        """E[x0 | x_t] under the pooled mixture."""
        X, single = as_batch(x_t)
        out, _ = self._bundle(X, t)
        return out[0] if single else out

    def epsilon(self, x_t, t: int) -> np.ndarray:
        """Implied noise prediction (x_t - sqrt(ab_t) E[x0|x_t]) / sqrt(1 - ab_t)."""
        ab = self.schedule.alpha_bar(t)
        if ab >= 1.0:
            raise ValueError(f"alpha_bar({t}) = 1: noise prediction undefined")
        X, single = as_batch(x_t)
        e = (X - np.sqrt(ab) * self.posterior_mean_x0(X, t)) / np.sqrt(1.0 - ab)
        return e[0] if single else e

    def x0_prediction(self, x_t, t: int) -> np.ndarray:
        """One-step clean-data estimate x_t/sqrt(ab_t) - sqrt(1-ab_t)/sqrt(ab_t) * eps.

        Algebraically identical to posterior_mean_x0; kept as the literal
        rearrangement so the identity is testable.
        """
        ab = self.schedule.alpha_bar(t)
        if ab >= 1.0:
            raise ValueError(f"alpha_bar({t}) = 1: prediction undefined")
        X, single = as_batch(x_t)
        sa = np.sqrt(ab)
        out = X / sa - (np.sqrt(1.0 - ab) / sa) * self.epsilon(X, t)
        return out[0] if single else out

    def x0_jacobian(self, x_t, t: int, mode: str = "full") -> np.ndarray:
        """d x0_prediction / d x_t, shape (d, d) or (n, d, d).

        "full" differentiates the closed form, including the responsibility
        shifts between components; "stop_gradient" treats the noise prediction
        as a constant, leaving only the 1/sqrt(ab_t) rescaling.
        """
        if mode not in ("full", "stop_gradient"):
            raise ValueError("mode must be 'full' or 'stop_gradient'")
        X, single = as_batch(x_t)
        n = len(X)
        ab = self.schedule.alpha_bar(t)
        if mode == "stop_gradient":
            J = np.broadcast_to(np.eye(self.dim) / np.sqrt(ab), (n, self.dim, self.dim)).copy()
            return J[0] if single else J
        _, J = self._bundle(X, t, with_jacobian=True)
        return J[0] if single else J


def guided_log_prob_gradient(
    dn: AnalyticDenoiser,
    h: clf.ClassifierHandle,
    x_t,
    t: int,
    y,
    path: str = "raw",
    jacobian_mode: str = "full",
    objective: str = "log_softmax",
) -> np.ndarray:
    """Guidance gradient at a noisy point.

    path "raw" differentiates the classifier objective directly at x_t;
    "x0pred" evaluates it at the denoised estimate and pulls the gradient
    back through the denoiser Jacobian (or the stop-gradient rescaling),
    both from one posterior pass.
    """
    if path not in ("raw", "x0pred"):
        raise ValueError("path must be 'raw' or 'x0pred'")
    X, single = as_batch(x_t)
    mean_x0 = jac = None
    if path == "x0pred":
        if jacobian_mode not in ("full", "stop_gradient"):
            raise ValueError("mode must be 'full' or 'stop_gradient'")
        mean_x0, jac = dn._bundle(X, t, with_jacobian=jacobian_mode == "full")
    g = guidance_gradient(dn, h, X, t, y, mean_x0, jac, path, jacobian_mode, objective)
    return g[0] if single else g


def guidance_gradient(dn, h, X, t, y, mean_x0, jac, path, jacobian_mode, objective) -> np.ndarray:
    """Guidance gradient at the noisy batch X from its already-computed
    posterior pass (mean_x0, jac), as dn._bundle returns it; "raw" needs
    neither and "stop_gradient" no Jacobian."""
    if path == "raw":
        return clf.input_gradient(h, X, y, objective)
    v = clf.input_gradient(h, mean_x0, y, objective)
    if jacobian_mode == "stop_gradient":
        return v / dn.tables.sqrt_ab[t]
    return np.einsum("npq,np->nq", jac, v)
