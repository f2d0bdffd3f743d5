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

from .schedule import Schedule
from .synthdata import ComponentTables, GmmSpec, _contract, _ordered_sum, _sum_of_products


class AnalyticDenoiser:
    """Closed-form posterior-mean denoiser for a pooled Gaussian mixture.

    Immutable after construction; all methods are pure and take a batch of
    points (n, d): a single point is a batch of one, x[None].
    """

    def __init__(self, spec: GmmSpec, schedule: Schedule):
        self.spec = spec
        self.schedule = schedule
        # one table row per step t = 0..T, like the schedule's
        self.tables = tb = ComponentTables(spec, schedule.alpha_bar)
        self.dim = tb.means.shape[1]
        # A_k = sqrt(ab) Sigma_k S_k^{-1}, the responsibility-weighted part of
        # the Jacobian, laid out (row, d, d, K, 1) like the tables
        vecs = tb.cov_eigvecs
        shrink = np.moveaxis(tb.shrink[..., 0], -1, 1)  # (rows, K, d)
        sa = schedule.sqrt_alpha_bar[:, None, None, None]
        A = sa * np.einsum("tkde,kfe->tkdf", vecs * shrink[:, :, None, :], vecs)
        self.A = np.ascontiguousarray(np.moveaxis(A, 1, -1)[..., None])

    # -- internal -----------------------------------------------------------

    def _bundle(self, X: np.ndarray, t, with_jacobian: bool = False):
        """Posterior mean E[x0 | X] (n, d) and, optionally, its Jacobian
        (n, d, d), at step t from one pass over the tables; t = 0 is clean
        data. A row's result does not depend on the rest of the batch.

        t may also be an integer array of s steps: X then stacks s groups of
        rows, step-major (group i is at step t[i]), and the results stack the
        same way. One step is a stack of one. Each step's tables are read
        once and broadcast over its group, so the stack equals s separate
        calls bit for bit."""
        self.schedule.check_steps(t)
        t = np.atleast_1d(t)
        if t.ndim != 1:
            raise ValueError(f"steps of shape {t.shape}: expected a 1-D array")
        tb = self.tables
        d = self.dim
        # (s, d, K, n) offsets and (s, K, n) log joints
        proj, log_r = tb.log_joint(X, t)
        r = np.exp(log_r - log_r.max(axis=-2, keepdims=True))
        r /= _ordered_sum(r, axis=-2)[..., None, :]  # responsibilities
        # component posterior means mu_k + sa * Sigma_k S_k^{-1} diff
        sa = self.schedule.sqrt_alpha_bar[t, None, None, None]
        comp_mean = tb.column_means + sa * _contract(tb.from_eigen, proj * tb.shrink[t])
        weighted = r[..., None, :, :] * comp_mean
        E = _ordered_sum(weighted, axis=-2)  # (s, d, n)
        E_rows = np.ascontiguousarray(E.swapaxes(-1, -2).reshape(-1, d))
        if not with_jacobian:
            return E_rows, None
        # gradient of each component's log marginal density: -S_k^{-1} diff
        dens_grad = tb.score(proj, t)
        J = _sum_of_products(self.A[t], r[..., None, None, :, :], axis=-2)  # (s, d, d, n)
        J += _sum_of_products(weighted[..., None, :, :], dens_grad[..., None, :, :, :], axis=-2)
        gbar = _sum_of_products(r[..., None, :, :], dens_grad, axis=-2)
        J -= E[..., None, :] * gbar[..., None, :, :]
        return E_rows, np.ascontiguousarray(J.swapaxes(-1, -2).swapaxes(-2, -3).reshape(-1, d, d))

    # -- public -------------------------------------------------------------

    def posterior_mean_x0(self, x_t, t: int) -> np.ndarray:
        """E[x0 | x_t] (n, d) under the pooled mixture, for points x_t (n, d)."""
        return self._bundle(np.asarray(x_t, dtype=np.float64), t)[0]
