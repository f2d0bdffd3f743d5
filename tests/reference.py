"""Independent references the tests compare pipeline output against.

None of these runs in the pipeline. Each is a separate, literal
implementation of a quantity the package computes another way: the implied
noise prediction and one-step reverse transition written from the DDPM
formulas with alpha_bar_t a plain running product over the schedule's
betas, a chain's noise drawn call by call and a raw-path guided chain run
a point at a time, single-pair sensitivity ratios and a sensitivity curve
walked one step at a time, class densities summed component by component,
the MLP logits and input gradient as a plain forward pass and
backprop per block with its own log-softmax, a training batch's loss and
parameter gradients the same way, training as a per-batch loop, and
classifier accuracy under forward noise, and CSV text written row by row
through csv.writer.
`guided_gradient` and `jacobian` are thin conveniences over the pipeline's
own posterior pass and gradient recipe, for tests that need one point at a
time.
"""

import csv

import numpy as np

from diffguide.classifier import ClassifierHandle, predict_logits
from diffguide.denoiser import AnalyticDenoiser
from diffguide.guidance import GuidanceConfig, guidance_gradient, init_stabilizer_state, stabilize
from diffguide.nn import MlpModel
from diffguide.rng import check_index, substream
from diffguide.schedule import Schedule, forward_sample
from diffguide.synthdata import GmmSpec, LabeledDataset


# -- pipeline conveniences -----------------------------------------------------


def _as_batch(x) -> tuple[np.ndarray, bool]:
    """x as an (n, d) float batch, and whether it was a single point (d,)."""
    x = np.asarray(x, dtype=np.float64)
    return (x[None], True) if x.ndim == 1 else (x, False)


def guided_gradient(
    dn: AnalyticDenoiser,
    h: ClassifierHandle,
    x_t,
    t: int,
    y,
    path: str = "raw",
    jacobian_mode: str = "full",
    objective: str = "log_softmax",
) -> np.ndarray:
    """The sampler's guidance gradient at a point (d,) or batch (n, d)."""
    cfg = GuidanceConfig(h, target_class=0, path=path, jacobian_mode=jacobian_mode, objective=objective)
    X, single = _as_batch(x_t)
    mean_x0, jac = dn._bundle(X, t, with_jacobian=cfg.needs_jacobian)
    g = guidance_gradient(cfg, dn, X, t, y, mean_x0, jac)
    return g[0] if single else g


def jacobian(dn: AnalyticDenoiser, x_t, t: int) -> np.ndarray:
    """d E[x0 | x_t] / d x_t from the posterior pass, (d, d) or (n, d, d)."""
    X, single = _as_batch(x_t)
    _, J = dn._bundle(X, t, with_jacobian=True)
    return J[0] if single else J


# -- schedule, denoiser and reverse step -------------------------------------------


def alpha_bar_product(schedule: Schedule, t: int) -> float:
    """alpha_bar_t = prod_{s<=t} (1 - beta_s), multiplied out one step at a
    time from the schedule's betas; 1 at t = 0 (clean data)."""
    if not 0 <= t <= schedule.T:
        raise ValueError(f"step index t={t} outside [0, {schedule.T}]")
    ab = 1.0
    for beta in schedule.betas[:t]:
        ab *= 1.0 - beta
    return float(ab)


def ddpm_reverse_terms(schedule: Schedule, t: int) -> tuple[float, float, float]:
    """The DDPM reverse transition at step t >= 1 (Ho et al. 2020, eq. 11):
    the x_t and eps coefficients of its mean (1/sqrt(alpha_t)) (x_t - beta_t /
    sqrt(1 - alpha_bar_t) eps), and its variance, beta_t, or beta_tilde_t =
    beta_t (1 - alpha_bar_{t-1}) / (1 - alpha_bar_t) with beta_tilde_1 = beta_1."""
    if not 1 <= t <= schedule.T:
        raise ValueError(f"step index t={t} outside [1, {schedule.T}]")
    beta = float(schedule.betas[t - 1])
    alpha = 1.0 - beta
    ab = alpha_bar_product(schedule, t)
    coeff_x = 1.0 / np.sqrt(alpha)
    coeff_eps = beta / (np.sqrt(alpha) * np.sqrt(1.0 - ab))
    if schedule.posterior_variance_mode == "beta_t" or t == 1:
        return coeff_x, coeff_eps, beta
    return coeff_x, coeff_eps, beta * (1.0 - alpha_bar_product(schedule, t - 1)) / (1.0 - ab)


def epsilon(dn: AnalyticDenoiser, x_t, t: int) -> np.ndarray:
    """Implied noise prediction (x_t - sqrt(ab_t) E[x0|x_t]) / sqrt(1 - ab_t)."""
    ab = alpha_bar_product(dn.schedule, t)
    if ab >= 1.0:
        raise ValueError(f"alpha_bar({t}) = 1: noise prediction undefined")
    X, single = _as_batch(x_t)
    e = (X - np.sqrt(ab) * dn.posterior_mean_x0(X, t)) / np.sqrt(1.0 - ab)
    return e[0] if single else e


def x0_prediction(dn: AnalyticDenoiser, x_t, t: int) -> np.ndarray:
    """One-step clean-data estimate x_t/sqrt(ab_t) - sqrt(1-ab_t)/sqrt(ab_t) * eps.

    Algebraically identical to posterior_mean_x0; kept as the literal
    rearrangement so the identity is testable.
    """
    ab = alpha_bar_product(dn.schedule, t)
    if ab >= 1.0:
        raise ValueError(f"alpha_bar({t}) = 1: prediction undefined")
    X, single = _as_batch(x_t)
    sa = np.sqrt(ab)
    out = X / sa - (np.sqrt(1.0 - ab) / sa) * epsilon(dn, X, t)
    return out[0] if single else out


def reverse_step(dn: AnalyticDenoiser, schedule: Schedule, x_t, t: int, rng) -> np.ndarray:
    """One unguided reverse transition; the final step t = 1 is noiseless."""
    x_t = np.asarray(x_t, dtype=np.float64)
    z = rng.standard_normal(x_t.shape) if t > 1 else np.zeros_like(x_t)
    coeff_x, coeff_eps, sigma_sq = ddpm_reverse_terms(schedule, t)
    return coeff_x * x_t - coeff_eps * epsilon(dn, x_t, t) + np.sqrt(sigma_sq) * z


def chain_noise(seed: int, chain: int, T: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A chain's start (d,) and its zs for t = T..2 (T - 1, d), drawn as two
    calls on its substream, the start first."""
    gen = substream(seed, "chain", chain)
    return gen.standard_normal(d), gen.standard_normal((T - 1, d))


def guided_chain(
    dn: AnalyticDenoiser,
    schedule: Schedule,
    h: ClassifierHandle,
    y: int,
    scale: float,
    seed: int,
    chain: int,
    objective: str,
) -> tuple[np.ndarray, int]:
    """One chain guided on the raw path with no stabilizer, a point at a
    time: the reverse transition, plus scale * variance * the gradient taken
    at the step's input. Stops at the first step t whose point is not all
    finite and returns (point, t); (final point, -1) when there is none."""
    gen = substream(seed, "chain", chain)
    x = gen.standard_normal(dn.dim)
    with np.errstate(all="ignore"):  # the walk may overflow on purpose
        for t in range(schedule.T, 0, -1):
            shift = scale * ddpm_reverse_terms(schedule, t)[2] * guided_gradient(dn, h, x, t, y, objective=objective)
            x = reverse_step(dn, schedule, x, t, gen) + shift
            if not all(np.isfinite(v) for v in x):
                return x, t
    return x, -1


# -- sensitivity -----------------------------------------------------------------


def coupled_pair(schedule: Schedule, x0, t: int, eps):
    """(x_t, x_{t-1}) noised from x0 with one shared eps.

    Sharing the noise makes the pair differ only through the schedule
    coefficients, so x_t is a strictly noisier sibling of x_{t-1}.
    """
    if t < 2:
        raise ValueError(f"coupled pair needs t >= 2, got t={t}")
    return forward_sample(schedule, x0, t, eps), forward_sample(schedule, x0, t - 1, eps)


def logit_sensitivity(h: ClassifierHandle, x_a, x_b) -> float:
    """Logit-change to input-change ratio; NaN when the inputs coincide."""
    x_a = np.asarray(x_a, dtype=np.float64)
    x_b = np.asarray(x_b, dtype=np.float64)
    den = float(np.linalg.norm(x_a - x_b))
    if den == 0.0:
        return float("nan")
    num = float(np.linalg.norm(predict_logits(h, x_a[None]) - predict_logits(h, x_b[None])))
    return num / den


def gradient_sensitivity(
    h: ClassifierHandle,
    dn: AnalyticDenoiser,
    x_t,
    x_tm1,
    t: int,
    y: int,
    path: str = "raw",
    jacobian_mode: str = "full",
    objective: str = "log_softmax",
) -> float:
    """Guidance-gradient-change to input-change ratio between steps t, t-1."""
    x_t = np.asarray(x_t, dtype=np.float64)
    x_tm1 = np.asarray(x_tm1, dtype=np.float64)
    den = float(np.linalg.norm(x_t - x_tm1))
    if den == 0.0:
        return float("nan")
    g_t = guided_gradient(dn, h, x_t, t, y, path, jacobian_mode, objective)
    g_tm1 = guided_gradient(dn, h, x_tm1, t - 1, y, path, jacobian_mode, objective)
    return float(np.linalg.norm(g_t - g_tm1)) / den


def sensitivity_walk(
    recipe: GuidanceConfig, dn: AnalyticDenoiser, points, labels, metric: str, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sensitivity curve's per-step mean, std and defined-pair count,
    t = 2..T, from a walk t = T..1 one step at a time: each step noises the
    points with the curve's one shared draw, makes its own posterior pass and
    logit or gradient call, updates the stabilizer, and files the ratios of
    its pair with the step before from two norms over that step's rows.
    Zero-distance pairs are NaN, and NaN ratios are left out of a step's
    mean and std."""
    schedule, T = dn.schedule, dn.schedule.T
    X0 = np.asarray(points, dtype=np.float64)
    ys = np.asarray(labels, dtype=np.int64)
    n, d = X0.shape
    eps = np.random.default_rng(seed).standard_normal((n, d))
    ratios = np.full((T - 1, n), np.nan)  # row i: the pair (x_{i+2}, x_{i+1})
    state = init_stabilizer_state((n, d))
    prev_f = prev_x = None
    for t in range(T, 0, -1):
        x = forward_sample(schedule, X0, t, eps)
        with_jacobian = metric != "logit" and recipe.needs_jacobian
        mean_x0, jac = dn._bundle(x, t, with_jacobian) if recipe.path == "x0pred" else (None, None)
        if metric == "logit":
            f = predict_logits(recipe.classifier, x if recipe.path == "raw" else mean_x0)
        else:
            f = guidance_gradient(recipe, dn, x, t, ys, mean_x0, jac)
        if metric == "stabilized_gradient":
            state, f = stabilize(state, recipe.stabilizer, f)
        if prev_f is not None:
            den = np.linalg.norm(prev_x - x, axis=1)
            ok = den > 0.0
            ratios[t - 1, ok] = np.linalg.norm(prev_f - f, axis=1)[ok] / den[ok]
        prev_f, prev_x = f, x
    count = np.sum(~np.isnan(ratios), axis=1)
    mean, std = np.full(T - 1, np.nan), np.full(T - 1, np.nan)
    some = count > 0
    mean[some] = np.nanmean(ratios[some], axis=1)
    std[some] = np.nanstd(ratios[some], axis=1)
    return mean, std, count


# -- mixture densities -------------------------------------------------------------


def log_class_density(spec: GmmSpec, y: int, x) -> np.ndarray | float:
    """log sum_k w_k N(x; mu_k, Sigma_k) for class y, stable for small values."""
    check_index(y, spec.n_classes, "y")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    comps = spec.classes[y].components
    logs = np.stack(
        [np.log(c.weight) + _log_gaussian(X, c.mean, c.cov) for c in comps], axis=1
    )
    out = _logsumexp(logs, axis=1)
    return float(out[0]) if single else out


def class_density(spec: GmmSpec, y: int, x) -> np.ndarray | float:
    return np.exp(log_class_density(spec, y, x))


def _log_gaussian(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = len(mean)
    vals, vecs = np.linalg.eigh(cov)
    diff = (X - mean) @ vecs
    quad = np.sum(diff * diff / vals, axis=1)
    logdet = np.sum(np.log(vals))
    return -0.5 * (quad + logdet + d * np.log(2.0 * np.pi))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, max-shifted, through np.max and np.sum."""
    m = np.max(logits, axis=-1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(a - m), axis=axis))


# -- classifiers and data files ----------------------------------------------------


_MLP_BLOCK = 128


def _mlp_pass(model: MlpModel, X: np.ndarray) -> tuple[list, list]:
    """A plain forward pass over the rows of X: every pre-activation z = a @ W
    + b and every layer's input, ending with the logits."""
    hidden = len(model.weights) - 1
    zs, acts = [], [X]
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ W + b
        zs.append(z)
        if i < hidden:
            acts.append(np.tanh(z) if model.activation == "tanh" else np.logaddexp(0.0, z))
        else:
            acts.append(z)
    return zs, acts


def _mlp_backprop(model: MlpModel, zs: list, acts: list, delta: np.ndarray) -> tuple[np.ndarray, list, list]:
    """A plain backprop of the output delta through W.T and the activation's
    derivative: the input gradient, and each layer's acts.T @ delta and
    column sum, first layer first."""
    dWs, dbs = [], []
    for i in range(len(model.weights) - 1, -1, -1):
        dWs.insert(0, acts[i].T @ delta)
        dbs.insert(0, np.sum(delta, axis=0))
        dx = delta @ model.weights[i].T
        if i > 0:
            if model.activation == "tanh":
                deriv = 1.0 - acts[i] * acts[i]
            else:
                deriv = 1.0 / (1.0 + np.exp(-zs[i - 1]))
            delta = dx * deriv
    return dx, dWs, dbs


def _mlp_blocks(X: np.ndarray):
    """(lo, m, block) per zero-padded 128-row block of X's rows."""
    n, d = X.shape
    for lo in range(0, n, _MLP_BLOCK):
        m = min(_MLP_BLOCK, n - lo)
        xb = np.zeros((_MLP_BLOCK, d))
        xb[:m] = X[lo : lo + m]
        yield lo, m, xb


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Logits (n, C) of a batch, one zero-padded 128-row block at a time
    through a plain forward pass, each product on exactly 128 rows."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = np.empty((len(X), model.n_classes))
    for lo, m, xb in _mlp_blocks(X):
        out[lo : lo + m] = _mlp_pass(model, xb)[1][-1][:m]
    return out


def mlp_input_gradient(model: MlpModel, x, y, objective: str = "log_softmax") -> np.ndarray:
    """Input gradient of the class-y objective, one zero-padded 128-row block
    at a time: a plain forward pass keeping every pre-activation and
    activation, then a plain backprop, each product on exactly 128 rows."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = X.shape
    ys = np.broadcast_to(np.asarray(y, dtype=np.int64), (n,))
    out = np.empty((n, d))
    for lo, m, xb in _mlp_blocks(X):
        zs, acts = _mlp_pass(model, xb)
        delta = np.zeros((_MLP_BLOCK, model.n_classes))
        delta[np.arange(m), ys[lo : lo + m]] = 1.0
        if objective == "log_softmax":
            delta = delta - np.exp(log_softmax(acts[-1]))
        out[lo : lo + m] = _mlp_backprop(model, zs, acts, delta)[0][:m]
    return out


def mlp_parameter_gradients(model: MlpModel, X: np.ndarray, ys: np.ndarray) -> tuple[float, list, list]:
    """Mean cross-entropy of a training batch as it is (no padding) and its
    weight and bias gradients, first layer first: a plain forward pass, this
    module's log_softmax, np.mean, then backprop through W.T and np.sum."""
    n = len(X)
    zs, acts = _mlp_pass(model, np.asarray(X, dtype=np.float64))
    ls = log_softmax(acts[-1])
    loss = -float(np.mean(ls[np.arange(n), ys]))
    delta = np.exp(ls)
    delta[np.arange(n), ys] -= 1.0
    _, dWs, dbs = _mlp_backprop(model, zs, acts, delta / n)
    return loss, dWs, dbs


def train_loop(
    model: MlpModel,
    X: np.ndarray,
    ys: np.ndarray,
    schedule: Schedule | None,
    epochs: int,
    batch_size: int,
    lr: float,
    seed: int,
) -> tuple[list, list, list]:
    """Training written as a per-batch loop: each batch gathers its rows by
    index, draws its steps and then its noise and noises itself with one
    forward_sample, takes mlp_parameter_gradients, then one Adam step per
    array in the pipeline's operation order. Returns the weights, the biases
    and the mean loss per epoch."""
    shuffle_rng, noise_rng = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step, losses = 0, []
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(X))
        epoch_losses = []
        for start in range(0, len(X), batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], ys[idx]
            if schedule is not None:
                t = noise_rng.integers(0, schedule.T + 1, size=len(idx))
                xb = forward_sample(schedule, xb, t, noise_rng.standard_normal(xb.shape))
            loss, dWs, dbs = mlp_parameter_gradients(MlpModel(tuple(weights), tuple(biases), model.activation), xb, yb)
            step += 1
            corr1, corr2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for p, g, mp, vp in zip(params, dWs + dbs, m, v):
                mp *= 0.9
                mp += (1.0 - 0.9) * g
                vp *= 0.999
                vp += (g * g) * (1.0 - 0.999)
                p -= ((mp / corr1) * lr) / (np.sqrt(vp / corr2) + 1e-8)
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
    return weights, biases, losses


def accuracy(
    h: ClassifierHandle,
    points: np.ndarray,
    labels: np.ndarray,
    preprocess: str = "none",
    *,
    t: int | None = None,
    schedule: Schedule | None = None,
    denoiser=None,
    seed: int = 0,
) -> float:
    """Fraction of argmax-correct predictions after optional preprocessing.

    preprocess "forward_noise" replaces each point by a freshly noised version
    at step t; "x0_pred" additionally maps the noised point back through the
    denoiser's one-step clean-data estimate before classifying.
    """
    X = np.asarray(points, dtype=np.float64)
    ys = np.asarray(labels, dtype=np.int64)
    if preprocess not in ("none", "forward_noise", "x0_pred"):
        raise ValueError(f"unknown preprocess {preprocess!r}")
    if preprocess != "none":
        if t is None or schedule is None:
            raise ValueError("noised preprocessing needs t and a schedule")
        rng = np.random.default_rng(seed)
        eps = rng.standard_normal(X.shape)
        ab = alpha_bar_product(schedule, t)
        X = np.sqrt(ab) * X + np.sqrt(1.0 - ab) * eps
        if preprocess == "x0_pred":
            if denoiser is None:
                raise ValueError("x0_pred preprocessing needs a denoiser")
            X = denoiser.posterior_mean_x0(X, t)
    pred = np.argmax(predict_logits(h, X), axis=1)
    return float(np.mean(pred == ys))


def load_dataset_csv(path, seed: int = -1) -> LabeledDataset:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        d = len(header) - 1
        points, labels = [], []
        for row in reader:
            points.append([float(v) for v in row[:d]])
            labels.append(int(row[d]))
    pts = np.asarray(points, dtype=np.float64)
    labs = np.asarray(labels, dtype=np.int64)
    pts.setflags(write=False)
    labs.setflags(write=False)
    return LabeledDataset(pts, labs, seed)


def write_csv_rows(path, header, rows, config_hash: str = "") -> None:
    """The artifact CSV written row by row: csv.writer with LF line endings,
    and each float cell as format(v, ".17g")."""
    with open(path, "w", newline="") as f:
        if config_hash:
            f.write(f"# config_hash: {config_hash}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)
