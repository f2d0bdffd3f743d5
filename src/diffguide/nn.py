"""Small feed-forward classifier with explicit forward and backward passes.

The network exposes two gradient paths: parameter gradients for training and
input gradients for guidance. Both are hand-written reverse-mode passes over
the same stored activations, so the input gradient is exact (verified against
finite differences in the test suite), not an autodiff black box.

Hidden layers use a smooth activation (tanh by default) so input gradients
vary continuously; the output layer is affine.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

from .rng import check_index, check_integer, check_number
from .schedule import Schedule, forward_sample
from .synthdata import check_points

_ACTIVATIONS = ("tanh", "softplus")
_OBJECTIVES = ("log_softmax", "logit")
# Adam moment decays and denominator offset used by train
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# inference: rows per matrix product, and blocks per stacked call
_BLOCK, _CHUNK = 128, 2


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


def _read_only(arrays) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return tuple(arrays)


@dataclass(frozen=True)
class MlpModel:
    """An immutable MLP: init_mlp, train and load_checkpoint return models
    whose weights and biases are read-only, so the Wᵀ copies and bias tiles
    cached on first use stay equal to them. Training's working model is views
    into its changing parameters and never reads weights_t or bias_blocks."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")

    @functools.cached_property
    def weights_t(self) -> tuple[np.ndarray, ...]:
        """A read-only C-contiguous copy of each Wᵀ, for input backprop."""
        return _read_only([np.ascontiguousarray(w.T) for w in self.weights])

    @functools.cached_property
    def bias_blocks(self) -> tuple[np.ndarray, ...]:
        """A read-only (_BLOCK, width) tile of each bias, whose add over a
        stack of blocks is one contiguous pass per block, not one per row."""
        return _read_only([np.tile(b, (_BLOCK, 1)) for b in self.biases])

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[1]


def init_mlp(layer_sizes: list[int], activation: str = "tanh", seed: int = 0) -> MlpModel:
    """Symmetric uniform init scaled by 1/sqrt(fan_in); deterministic in seed."""
    check_integer(seed, "seed")
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    for i, size in enumerate(layer_sizes):
        check_integer(size, f"layer_sizes[{i}]", 1)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpModel(_read_only(weights), _read_only(biases), activation)


def _forward_cached(model: MlpModel, X: np.ndarray, biases):
    """Forward pass keeping what backprop reads: each layer's input (acts,
    ending with the logits) and, for softplus only, the hidden
    pre-activations, which its derivative reads. Each product's buffer takes
    the bias (model.biases, or the bias_blocks tiles for stacks of _BLOCK-row
    blocks) and, for tanh, the activation in place."""
    pre, acts = [], [X]
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, biases)):
        z = np.matmul(acts[-1], W)
        z += b
        if i < last:
            if model.activation == "tanh":
                np.tanh(z, out=z)
            else:
                pre.append(z)
                z = np.logaddexp(0.0, z)
        acts.append(z)
    return pre, acts


def _derivative_in_place(model: MlpModel, pre, acts, i: int) -> np.ndarray:
    """Overwrite the hidden activation acts[i] with the activation's
    derivative there: 1 - a*a for tanh, sigmoid(z) = 1 / (1 + exp(-z)) for
    softplus. Backprop reads acts[i] for nothing else after this."""
    g = acts[i]
    if model.activation == "tanh":
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
    else:
        np.negative(pre[i - 1], out=g)
        np.exp(g, out=g)
        g += 1.0
        np.divide(1.0, g, out=g)
    return g


def _block_passes(model: MlpModel, X: np.ndarray):
    """Yield (rows, pre, acts) per chunk of _CHUNK blocks: the chunk's rows
    of X (n, d) zero-padded to whole _BLOCK-row blocks, and its cached pass.
    Every product sees exactly _BLOCK rows, so a row's logits and gradients
    do not depend on the batch (BLAS results depend on the row count)."""
    n, d = X.shape
    blocks = np.concatenate([X, np.zeros((-n % _BLOCK, d))]).reshape(-1, _BLOCK, d)
    for lo in range(0, len(blocks), _CHUNK):
        yield slice(lo * _BLOCK, (lo + _CHUNK) * _BLOCK), *_forward_cached(model, blocks[lo : lo + _CHUNK], model.bias_blocks)


def forward(model: MlpModel, x) -> np.ndarray:
    """Logits (n, C) for a batch of points (n, d)."""
    X = check_points(x, model.input_dim)
    logits = np.empty((len(X) + (-len(X) % _BLOCK), model.n_classes))
    for rows, _, acts in _block_passes(model, X):
        logits[rows] = acts[-1].reshape(-1, model.n_classes)
    return logits[: len(X)]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Class-major log-probabilities (C, rows) of logits (..., C), max-shifted.
    The max and the sum run over axis 0, a few passes over whole rows rather
    than a C-element loop per row, and add the classes in index order."""
    ls = logits.reshape(-1, logits.shape[-1]).T.copy()
    ls -= np.maximum.reduce(ls, axis=0)
    ls -= np.log(np.add.reduce(np.exp(ls), axis=0))
    return ls


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    return _log_softmax(logits).T.reshape(logits.shape)


def log_softmax_target(logits, y) -> np.ndarray:
    """log p(y) (n,) under the softmax of logits (n, C), max-shifted for
    stability; y is one class, or one per row."""
    ls = log_softmax(logits)
    if ls.ndim != 2:
        raise ValueError(f"logits of shape {ls.shape}: expected (n, C)")
    check_index(y, ls.shape[1], "y", rows=len(ls))
    return np.take_along_axis(ls, np.asarray(y).reshape(-1, 1), axis=1)[:, 0]


def input_gradient(model: MlpModel, x, y, objective: str = "log_softmax") -> np.ndarray:
    """Gradient of the target-class objective with respect to the input.

    objective "log_softmax" differentiates log p(y | x); "logit" differentiates
    the raw class-y logit. x is (n, d), and y one class or one per row.

    Backprop runs over _block_passes' chunks in place: a hidden layer's
    product buffer takes its bias, its activation, then its derivative. The
    output delta is formed class-major and copied back to rows.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}")
    X = check_points(x, model.input_dim)
    check_index(y, model.n_classes, "y", rows=len(X))
    n, d = X.shape
    padded = n + (-n % _BLOCK)
    onehot = np.zeros((model.n_classes, padded))  # class-major; padding rows' gradients are dropped
    onehot[np.asarray(y, dtype=np.int64), np.arange(n)] = 1.0
    grad = np.empty((padded, d))
    weights_t = model.weights_t
    for rows, pre, acts in _block_passes(model, X):
        delta = onehot[:, rows]
        if objective == "log_softmax":
            ls = _log_softmax(acts[-1])
            delta = np.subtract(delta, np.exp(ls, out=ls), out=ls)
        delta = np.ascontiguousarray(delta.T).reshape(acts[-1].shape)
        for i in range(len(weights_t) - 1, 0, -1):
            delta = np.matmul(delta, weights_t[i])
            delta *= _derivative_in_place(model, pre, acts, i)
        np.matmul(delta, weights_t[0], out=grad[rows].reshape(-1, _BLOCK, d))
    return grad[:n]


def _parameter_gradients(model: MlpModel, X: np.ndarray, ys: np.ndarray, dWs, dbs) -> float:
    """Mean cross-entropy loss over a batch; its parameter gradients are
    written into dWs and dbs, arrays shaped like the weights and biases."""
    pre, acts = _forward_cached(model, X, model.biases)
    n = len(X)
    target = (ys, np.arange(n))
    ls = _log_softmax(acts[-1])
    loss = -float(np.add.reduce(ls[target]) / n)  # np.mean's sum and divide
    delta = np.exp(ls, out=ls)
    delta[target] -= 1.0
    delta /= n
    delta = np.ascontiguousarray(delta.T)
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=dWs[i])
        np.add.reduce(delta, axis=0, out=dbs[i])
        if i > 0:
            delta = np.matmul(delta, model.weights[i].T)
            delta *= _derivative_in_place(model, pre, acts, i)
    return loss


def _flat_views(flat: np.ndarray, model: MlpModel):
    """Views of a flat vector shaped like model's weights, then its biases."""
    views, lo = [], 0
    for p in model.weights + model.biases:
        views.append(flat[lo : lo + p.size].reshape(p.shape))
        lo += p.size
    k = len(model.weights)
    return tuple(views[:k]), tuple(views[k:])


@dataclass
class TrainResult:
    model: MlpModel
    losses: np.ndarray  # mean training loss per epoch


def train(
    model: MlpModel,
    points: np.ndarray,
    labels: np.ndarray,
    *,
    schedule: Schedule | None = None,
    epochs: int = 50,
    batch_size: int = 128,
    lr: float = 0.01,
    seed: int = 0,
) -> TrainResult:
    """Minibatch cross-entropy training with bias-corrected adaptive moments.

    Without a schedule it trains on the clean points. With one, every batch
    point is replaced by its forward-noised version at an independently drawn
    step t ~ U{0..T} (t = 0 leaves the point clean), which is what makes the
    resulting classifier robust to diffusion noise. The noise draws come from
    their own seeded stream, so a clean run and a noised run share the same
    shuffling sequence.
    """
    X = check_points(points, model.input_dim)
    check_index(labels, model.n_classes, "label")
    ys = np.asarray(labels, dtype=np.int64)
    if ys.shape != (len(X),):
        raise ValueError("points and labels disagree in length")
    check_number(lr, "lr")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")
    check_integer(epochs, "epochs")
    check_integer(batch_size, "batch_size", 1)
    check_integer(seed, "seed")

    shuffle_rng, noise_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    # parameters, gradients and Adam moments are flat vectors, so one update
    # is a few in-place passes; weights and biases are views into them
    params = np.concatenate([p.ravel() for p in model.weights + model.biases])
    current = MlpModel(*_flat_views(params, model), model.activation)
    grads = np.empty_like(params)
    dWs, dbs = _flat_views(grads, model)
    m, v, num, den = (np.zeros_like(params) for _ in range(4))
    step = 0
    losses = []

    for _ in range(epochs):
        order = shuffle_rng.permutation(len(X))
        epoch_losses = []
        for start in range(0, len(X), batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], ys[idx]
            if schedule is not None:
                t = noise_rng.integers(0, schedule.T + 1, size=len(idx))
                xb = forward_sample(schedule, xb, t, noise_rng.standard_normal(xb.shape))
            loss = _parameter_gradients(current, xb, yb, dWs, dbs)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at step {step}; lower the learning rate"
                )
            step += 1
            corr1 = 1.0 - _BETA1**step
            corr2 = 1.0 - _BETA2**step
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g**2 and
            # w -= lr (m / corr1) / (sqrt(v / corr2) + eps), operation for operation
            m *= _BETA1
            np.multiply(1.0 - _BETA1, grads, out=num)
            m += num
            v *= _BETA2
            np.multiply(grads, grads, out=den)
            den *= 1.0 - _BETA2
            v += den
            np.divide(m, corr1, out=num)
            num *= lr
            np.divide(v, corr2, out=den)
            np.sqrt(den, out=den)
            den += _ADAM_EPS
            num /= den
            params -= num
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))

    trained = MlpModel(
        _read_only([w.copy() for w in current.weights]), _read_only([b.copy() for b in current.biases]), model.activation
    )
    if not all(np.all(np.isfinite(w)) for w in trained.weights):
        raise TrainingDiverged("non-finite parameters after training")
    return TrainResult(trained, np.asarray(losses))


def save_checkpoint(model: MlpModel, path) -> None:
    """JSON checkpoint; floats written with 17 significant digits so the
    decimal form round-trips exactly."""
    doc = {
        "layer_sizes": model.layer_sizes,
        "activation": model.activation,
        "weights": [[format(v, ".17g") for v in w.ravel().tolist()] for w in model.weights],
        "biases": [[format(v, ".17g") for v in b.tolist()] for b in model.biases],
    }
    text = json.dumps(doc)  # one call to the C encoder; json.dump writes chunk by chunk
    with open(path, "w") as f:
        f.write(text)


def load_checkpoint(path) -> MlpModel:
    """The model save_checkpoint wrote to path. A missing field, a parameter
    whose size disagrees with layer_sizes or an unknown activation raises
    ValueError naming the file."""
    with open(path) as f:
        doc = json.load(f)
    try:
        sizes = doc["layer_sizes"]
        shapes = list(zip(sizes[:-1], sizes[1:]))
        if not shapes or not len(doc["weights"]) == len(doc["biases"]) == len(shapes):
            raise ValueError(f"layer_sizes {sizes} do not fit the weight and bias lists")
        weights = [np.array([float(v) for v in w]).reshape(shape) for w, shape in zip(doc["weights"], shapes)]
        biases = [np.array([float(v) for v in b]).reshape(shape[1]) for b, shape in zip(doc["biases"], shapes)]
        return MlpModel(_read_only(weights), _read_only(biases), doc["activation"])
    except KeyError as e:
        raise ValueError(f"checkpoint {path} lacks the field {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"checkpoint {path}: {e}") from e
