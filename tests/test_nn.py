import re

import numpy as np
import pytest

from diffguide.nn import (
    _BLOCK,
    MlpModel,
    TrainingDiverged,
    _parameter_gradients,
    forward,
    init_mlp,
    input_gradient,
    load_checkpoint,
    log_softmax,
    log_softmax_target,
    save_checkpoint,
    train,
)
from diffguide.schedule import schedule_from_betas

from reference import accuracy, mlp_forward, mlp_input_gradient, mlp_parameter_gradients, train_loop


def _zero_model(sizes):
    ws = tuple(np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:]))
    bs = tuple(np.zeros(b) for b in sizes[1:])
    return MlpModel(ws, bs)


def test_zero_model_zero_logits():
    m = _zero_model([3, 8, 2])
    assert np.array_equal(forward(m, np.array([[1.0, -2.0, 0.5]])), np.zeros((1, 2)))


def test_single_linear_layer_is_affine():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((3, 2))
    b = rng.standard_normal(2)
    m = MlpModel((W,), (b,))
    x = rng.standard_normal(3)
    np.testing.assert_allclose(forward(m, x[None])[0], x @ W + b, rtol=0, atol=0)


def test_forward_duplicate_evaluation_oracle():
    # independent re-implementation of the same arithmetic
    rng = np.random.default_rng(7)
    m = init_mlp([4, 5, 3], seed=11)
    x = rng.standard_normal(4)
    a = x.copy()
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        z = np.array([sum(a[j] * W[j, k] for j in range(len(a))) + b[k] for k in range(W.shape[1])])
        a = np.tanh(z) if i < len(m.weights) - 1 else z
    np.testing.assert_allclose(forward(m, x[None])[0], a, rtol=1e-12)


def test_forward_batch_matches_single():
    m = init_mlp([2, 16, 3], seed=5)
    X = np.random.default_rng(1).standard_normal((10, 2))
    batch = forward(m, X)
    for i in range(10):
        assert np.array_equal(batch[i], forward(m, X[i][None])[0])


def test_forward_dimension_check():
    m = init_mlp([2, 4, 2], seed=0)
    with pytest.raises(ValueError, match=r"points of shape \(1, 3\): expected \(n, 2\)"):
        forward(m, np.zeros((1, 3)))
    # the input gradient runs the same check and rejects with the same message
    for x in (np.zeros((1, 3)), np.zeros((5, 3))):
        with pytest.raises(ValueError, match=rf"points of shape \({len(x)}, 3\): expected \(n, 2\)"):
            input_gradient(m, x, 0)


def test_log_softmax_target_values():
    assert log_softmax_target(np.array([[0.0, 0.0]]), 0)[0] == pytest.approx(np.log(0.5), abs=1e-12)
    assert log_softmax_target(np.array([[1000.0, 0.0]]), 0)[0] == pytest.approx(0.0, abs=1e-12)
    want = -np.log(1.0 + np.exp(-1.0) + np.exp(-2.0))
    got = log_softmax_target(np.array([[1.0, 2.0, 3.0]]), 2)[0]
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(-0.4076059, abs=1e-7)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 3)], ids=["one-row", "three-axes"])
def test_log_softmax_target_refuses_logits_that_are_not_rows(shape):
    # a (C,) row was once read as one point's logits
    with pytest.raises(ValueError, match=rf"logits of shape {re.escape(str(shape))}: expected \(n, C\)"):
        log_softmax_target(np.zeros(shape), 0)


def test_log_softmax_target_reads_each_rows_label():
    logits = np.random.default_rng(4).standard_normal((5, 3)) * 10
    y = np.array([2, 0, 1, 1, 0])
    want = log_softmax(logits)[np.arange(5), y]
    assert log_softmax_target(logits, y).tobytes() == want.tobytes()
    assert log_softmax_target(logits, 1).tobytes() == log_softmax(logits)[:, 1].tobytes()


@pytest.mark.parametrize(
    "y, message",
    [
        ([0, -1, 1], r"^y -1 outside \[0, 2\)$"),
        ([0, 2, 1], r"^y 2 outside \[0, 2\)$"),
        (2, r"^y 2 outside \[0, 2\)$"),
        ([0.0, 1.0, 1.0], r"^y must be an integer in \[0, 2\), got float64 of shape \(3,\)$"),
        ([True, False, True], r"^y must be an integer in \[0, 2\), got bool of shape \(3,\)$"),
        ([0, 1], r"^y of shape \(2,\): expected one value, or 3 values, one per row$"),
    ],
    ids=["negative", "too-large", "too-large-scalar", "float", "bool", "wrong-length"],
)
def test_log_softmax_target_refuses_labels_outside_the_classes(y, message):
    # a -1 read the last class; the rest raised numpy's IndexError
    with pytest.raises(ValueError, match=message):
        log_softmax_target(np.zeros((3, 2)), y)


def test_log_softmax_is_normalized():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((40, 5)) * 30
    ls = log_softmax(logits)
    assert np.all(ls <= 0)
    np.testing.assert_allclose(np.exp(ls).sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_input_gradient_linear_closed_form():
    # two-class affine model: grad log p(y|x) = (1 - p_y) (W_y - W_other)
    rng = np.random.default_rng(2)
    W = rng.standard_normal((3, 2))
    b = rng.standard_normal(2)
    m = MlpModel((W,), (b,))
    x = rng.standard_normal((1, 3))
    logits = forward(m, x)[0]
    p = np.exp(log_softmax(logits))
    for y in (0, 1):
        want = (1.0 - p[y]) * (W[:, y] - W[:, 1 - y])
        np.testing.assert_allclose(input_gradient(m, x, y)[0], want, rtol=1e-12)
    # at a logit tie the posterior is 1/2
    m_tie = MlpModel((W,), (np.zeros(2),))
    x_tie = np.zeros((1, 3))
    np.testing.assert_allclose(
        input_gradient(m_tie, x_tie, 0)[0], 0.5 * (W[:, 0] - W[:, 1]), rtol=1e-12
    )


def test_input_gradient_zero_model():
    m = _zero_model([4, 6, 3])
    assert np.array_equal(input_gradient(m, np.ones((1, 4)), 1), np.zeros((1, 4)))


def _fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("activation", ["tanh", "softplus"])
def test_input_gradient_finite_differences(activation):
    # >= 100 random (model, x, y) cases, relative error <= 1e-6
    rng = np.random.default_rng(12)
    for case in range(100):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 9)), int(rng.integers(2, 4))]
        m = init_mlp(sizes, activation, seed=int(rng.integers(1 << 31)))
        x = rng.standard_normal(sizes[0])
        y = int(rng.integers(sizes[-1]))
        g = input_gradient(m, x[None], y)[0]
        g_fd = _fd_gradient(lambda v: log_softmax_target(forward(m, v[None]), y)[0], x)
        err = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
        assert err <= 1e-6, f"case {case}: rel err {err}"


def test_input_gradient_logit_objective():
    rng = np.random.default_rng(4)
    m = init_mlp([3, 7, 2], seed=9)
    x = rng.standard_normal(3)
    g = input_gradient(m, x[None], 1, objective="logit")[0]
    g_fd = _fd_gradient(lambda v: forward(m, v[None])[0, 1], x)
    assert np.linalg.norm(g - g_fd) <= 1e-8 * max(1.0, np.linalg.norm(g_fd))
    with pytest.raises(ValueError):
        input_gradient(m, x[None], 1, objective="score")


def test_input_gradient_batch_matches_single():
    m = init_mlp([2, 8, 2], seed=6)
    X = np.random.default_rng(8).standard_normal((7, 2))
    ys = np.array([0, 1, 1, 0, 1, 0, 0])
    batch = input_gradient(m, X, ys)
    for i in range(7):
        np.testing.assert_allclose(batch[i], input_gradient(m, X[i][None], ys[i])[0], atol=1e-14)


@pytest.mark.parametrize(
    "objective, activation",
    [("log_softmax", "tanh"), ("logit", "tanh"), ("forward", "tanh"), ("forward", "softplus")],
    ids=["log_softmax", "logit", "forward-tanh", "forward-softplus"],
)
def test_input_gradient_rows_are_subset_invariant(objective, activation):
    # a row's gradient, or with "forward" its logits, is the same bits in
    # any batch that holds it: whole, in shards of any size, reordered, or alone
    rng = np.random.default_rng(14)
    m = init_mlp([2, 64, 64, 2], activation, seed=15)
    X = rng.standard_normal((1000, 2)) * 2.0
    ys = rng.integers(0, 2, 1000)

    def rows(idx):
        return forward(m, X[idx]) if objective == "forward" else input_gradient(m, X[idx], ys[idx], objective)

    whole = rows(slice(None))
    for size in (1, 7, 64, 128, 250, 333):
        shards = [rows(slice(i, i + size)) for i in range(0, 1000, size)]
        assert np.array_equal(np.concatenate(shards), whole), size
    subset = rng.permutation(1000)[:300]
    assert np.array_equal(rows(subset), whole[subset])
    assert np.array_equal(rows([17]), whole[[17]])


# the class-major log-softmax sums fewer than 8 classes in the same order as
# a plain last-axis sum, so these shapes keep every bit; a case's id is its
# arguments, plus the input and class counts for the 3-class shapes
_REFERENCE_SIZES = {"": [2, 64, 64, 2], "-2-3": [2, 64, 64, 3], "-3-3": [3, 64, 64, 3]}


def _on_reference_sizes(cases):
    return [pytest.param(*case, sizes, id="-".join(case) + tag) for case in cases for tag, sizes in _REFERENCE_SIZES.items()]


@pytest.mark.parametrize(
    "objective, activation, sizes",
    _on_reference_sizes([(o, a) for o in ("log_softmax", "logit") for a in ("tanh", "softplus")]),
)
def test_input_gradient_equals_per_block_reference(objective, activation, sizes):
    # the in-place stacked pass keeps every bit of a plain per-block pass
    rng = np.random.default_rng(31)
    m = init_mlp(sizes, activation, seed=32)
    for n in (1, 128, 250, 1000, 16000):
        X = rng.standard_normal((n, sizes[0])) * 2.0
        ys = rng.integers(0, sizes[-1], n)
        assert np.array_equal(input_gradient(m, X, ys, objective), mlp_input_gradient(m, X, ys, objective)), n


@pytest.mark.parametrize("activation, sizes", _on_reference_sizes([("tanh",), ("softplus",)]))
def test_forward_equals_per_block_reference(activation, sizes):
    # the stacked pass with cached bias tiles keeps every bit of a plain
    # per-block pass that adds the 1-D bias
    rng = np.random.default_rng(33)
    m = init_mlp(sizes, activation, seed=34)
    for n in (1, 128, 250, 1000):
        X = rng.standard_normal((n, sizes[0])) * 2.0
        assert np.array_equal(forward(m, X), mlp_forward(m, X)), n


@pytest.mark.parametrize("activation", ["tanh", "softplus"])
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("batch", [128, 32], ids=["full-batch", "last-batch-of-4000"])
def test_parameter_gradients_equal_plain_reference(batch, n_classes, activation):
    # training's step keeps every bit of a plain pass with np.mean, W.T and
    # np.sum, so checkpoints do not move
    rng = np.random.default_rng(35)
    m = init_mlp([2, 64, 64, n_classes], activation, seed=36)
    X = rng.standard_normal((batch, 2)) * 2.0
    ys = rng.integers(0, n_classes, batch)
    dWs = tuple(np.full_like(w, np.nan) for w in m.weights)
    dbs = tuple(np.full_like(b, np.nan) for b in m.biases)
    onehot = np.zeros((n_classes, batch))
    onehot[ys, np.arange(batch)] = 1.0
    loss = _parameter_gradients(m, X, ys, onehot, dWs, dbs)
    want_loss, want_dWs, want_dbs = mlp_parameter_gradients(m, X, ys)
    assert loss == want_loss
    for got, want in zip(dWs + dbs, want_dWs + want_dbs, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("activation", ["tanh", "softplus"])
@pytest.mark.parametrize("noised", [False, True], ids=["clean", "noised"])
@pytest.mark.parametrize(
    "batch_size, epochs", [(128, 3), (512, 2), (128, 0)], ids=["last-batch-of-44", "batch-above-set", "zero-epochs"]
)
def test_train_equals_per_batch_reference_loop(batch_size, epochs, noised, activation):
    # an epoch set up at once (one gather, one one-hot, one forward_sample)
    # keeps every bit of a loop that gathers, draws and noises batch by batch
    rng = np.random.default_rng(37)
    X = rng.standard_normal((300, 2)) * 2.0
    ys = rng.integers(0, 3, 300)
    m = init_mlp([2, 16, 16, 3], activation, seed=38)
    sch = schedule_from_betas(np.linspace(1e-3, 0.2, 30)) if noised else None
    got = train(m, X, ys, schedule=sch, epochs=epochs, batch_size=batch_size, lr=0.01, seed=39)
    want_ws, want_bs, want_losses = train_loop(m, X, ys, sch, epochs, batch_size, 0.01, 39)
    assert np.array_equal(got.losses, np.asarray(want_losses)) and len(got.losses) == epochs
    for a, b in zip(got.model.weights + got.model.biases, want_ws + want_bs, strict=True):
        assert np.array_equal(a, b)


def test_train_reaches_high_accuracy(model_nonrobust, train_ds, h_nonrobust):
    acc = accuracy(h_nonrobust, train_ds.points, train_ds.labels)
    assert acc >= 0.99


def test_train_loss_decreases(model_nonrobust, train_ds):
    result = train(
        init_mlp([2, 16, 2], seed=0), train_ds.points[:500], train_ds.labels[:500], epochs=10, seed=1
    )
    assert result.losses[-1] < result.losses[0]


def test_zero_epochs_leaves_model_unchanged(train_ds):
    m = init_mlp([2, 8, 2], seed=3)
    out = train(m, train_ds.points[:100], train_ds.labels[:100], epochs=0, seed=0).model
    for w0, w1 in zip(m.weights, out.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(m.biases, out.biases):
        assert np.array_equal(b0, b1)


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0, 1, -1, 1], r"label -1 outside \[0, 2\)"),
        ([0, 1, 0.5, 1], r"label must be an integer in \[0, 2\), got float64 of shape \(4,\)"),
    ],
    ids=["negative", "fraction"],
)
def test_train_refuses_labels_outside_the_classes(labels, message):
    # -1 trained the last class and 0.5 class 0
    with pytest.raises(ValueError, match=message):
        train(init_mlp([2, 8, 2], seed=3), np.zeros((4, 2)), labels, epochs=1)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"epochs": -1}, r"epochs must be an integer >= 0, got -1"),
        ({"epochs": 2.0}, r"epochs must be an integer >= 0, got 2.0"),
        ({"batch_size": 0}, r"batch_size must be an integer >= 1, got 0"),
    ],
    ids=["negative-epochs", "float-epochs", "zero-batch-size"],
)
def test_train_refuses_bad_epochs_and_batch_size(kw, message):
    # epochs=-1 returned the untrained model, and batch_size=0 failed inside range()
    with pytest.raises(ValueError, match=message):
        train(init_mlp([2, 8, 2], seed=3), np.zeros((4, 2)), [0, 1, 0, 1], **kw)


@pytest.mark.parametrize(
    "points",
    [np.zeros(4), np.zeros((4, 2, 1)), np.zeros((4, 3))],
    ids=["1-d", "3-d", "wrong-dim"],
)
def test_train_refuses_points_that_are_not_rows_of_the_input_dim(points):
    # 1-D points raised an IndexError and (4, 2, 1) a matmul error
    with pytest.raises(ValueError, match=r"points of shape .*: expected \(n, 2\)"):
        train(init_mlp([2, 8, 2], seed=3), points, [0, 1, 0, 1], epochs=1)


@pytest.mark.parametrize("lr", [-1.0, 0.0, float("nan"), float("inf")])
def test_train_refuses_a_learning_rate_that_is_not_finite_and_positive(lr):
    # lr=-1.0 trained by gradient ascent and returned the model
    with pytest.raises(ValueError, match=r"lr must be finite and > 0"):
        train(init_mlp([2, 8, 2], seed=3), np.zeros((4, 2)), [0, 1, 0, 1], epochs=1, lr=lr)


@pytest.mark.parametrize("labels", [1, np.zeros((4, 1), dtype=np.int64), [0, 1, 0]], ids=["scalar", "column", "short"])
def test_train_refuses_labels_that_are_not_one_per_point(labels):
    # a scalar label raised a TypeError from len(), and a (4, 1) column one from the loss
    with pytest.raises(ValueError, match="points and labels disagree in length"):
        train(init_mlp([2, 8, 2], seed=3), np.zeros((4, 2)), labels, epochs=1)


@pytest.mark.parametrize("lr", [True, "0.1", None], ids=["bool", "string", "none"])
def test_train_refuses_a_learning_rate_that_is_not_a_number(lr):
    # lr=True trained at lr 1; "0.1" and None raised a TypeError from np.isfinite
    with pytest.raises(ValueError, match=rf"^lr must be a real number, got {re.escape(repr(lr))}$"):
        train(init_mlp([2, 8, 2], seed=3), np.zeros((4, 2)), [0, 1, 0, 1], epochs=1, lr=lr)


@pytest.mark.parametrize(
    "size", [2.5, 2.0, True, np.float64(3.0)], ids=["fraction", "whole-float", "bool", "np-float"]
)
def test_init_mlp_refuses_a_layer_size_that_is_not_an_integer(size):
    # 2.5 and True raised a TypeError inside numpy
    message = rf"^layer_sizes\[1\] must be an integer >= 1, got {re.escape(repr(size))}$"
    with pytest.raises(ValueError, match=message):
        init_mlp([2, size, 2])


@pytest.mark.parametrize("sizes", [[2, 0, 2], [2, 8, -1], [0, 2]])
def test_init_mlp_refuses_a_layer_below_one_unit(sizes):
    # [2, 0, 2] warned of a division by zero, then raised an OverflowError
    bad = min(range(len(sizes)), key=sizes.__getitem__)
    with pytest.raises(ValueError, match=rf"layer_sizes\[{bad}\] must be an integer >= 1, got {sizes[bad]}"):
        init_mlp(sizes)


def test_zero_beta_schedule_equals_clean_mode(train_ds):
    sch0 = schedule_from_betas(np.zeros(20), allow_degenerate=True)
    m = init_mlp([2, 8, 2], seed=3)
    kw = dict(epochs=3, batch_size=64, seed=5)
    clean = train(m, train_ds.points[:400], train_ds.labels[:400], **kw)
    noised = train(m, train_ds.points[:400], train_ds.labels[:400], schedule=sch0, **kw)
    for a, b in zip(clean.model.weights, noised.model.weights):
        assert np.array_equal(a, b)
    assert np.array_equal(clean.losses, noised.losses)


def test_training_bitwise_reproducible(train_ds):
    m = init_mlp([2, 8, 2], seed=3)
    kw = dict(epochs=3, batch_size=64, seed=5)
    a = train(m, train_ds.points[:400], train_ds.labels[:400], **kw)
    b = train(m, train_ds.points[:400], train_ds.labels[:400], **kw)
    assert np.array_equal(a.losses, b.losses)
    for wa, wb in zip(a.model.weights, b.model.weights):
        assert np.array_equal(wa, wb)


def test_training_divergence_detected(train_ds):
    poisoned = train_ds.points[:200].copy()
    poisoned[13] = np.nan  # any non-finite batch makes the loss non-finite
    with pytest.raises(TrainingDiverged):
        train(init_mlp([2, 8, 2], seed=3), poisoned, train_ds.labels[:200], epochs=5, seed=0)


def test_finite_parameters_after_training(model_nonrobust, model_robust):
    for m in (model_nonrobust, model_robust):
        assert all(np.all(np.isfinite(w)) for w in m.weights)
        assert all(np.all(np.isfinite(b)) for b in m.biases)


def test_checkpoint_bytes_equal_a_json_dump_of_numpy_formatted_floats(tmp_path, model_nonrobust):
    # the writer formats Python floats and encodes the document in one string;
    # the file is the one json.dump wrote from NumPy scalars
    import json

    path = tmp_path / "model.json"
    save_checkpoint(model_nonrobust, path)
    doc = {
        "layer_sizes": model_nonrobust.layer_sizes,
        "activation": model_nonrobust.activation,
        "weights": [[format(v, ".17g") for v in w.ravel()] for w in model_nonrobust.weights],
        "biases": [[format(v, ".17g") for v in b] for b in model_nonrobust.biases],
    }
    with open(tmp_path / "dumped.json", "w") as f:
        json.dump(doc, f)
    assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()


def test_checkpoint_round_trip_exact(tmp_path, model_nonrobust):
    path = tmp_path / "model.json"
    save_checkpoint(model_nonrobust, path)
    back = load_checkpoint(path)
    assert back.activation == model_nonrobust.activation
    assert back.layer_sizes == model_nonrobust.layer_sizes
    for a, b in zip(back.weights, model_nonrobust.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, model_nonrobust.biases):
        assert np.array_equal(a, b)


def _assert_read_only_transposes(model):
    assert len(model.weights_t) == len(model.weights)
    for W, Wt in zip(model.weights, model.weights_t):
        assert np.array_equal(Wt, W.T)
        assert Wt.flags.c_contiguous and not Wt.flags.writeable


def test_weights_t_are_read_only_contiguous_transposes(tmp_path, model_nonrobust):
    _assert_read_only_transposes(model_nonrobust)
    path = tmp_path / "model.json"
    save_checkpoint(model_nonrobust, path)
    _assert_read_only_transposes(load_checkpoint(path))


def _assert_read_only_bias_blocks(model):
    assert len(model.bias_blocks) == len(model.biases)
    for b, tile in zip(model.biases, model.bias_blocks):
        assert tile.shape == (_BLOCK, len(b))
        assert np.array_equal(tile, np.broadcast_to(b, tile.shape))
        assert tile.flags.c_contiguous and not tile.flags.writeable


def test_bias_blocks_are_read_only_contiguous_tiles(tmp_path, model_nonrobust):
    _assert_read_only_bias_blocks(init_mlp([2, 8, 3], seed=4))
    _assert_read_only_bias_blocks(model_nonrobust)
    path = tmp_path / "model.json"
    save_checkpoint(model_nonrobust, path)
    _assert_read_only_bias_blocks(load_checkpoint(path))


def test_unknown_activation_is_refused_when_a_model_is_built():
    # not run as softplus, the fallback branch of the forward pass
    with pytest.raises(ValueError, match="activation must be one of"):
        init_mlp([2, 4, 2], "relu")
    m = init_mlp([2, 4, 2])
    with pytest.raises(ValueError, match="activation must be one of"):
        MlpModel(m.weights, m.biases, "relu")


def test_init_mlp_parameters_are_read_only():
    m = init_mlp([2, 8, 3], seed=4)
    assert not any(p.flags.writeable for p in m.weights + m.biases)
    _assert_read_only_transposes(m)
