"""The conv-stack ops against straightforward reference implementations.

The references below are the earlier, simpler forms of ``conv2d``,
``max_pool`` and ``BatchNorm``: im2col by one strided slice copy per kernel
tap, max-pooling by argmax over a copied 4-wide block axis, and eval-mode
batch norm as a chain of tensor ops. The fast versions in ``modemil.nn`` must
match them bit for bit, forward and backward, so equality here is exact
(``np.array_equal``, or equal bytes where a test says so), not approximate.
``conv2d`` runs its gemm ``CONV_BLOCK`` images at a time, so its tests also
cover batches on either side of a block boundary at the encoder's shapes.
``conv_block`` has one path, which runs that way end to end; its reference is
the chain of nodes it replaces, ``relu(max_pool(norm(conv(h))))`` (for conv1
with the input norm in front), at the layer and at the model level. On running
statistics its output has the chain's bits, at inference and while a graph is
recorded (with the input norm computed as the block computes it,
``_eval_chain``). Its batch statistics and its hand-written backward reduce in
another order than the chain, so there it matches the chain to rounding (rtol
1e-12), not bit for bit.

The references and the chain compute in float64, so every test here runs
``conv_block`` in its float64 mode (``double_precision()``, the mode the
gradient checks use). ``tests/test_conv_precision.py`` holds its float32
path, the one training and prediction take, to this one.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import modemil.model as model_module
from modemil.model import ARCHITECTURES, WIRING, TransportModeClassifier
from modemil.nn import BatchNorm, Conv2D, Tensor, cce_loss, conv2d, conv_block, make_node, max_pool, no_grad
from modemil.nn.layers import CONV_BLOCK, _first_winners, _pool
from modemil.nn.tensor import double_precision, relu


@pytest.fixture(autouse=True)
def float64_conv_block():
    with double_precision():
        yield


def reference_conv2d(x, kernel):
    batch, height, width, c_in = x.shape
    k_h, k_w, _, c_out = kernel.shape
    pad = k_h // 2
    padded = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((batch, height, width, k_h, k_w, c_in))
    for i in range(k_h):
        for j in range(k_w):
            cols[:, :, :, i, j, :] = padded[:, i : i + height, j : j + width, :]
    cols_flat = cols.reshape(batch * height * width, k_h * k_w * c_in)
    k_flat = kernel.data.reshape(k_h * k_w * c_in, c_out)
    out_data = (cols_flat @ k_flat).reshape(batch, height, width, c_out)

    def backward(grad):
        grad_flat = grad.reshape(batch * height * width, c_out)
        if kernel.requires_grad:
            kernel._accumulate((cols_flat.T @ grad_flat).reshape(kernel.shape))
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            tap = np.empty((batch * height * width, c_in))
            for i in range(k_h):
                for j in range(k_w):
                    np.matmul(grad_flat, kernel.data[i, j].T, out=tap)
                    di, dj = i - pad, j - pad
                    src = tap.reshape(batch, height, width, c_in)[
                        :, max(0, -di) : height - max(0, di), max(0, -dj) : width - max(0, dj), :
                    ]
                    dx[:, max(0, di) : height - max(0, -di), max(0, dj) : width - max(0, -dj), :] += src
            x._accumulate(dx)

    return make_node(out_data, (x, kernel), backward)


def reference_max_pool(x):
    batch, height, width, channels = x.shape
    h2, w2 = height // 2, width // 2
    blocks = x.data[:, : h2 * 2, : w2 * 2, :].reshape(batch, h2, 2, w2, 2, channels)
    quads = blocks.transpose(0, 1, 3, 5, 2, 4).reshape(batch, h2, w2, channels, 4)
    winners = quads.argmax(axis=-1)
    out_data = np.take_along_axis(quads, winners[..., None], axis=-1)[..., 0]

    def backward(grad):
        if not x.requires_grad:
            return
        dquads = np.zeros_like(quads)
        np.put_along_axis(dquads, winners[..., None], grad[..., None], axis=-1)
        dx = np.zeros_like(x.data)
        dx[:, : h2 * 2, : w2 * 2, :] = (
            dquads.reshape(batch, h2, w2, channels, 2, 2)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(batch, h2 * 2, w2 * 2, channels)
        )
        x._accumulate(dx)

    return make_node(out_data, (x,), backward)


def reference_batch_norm_train(bn, x):
    axes = tuple(range(x.ndim - 1))
    count = int(np.prod([x.shape[a] for a in axes]))
    mean = x.data.mean(axis=axes)
    var = np.maximum((x.data * x.data).mean(axis=axes) - mean * mean, 0.0)
    inv = 1.0 / np.sqrt(var + bn.eps)
    scale = bn.gain.data * inv
    out_data = x.data * scale
    out_data += bn.bias.data - scale * mean
    keep = bn.momentum
    bn._buffers["running_mean"] = keep * bn._buffers["running_mean"] + (1.0 - keep) * mean
    bn._buffers["running_var"] = keep * bn._buffers["running_var"] + (1.0 - keep) * var
    gain, bias = bn.gain, bn.bias

    def backward(grad):
        grad_sum = grad.sum(axis=axes)
        grad_gain = inv * ((grad * x.data).sum(axis=axes) - mean * grad_sum)
        if bias.requires_grad:
            bias._accumulate(grad_sum)
        if gain.requires_grad:
            gain._accumulate(grad_gain)
        if x.requires_grad:
            a_coef = gain.data * inv
            b_coef = -a_coef * inv * grad_gain / count
            c_coef = -a_coef * grad_sum / count - b_coef * mean
            dx = grad * a_coef
            dx += x.data * b_coef
            dx += c_coef
            x._accumulate(dx)

    return make_node(out_data, (x, gain, bias), backward)


def _minus(x, constant):
    """``x - constant`` as a graph node, the bits of ``x + (-constant)``; its backward hands the
    gradient on unchanged."""
    return make_node(x.data - constant, (x,), x._accumulate)


def reference_batch_norm_eval(bn, x):
    inv = Tensor(1.0 / np.sqrt(bn._buffers["running_var"] + bn.eps))
    return _minus(x, bn._buffers["running_mean"]) * inv * bn.gain + bn.bias


def _leaf(data, requires_grad=True):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=requires_grad)


def _run(op, arrays, grad_rng, flags=None):
    """Forward ``op`` on fresh leaves, backpropagate a fixed random gradient."""
    flags = flags or [True] * len(arrays)
    leaves = [_leaf(a, f) for a, f in zip(arrays, flags)]
    out = op(*leaves)
    upstream = grad_rng.normal(size=out.shape)
    if out.requires_grad:
        out.backward(upstream)
    return out.data, [leaf.grad for leaf in leaves]


def _assert_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


def _assert_same(op, reference, arrays, seed=0, flags=None, same=_assert_equal):
    out, grads = _run(op, arrays, np.random.default_rng(seed), flags)
    ref_out, ref_grads = _run(reference, arrays, np.random.default_rng(seed), flags)
    same(out, ref_out)
    for grad, ref_grad in zip(grads, ref_grads):
        if ref_grad is None:
            assert grad is None
        else:
            same(grad, ref_grad)


def _assert_bytes_equal(a, b):
    """Equal shapes and equal bits: signed zeros and NaN payloads included."""
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


CONV_SHAPES = [((2, 7, 7, 2), 3, 4), ((3, 5, 6, 3), 3, 2), ((1, 9, 7, 1), 5, 3), ((2, 4, 4, 2), 1, 2)]


@pytest.mark.parametrize("shape,k,c_out", CONV_SHAPES)
def test_conv2d_matches_reference(shape, k, c_out):
    rng = np.random.default_rng(k * 10 + c_out)
    arrays = [rng.normal(size=shape), rng.normal(size=(k, k, shape[-1], c_out))]
    _assert_same(conv2d, reference_conv2d, arrays)


def test_conv2d_matches_reference_with_frozen_operands():
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=(2, 7, 7, 2)), rng.normal(size=(3, 3, 2, 4))]
    for flags in ([True, False], [False, True], [False, False]):
        _assert_same(conv2d, reference_conv2d, arrays, flags=flags)


# The encoder's three conv shapes: (H, W, c_in, c_out).
ENCODER_CONVS = [(51, 51, 2, 16), (25, 25, 16, 32), (12, 12, 32, 64)]
CONV_FLAGS = {"trainable": [True, True], "frozen_kernel": [True, False]}


@pytest.mark.parametrize("batch", [1, CONV_BLOCK - 1, CONV_BLOCK, CONV_BLOCK + 1, 40])
@pytest.mark.parametrize("case", ["trainable", "frozen_kernel", "no_grad"])
@pytest.mark.parametrize("conv", ENCODER_CONVS, ids=["conv1", "conv2", "conv3"])
def test_blocked_conv2d_matches_one_gemm_reference(batch, case, conv):
    # conv2d runs its gemm CONV_BLOCK images at a time; the reference runs one
    # gemm over the whole batch. Equal bits here mean the BLAS computes each
    # output row the same way whatever the number of rows in the call.
    height, width, c_in, c_out = conv
    rng = np.random.default_rng(batch * 100 + c_in)
    shapes = [(batch, height, width, c_in), (3, 3, c_in, c_out)]
    arrays = [rng.normal(size=shape) for shape in shapes]
    if case == "no_grad":
        with no_grad():
            out = conv2d(*[_leaf(a) for a in arrays])
        assert not out.requires_grad
        _assert_bytes_equal(out.data, reference_conv2d(*[_leaf(a, False) for a in arrays]).data)
    else:
        _assert_same(conv2d, reference_conv2d, arrays, seed=batch, flags=CONV_FLAGS[case], same=_assert_bytes_equal)


@pytest.mark.parametrize("frozen", [False, True])
def test_inference_conv2d_needs_no_batch_sized_column_matrix(frozen):
    # A frozen kernel or no_grad needs no kernel gradient, so conv2d keeps only
    # one CONV_BLOCK-image column buffer; a batch-sized one would be 46 MB here.
    batch, height, width, c_in, c_out = 64, 25, 25, 16, 32
    rng = np.random.default_rng(0)
    x = _leaf(rng.normal(size=(batch, height, width, c_in)), requires_grad=frozen)
    kernel = _leaf(rng.normal(size=(3, 3, c_in, c_out)), False)
    batch_cols = batch * height * width * 9 * c_in * 8
    tracemalloc.start()
    try:
        if frozen:
            out = conv2d(x, kernel)
        else:
            with no_grad():
                out = conv2d(x, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad == frozen
    assert peak < batch_cols


def _tie_heavy_inputs():
    rng = np.random.default_rng(11)
    inputs = {
        "normal_7x7": rng.normal(size=(2, 7, 7, 3)),
        "even_6x5": rng.normal(size=(2, 6, 5, 2)),
        "single_block": rng.normal(size=(1, 2, 2, 1)),
        "post_relu": np.maximum(rng.normal(size=(2, 7, 7, 3)), 0.0),
        "small_integers": rng.integers(0, 3, size=(3, 7, 9, 2)).astype(float),
        "all_equal": np.full((1, 4, 4, 2), 1.5),
        "signed_zeros": rng.choice([0.0, -0.0], size=(2, 6, 6, 2)),
        "infinities": rng.choice([-np.inf, np.inf, 1.0], size=(2, 6, 6, 1)),
        "nans": np.where(rng.random((2, 6, 6, 2)) < 0.2, np.nan, rng.normal(size=(2, 6, 6, 2))),
    }
    # One 2x2 block per pattern: 2, 3 and 4 equal maxima in every position.
    patterns = []
    for count in (2, 3, 4):
        for first in range(4):
            block = np.zeros(4)
            block[[(first + i) % 4 for i in range(count)]] = 5.0
            patterns.append(block.reshape(2, 2))
    ties = np.zeros((1, 2, 2 * len(patterns) + 1, 1))
    for b, block in enumerate(patterns):
        ties[0, :, 2 * b : 2 * b + 2, 0] = block
    inputs["equal_maxima"] = ties
    return inputs


@pytest.mark.parametrize("name,data", sorted(_tie_heavy_inputs().items()))
def test_max_pool_matches_argmax_reference(name, data):
    _assert_same(max_pool, reference_max_pool, [data], seed=len(name))
    # The gradient to the bit, as np.array_equal takes -0.0 for +0.0: +0.0 off the winners,
    # never ``grad * 0``. (The forward may pick another sign for a maximum of +-0.)
    grads = [_run(op, [data], np.random.default_rng(len(name)))[1][0] for op in (max_pool, reference_max_pool)]
    _assert_bytes_equal(*grads)


def _relu_pool_inputs():
    rng = np.random.default_rng(13)
    mixed = rng.normal(size=(2, 7, 9, 3))
    mixed[0, :2, :2] = -np.abs(mixed[0, :2, :2])  # all-negative blocks
    return {
        "normal_odd_7x9": mixed,
        "all_negative": -np.abs(rng.normal(size=(2, 5, 5, 2))) - 0.1,
        "signed_zeros": rng.choice([0.0, -0.0], size=(2, 6, 6, 2)),
        "zeros_and_negatives": rng.choice([0.0, -0.0, -1.0], size=(2, 7, 7, 2)),
        "equal_positive_maxima": rng.choice([2.0, 1.0, -1.0], size=(3, 6, 7, 2)),
        "nans": np.where(rng.random((2, 7, 6, 2)) < 0.2, np.nan, rng.normal(size=(2, 7, 6, 2))),
    }


@pytest.mark.parametrize("name,data", sorted(_relu_pool_inputs().items()))
def test_relu_after_max_pool_is_max_pool_after_relu(name, data):
    # The encoder pools before the ReLU. The forward is bit for bit that of
    # the conventional ReLU-then-pool order. So is the input gradient, but for
    # the sign of zeros: in a block whose maximum is <= 0, the zeroed gradient
    # (upstream * 0, which is -0.0 for a negative upstream) lands on the first
    # raw maximum instead of the block's first element. Adding +0.0 maps -0.0
    # to +0.0 and leaves every other value, NaN included, as it is.
    out, (grad,) = _run(lambda x: relu(max_pool(x)), [data], np.random.default_rng(len(name)))
    ref_out, (ref_grad,) = _run(lambda x: max_pool(relu(x)), [data], np.random.default_rng(len(name)))
    _assert_bytes_equal(out, ref_out)
    _assert_bytes_equal(grad + 0.0, ref_grad + 0.0)


def test_max_pool_after_relu_matches_reference():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(3, 7, 7, 4))
    _assert_same(lambda x: max_pool(relu(x)), lambda x: reference_max_pool(relu(x)), [data])


BN_SHAPES = [(4, 7, 7, 3), (5, 6), (3, 10, 2), (2, 1, 1, 4), (6, 51, 51, 2), (3, 12, 12, 64)]


def _batch_norm(shape, seed, running=False):
    rng = np.random.default_rng(seed)
    bn = BatchNorm(shape[-1])
    bn.gain.data[...] = rng.normal(size=shape[-1])
    bn.bias.data[...] = rng.normal(size=shape[-1])
    if running:
        bn._buffers["running_mean"][...] = rng.normal(size=shape[-1])
        bn._buffers["running_var"][...] = rng.uniform(0.5, 2.0, size=shape[-1])
    return bn, rng.normal(loc=0.7, scale=1.9, size=shape)


@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_train_matches_reference(shape):
    bn, x = _batch_norm(shape, seed=len(shape))
    ref, _ = _batch_norm(shape, seed=len(shape))

    def fast(x_leaf, gain, bias):
        bn.gain, bn.bias = gain, bias
        return bn(x_leaf, training=True)

    def slow(x_leaf, gain, bias):
        ref.gain, ref.bias = gain, bias
        return reference_batch_norm_train(ref, x_leaf)

    _assert_same(fast, slow, [x, bn.gain.data, bn.bias.data])
    for name in ("running_mean", "running_var"):
        assert np.array_equal(bn._buffers[name], ref._buffers[name])


@pytest.mark.parametrize("shape", BN_SHAPES)
@pytest.mark.parametrize("flags", [[True, True, True], [True, False, False], [False, True, True], [False, False, False]])
def test_batch_norm_eval_matches_reference(shape, flags):
    bn, x = _batch_norm(shape, seed=7 + len(shape), running=True)

    def fast(x_leaf, gain, bias):
        bn.gain, bn.bias = gain, bias
        return bn(x_leaf, training=False)

    def slow(x_leaf, gain, bias):
        bn.gain, bn.bias = gain, bias
        return reference_batch_norm_eval(bn, x_leaf)

    _assert_same(fast, slow, [x, bn.gain.data.copy(), bn.bias.data.copy()], flags=flags)


def test_predictions_do_not_depend_on_how_bags_are_chunked():
    # Eval mode is per-bag, so 40 bags predicted at once and in chunks of 16
    # or 17 (across conv2d's image blocks) agree bit for bit. One bag at a
    # time does too: a gemm of 1 row (the head) or of 3 rows (fc1, 2304 deep)
    # would take another summation order in OpenBLAS 0.3.31, so inference pads
    # a batch, and its distinct windows, to at least 4 rows.
    rng = np.random.default_rng(4)
    model = TransportModeClassifier("fusion_mil", 3, 0, 0.3)
    acc = rng.normal(size=(40, 3, 51, 51, 2))
    loc_seq, loc_scalars = rng.normal(size=(40, 10, 2)), rng.normal(size=(40, 5))

    def predict(step):
        parts = [slice(i, i + step) for i in range(0, 40, step)]
        return np.concatenate([model.predict(acc[p], loc_seq[p], loc_scalars[p]).probs.data for p in parts])

    whole = predict(40)
    _assert_bytes_equal(predict(16), whole)
    _assert_bytes_equal(predict(17), whole)
    _assert_bytes_equal(predict(1), whole)


def _chain(h, conv, norm, training, input_norm=None):
    if input_norm is not None:
        h = input_norm(h, training)
    return relu(max_pool(norm(conv(h), training)))


def _eval_chain(h, conv, norm, training, input_norm=None):
    """The chain, but an input norm on running statistics (eval mode, or frozen) is computed
    as the fused block computes it, by standalone ops: x̂ = (h - mean) * inv goes through
    conv2d with the kernel scaled by the input gain, and conv2d of the input bias over one
    image is added. On those statistics the fused block has this chain's bits."""
    if input_norm is None:
        return _chain(h, conv, norm, training)
    assert not training or input_norm.frozen
    mean, inv = input_norm._running()
    scaled = conv2d(Tensor((h.data - mean) * inv), Tensor(conv.kernel.data * input_norm.gain.data[:, None]))
    offset = conv2d(Tensor(np.broadcast_to(input_norm.bias.data, (1, *h.shape[1:]))), conv.kernel)
    return relu(max_pool(norm(scaled + offset, training)))


def _block_inputs(kind, shape, rng):
    data = rng.normal(size=shape)
    if kind == "specials":  # NaN and +-inf pixels (sparse, as a conv spreads them) and signed zeros
        pixel = rng.random(shape[:3])
        data[pixel < 0.01] = np.nan
        data[(pixel >= 0.01) & (pixel < 0.015)] = np.inf
        data[(pixel >= 0.015) & (pixel < 0.02)] = -np.inf
        zeros = rng.random(shape) < 0.2
        data[zeros] = rng.choice([0.0, -0.0], size=shape)[zeros]
    elif kind == "ties":  # few distinct values: equal maxima in most pooling blocks
        data = rng.integers(-1, 2, size=shape).astype(float)
    return data


def _encoder_block(conv_shape, rng):
    """An encoder-shaped Conv2D and BatchNorm with random running statistics,
    negative gains and zero gains. A zero-gain channel gets bias -0.0, so the
    signed zeros it makes reach the pool."""
    _, _, c_in, c_out = conv_shape
    conv = Conv2D(c_in, c_out, rng)
    norm = BatchNorm(c_out)
    norm.gain.data[...] = rng.normal(size=c_out)
    norm.gain.data[::4] = 0.0
    norm.bias.data[...] = rng.normal(size=c_out)
    norm.bias.data[::4] = -0.0
    norm._buffers["running_mean"][...] = rng.normal(size=c_out)
    norm._buffers["running_var"][...] = rng.uniform(0.1, 3.0, size=c_out)
    return conv, norm


@pytest.mark.parametrize("recorded", [False, True], ids=["no_grad", "recorded"])
@pytest.mark.parametrize("kind", ["normal", "specials", "ties"])
@pytest.mark.parametrize("batch", [1, CONV_BLOCK - 1, CONV_BLOCK, CONV_BLOCK + 1, 40])
@pytest.mark.parametrize("conv_shape", ENCODER_CONVS, ids=["conv1", "conv2", "conv3"])
def test_inference_conv_block_matches_chain(kind, batch, conv_shape, recorded):
    # conv_block runs each block CONV_BLOCK images at a time end to end; the
    # chain writes every full-size map. On running statistics the bits must be
    # the same, also while a graph is recorded: the eval pass full_model_check
    # differentiates must be the one predict runs.
    height, width, c_in, _ = conv_shape
    rng = np.random.default_rng(batch * 7 + c_in)
    conv, norm = _encoder_block(conv_shape, rng)
    h = Tensor(_block_inputs(kind, (batch, height, width, c_in), rng), requires_grad=recorded)
    with np.errstate(invalid="ignore"):
        with no_grad():
            out = conv_block(h, conv, norm, training=False)
            ref = _chain(h, conv, norm, training=False)
        if recorded:
            graph_out = conv_block(h, conv, norm, training=False)
            assert graph_out.requires_grad
            _assert_bytes_equal(graph_out.data, out.data)
    assert not out.requires_grad
    _assert_bytes_equal(out.data, ref.data)


def test_conv_block_checks_channels():
    rng = np.random.default_rng(0)
    conv, norm = Conv2D(2, 4, rng), BatchNorm(2)
    with no_grad(), pytest.raises(ValueError, match="expected 2 channels, got 4"):
        conv_block(Tensor(rng.normal(size=(3, 6, 6, 2))), conv, norm, training=False)


ACCEL_ARCHS = [arch for arch in ARCHITECTURES if WIRING[arch][0] is not None]


def _model_with_running_stats(arch, seed):
    model = TransportModeClassifier(arch, 3, seed, 0.3)
    rng = np.random.default_rng(seed)
    for name, array in model.named_tensors():
        if name.endswith("running_mean") or name.endswith("gain"):
            array[...] = rng.normal(size=array.shape)  # negative gains included
        elif name.endswith("running_var"):
            array[...] = rng.uniform(0.1, 3.0, size=array.shape)
    return model


@pytest.mark.parametrize("arch", ACCEL_ARCHS)
def test_predictions_match_the_unblocked_chain(arch, monkeypatch):
    rng = np.random.default_rng(len(arch))
    model = _model_with_running_stats(arch, seed=3)
    acc = rng.normal(size=(7, model.n_accel_instances, 51, 51, 2))
    acc[0, 0, :4] = np.nan
    acc[1, 0, 10:12] = -0.0
    loc_seq, loc_scalars = rng.normal(size=(7, 10, 2)), rng.normal(size=(7, 5))
    with np.errstate(invalid="ignore"):
        blocked = model.predict(acc, loc_seq, loc_scalars)
        monkeypatch.setattr(model_module, "conv_block", _eval_chain)
        chained = model.predict(acc, loc_seq, loc_scalars)
    _assert_bytes_equal(blocked.probs.data, chained.probs.data)
    for name in ("attention", "accel_weight", "loc_weight"):
        if getattr(chained, name) is None:
            assert getattr(blocked, name) is None
        else:
            _assert_bytes_equal(getattr(blocked, name), getattr(chained, name))


def test_frozen_encoder_training_step_matches_the_unblocked_chain(monkeypatch):
    # A frozen, pre-trained acceleration encoder runs its conv blocks on the
    # inference path inside a training step; every gradient and state array
    # must equal the chain's (the input norm's running statistics included).
    rng = np.random.default_rng(8)
    acc = rng.normal(size=(6, 3, 51, 51, 2))
    loc_seq, loc_scalars, labels = rng.normal(size=(6, 10, 2)), rng.normal(size=(6, 5)), rng.integers(0, 8, 6)

    def step():
        model = _model_with_running_stats("fusion_mil", seed=5)
        model.accel_encoder.freeze()
        result = model.forward(acc, loc_seq, loc_scalars, training=True, rng=np.random.default_rng(1))
        cce_loss(result.probs, labels).backward()
        return [p.grad for _, p in model.named_parameters()], [a for _, a in model.named_tensors()]

    grads, state = step()
    monkeypatch.setattr(model_module, "conv_block", _eval_chain)
    ref_grads, ref_state = step()
    for a, b in zip(grads + state, ref_grads + ref_state, strict=True):
        _assert_bytes_equal(a, b)


def test_inference_encoder_pass_holds_no_batch_sized_map():
    # At the peak each extra image holds its normalized input and its first
    # pooled map (about 120 kB), far less than its conv1 map (51 * 51 * 16
    # float64, 333 kB): 40 more images must add less than 6 MB. Padding each
    # whole conv input at once adds 8.4 MB; the chain, which writes full-size
    # conv and batch-norm maps, adds about two 40-image conv1 maps.
    encoder = TransportModeClassifier("acc_cnn", 1, 0, 0.3).accel_encoder
    peaks = []
    for batch in (40, 80):
        x = Tensor(np.random.default_rng(batch).normal(size=(batch, 51, 51, 2)))
        tracemalloc.start()
        try:
            with no_grad():
                encoder(x, training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 6e6


# -- the node ------------------------------------------------------------------
#
# While a graph is recorded, conv_block is one node with a hand-written backward.
# Its batch statistics and its backward reduce in another order than the chain
# (per-channel sums of each image block's (rows, W*C) view, the pooled gradient's
# sum, one scatter through the winner index), so it agrees with the chain to
# rounding: rtol 1e-12, and an atol of 1e-12 times the largest finite |reference|.

BLOCK_TOL = 1e-12


def _assert_close(actual, reference, scale=None):
    if scale is None:
        scale = np.abs(reference[np.isfinite(reference)]).max(initial=0.0)
    np.testing.assert_allclose(actual, reference, rtol=BLOCK_TOL, atol=BLOCK_TOL * scale, equal_nan=True)


def _block_step(op, make_block, h_data, training, flags=None, grad_seed=0):
    """``op`` on fresh copies of a block and its input, with ``requires_grad`` set per leaf from
    ``flags`` (all True by default): (h, kernel, gain, norm bias), and with an input norm (a
    third item of ``make_block()``) its gain and bias, h then taking no gradient. Backpropagates
    a fixed random gradient. Returns the output, the leaves' gradients and the running
    statistics of both norms."""
    conv, norm, *input_norm = make_block()
    h = Tensor(h_data.copy())
    norms = [norm, *input_norm]
    leaves = (h, conv.kernel, norm.gain, norm.bias, *[p for n in input_norm for p in (n.gain, n.bias)])
    for leaf, flag in zip(leaves, flags or (not input_norm, *[True] * (len(leaves) - 1)), strict=True):
        leaf.requires_grad = flag
    with np.errstate(invalid="ignore"):
        out = op(h, conv, norm, training, *input_norm)
        if out.requires_grad:
            out.backward(np.random.default_rng(grad_seed).normal(size=out.shape))
    stats = [n._buffers[k] for n in norms for k in ("running_mean", "running_var")]
    return out.data, [leaf.grad for leaf in leaves], stats


def _assert_node_matches_chain(make_block, h_data, training, flags=None, cancelling=()):
    """Compare the node with the chain. Under batch statistics the gradients at the indices
    ``cancelling`` are sums that cancel to zero, or nearly, in exact arithmetic, and are held to
    the scale of the largest gradient of a run that requires them all: both sides then hold
    mostly rounding noise."""
    out, grads, stats = _block_step(conv_block, make_block, h_data, training, flags)
    ref_out, ref_grads, ref_stats = _block_step(_chain, make_block, h_data, training, flags)
    _assert_close(out, ref_out)
    for value, ref in zip(stats, ref_stats, strict=True):
        _assert_close(value, ref)
    run_scale = None
    if training and cancelling:
        run_grads = _block_step(_chain, make_block, h_data, training)[1]
        all_grads = np.concatenate([g.ravel() for g in run_grads if g is not None])
        run_scale = np.abs(all_grads[np.isfinite(all_grads)]).max(initial=0.0)
    for k, (grad, ref) in enumerate(zip(grads, ref_grads, strict=True)):
        if ref is None:
            assert grad is None
        else:
            _assert_close(grad, ref, scale=run_scale if k in cancelling else None)


def _seeded(factory, seed):
    return lambda: factory(np.random.default_rng(seed))


@pytest.mark.parametrize("training", [True, False], ids=["batch_stats", "running_stats"])
@pytest.mark.parametrize("kind", ["normal", "specials", "ties"])
@pytest.mark.parametrize("conv_shape", ENCODER_CONVS, ids=["conv1", "conv2", "conv3"])
def test_training_conv_block_node_matches_chain(training, kind, conv_shape):
    # The encoder's shapes (51, 25 and 12 wide: two odd) across a CONV_BLOCK boundary,
    # with zero and negative gains; running statistics are what full_model_check runs.
    height, width, c_in, _ = conv_shape
    rng = np.random.default_rng(c_in)
    h_data = _block_inputs(kind, (CONV_BLOCK + 1, height, width, c_in), rng)
    _assert_node_matches_chain(_seeded(lambda r: _encoder_block(conv_shape, r), c_in), h_data, training)


@pytest.mark.parametrize("training", [True, False], ids=["batch_stats", "running_stats"])
@pytest.mark.parametrize("flags", list(itertools.product([True, False], repeat=4)), ids=str)
def test_conv_block_node_matches_chain_for_every_requires_grad_combination(training, flags):
    rng = np.random.default_rng(21)
    h_data = rng.normal(size=(3, 9, 7, 3))
    _assert_node_matches_chain(_seeded(lambda r: _encoder_block((9, 7, 3, 4), r), 22), h_data, training, flags)


def _identity_block(channels):
    """A 3x3 conv that copies its input and a batch norm with gains of both signs: the
    input's ties (and NaN) reach the pool as ties."""

    def make(rng):
        conv = Conv2D(channels, channels, rng)
        conv.kernel.data[...] = 0.0
        conv.kernel.data[1, 1] = np.eye(channels)
        norm = BatchNorm(channels)
        norm.gain.data[...] = np.where(np.arange(channels) % 2, -1.5, 0.75)
        norm.bias.data[...] = rng.normal(size=channels)
        norm._buffers["running_mean"][...] = rng.normal(size=channels)
        norm._buffers["running_var"][...] = rng.uniform(0.5, 2.0, size=channels)
        return conv, norm

    return make


@pytest.mark.parametrize("training", [True, False], ids=["batch_stats", "running_stats"])
@pytest.mark.parametrize("name,data", sorted(_tie_heavy_inputs().items()))
def test_conv_block_node_routes_ties_like_the_chain(training, name, data):
    # Equal maxima, signed zeros, infinities and NaN: the gradient must reach the
    # element argmax picks, NaN counting as a maximum. With running statistics NaN
    # stays local, so the input gradient shows where each block's gradient went.
    if data.shape[0] < 2:  # batch statistics need two images
        data = np.concatenate([data, data[:, ::-1]])
    if min(data.shape[1:3]) < 3:  # the 3x3 conv needs 3; tiling keeps every 2x2 block
        data = np.tile(data, (1, 2 if data.shape[1] < 3 else 1, 2 if data.shape[2] < 3 else 1, 1))
    # A constant input normalizes to the bias alone: then the gain's exact gradient is zero.
    cancelling = (2,) if np.all(data == data.flat[0]) else ()
    make_block = _seeded(_identity_block(data.shape[-1]), len(name))
    _assert_node_matches_chain(make_block, data, training, cancelling=cancelling)


@pytest.mark.parametrize("name,data", sorted(_tie_heavy_inputs().items()))
def test_recorded_winners_are_argmax_picks(name, data):
    # A block whose maximum is NaN gets no gradient (the ReLU's NaN > 0 is False),
    # so the winner of such a block is checked here, on the index itself.
    pooled, _, quads = _pool(data)
    winners = np.empty(pooled.shape, dtype=np.uint8)
    _first_winners(quads, pooled, winners)
    batch, height, width, channels = data.shape
    h2, w2 = height // 2, width // 2
    blocks = data[:, : 2 * h2, : 2 * w2].reshape(batch, h2, 2, w2, 2, channels).transpose(0, 1, 3, 5, 2, 4)
    _assert_bytes_equal(winners, blocks.reshape(*pooled.shape, 4).argmax(axis=-1).astype(np.uint8))


def test_training_conv_block_holds_no_full_size_normalized_map():
    # Per conv1 image the node holds its im2col columns (374 kB), its conv output
    # (333 kB), its pooled output (80 kB) and uint8 winner index (10 kB): under
    # 0.8 MB. The chain holds a normalized map (333 kB) and a ReLU map (80 kB) more.
    # 20 more images must add less than 20 * (0.8 MB + half a normalized map).
    rng = np.random.default_rng(6)
    conv, norm = Conv2D(2, 16, rng), BatchNorm(16)
    peaks = []
    for batch in (20, 40):
        h = Tensor(rng.normal(size=(batch, 51, 51, 2)))
        tracemalloc.start()
        try:
            out = conv_block(h, conv, norm, training=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        peaks.append(peak)
    map_bytes = 51 * 51 * 16 * 8
    assert peaks[1] - peaks[0] < 20 * (51 * 51 * 18 * 8 + map_bytes + 25 * 25 * 16 * 9 + map_bytes // 2)


def test_training_conv_block_needs_two_images():
    rng = np.random.default_rng(0)
    conv, norm = Conv2D(2, 4, rng), BatchNorm(4)
    with pytest.raises(ValueError, match="batch size >= 2"):
        conv_block(Tensor(rng.normal(size=(1, 6, 6, 2)), requires_grad=True), conv, norm, training=True)


def test_fusion_mil_training_step_matches_the_chain(monkeypatch):
    # One B = 32 training step (96 acceleration images) through the node and through
    # the chain, which runs the input norm standalone: every parameter gradient and the
    # running statistics agree to rounding. A dense bias followed by batch statistics has
    # an exact gradient of zero, so it is held to its layer's weight-gradient scale.
    rng = np.random.default_rng(9)
    acc = rng.normal(size=(32, 3, 51, 51, 2))
    loc_seq, loc_scalars, labels = rng.normal(size=(32, 10, 2)), rng.normal(size=(32, 5)), rng.integers(0, 8, 32)

    def step():
        model = TransportModeClassifier("fusion_mil", 3, 4, 0.3)
        result = model.forward(acc, loc_seq, loc_scalars, training=True, rng=np.random.default_rng(1))
        cce_loss(result.probs, labels).backward()
        return dict(model.named_parameters()), dict(model.named_tensors())

    params, state = step()
    monkeypatch.setattr(model_module, "conv_block", _chain)
    ref_params, ref_state = step()
    assert params.keys() == ref_params.keys()
    for name, param in params.items():
        ref = ref_params[name].grad
        scale = np.abs(ref).max()
        layer = name.removesuffix("bias")
        if name.endswith(".bias") and layer + "weight" in ref_params:
            scale = max(scale, np.abs(ref_params[layer + "weight"].grad).max())
        _assert_close(param.grad, ref, scale=scale)
    for name in state:
        _assert_close(state[name], ref_state[name])


# -- the input norm fused into the block ---------------------------------------------
#
# With ``input_norm`` the block standardizes its input into the conv's buffer and gets the
# input norm's gain and bias gradients from the kernel gemm and per-tap sums of ``dy``; the
# chain runs the input norm standalone and conv1's input gradient. They agree to rounding.
# Under batch statistics ``dy`` sums to zero over all image positions, so the input bias's
# gradient is a border effect left over from sums that cancel (1e-12 of itself apart seen):
# it is held to the run's largest gradient.

INPUT_BIAS = 5  # the input norm's bias among _block_step's leaves


def _input_norm_block(conv_shape, seed):
    """``_encoder_block`` plus an input norm with random gains (the first zero if there are
    more than two channels), biases and running statistics."""

    def make(rng):
        conv, norm = _encoder_block(conv_shape, rng)
        c_in = conv_shape[2]
        input_norm = BatchNorm(c_in)
        input_norm.gain.data[...] = rng.normal(size=c_in)
        if c_in > 2:
            input_norm.gain.data[0] = 0.0
        input_norm.bias.data[...] = rng.normal(size=c_in)
        input_norm._buffers["running_mean"][...] = rng.normal(size=c_in)
        input_norm._buffers["running_var"][...] = rng.uniform(0.1, 3.0, size=c_in)
        return conv, norm, input_norm

    return _seeded(make, seed)


@pytest.mark.parametrize("training", [True, False], ids=["batch_stats", "running_stats"])
@pytest.mark.parametrize("kind", ["normal", "specials", "ties"])
@pytest.mark.parametrize("batch", [2, CONV_BLOCK + 1])
def test_input_norm_block_matches_chain(training, kind, batch):
    # The encoder's conv1 shape, the input's channel means several times their spread.
    rng = np.random.default_rng(batch)
    h_data = _block_inputs(kind, (batch, 51, 51, 2), rng) * 0.5 + np.array([3.0, -2.0])
    make_block = _input_norm_block(ENCODER_CONVS[0], batch)
    _assert_node_matches_chain(make_block, h_data, training, cancelling=(INPUT_BIAS,))


@pytest.mark.parametrize("training", [True, False], ids=["batch_stats", "running_stats"])
@pytest.mark.parametrize("flags", list(itertools.product([True, False], repeat=5)), ids=str)
def test_input_norm_block_matches_chain_for_every_requires_grad_combination(training, flags):
    h_data = np.random.default_rng(23).normal(size=(3, 9, 7, 3))
    make_block = _input_norm_block((9, 7, 3, 4), 24)
    _assert_node_matches_chain(make_block, h_data, training, (False, *flags), cancelling=(INPUT_BIAS,))


@pytest.mark.parametrize("kind", ["normal", "specials", "ties"])
@pytest.mark.parametrize("batch", [1, CONV_BLOCK + 1])
def test_input_norm_block_on_running_statistics_has_the_bits_of_its_chain(kind, batch):
    # Inference, and a recorded eval pass, compute the input norm as _eval_chain does.
    rng = np.random.default_rng(batch + 30)
    conv, norm, input_norm = _input_norm_block(ENCODER_CONVS[0], batch)()
    h = Tensor(_block_inputs(kind, (batch, 51, 51, 2), rng))
    with np.errstate(invalid="ignore"):
        with no_grad():
            out = conv_block(h, conv, norm, False, input_norm)
            ref = _eval_chain(h, conv, norm, False, input_norm)
        recorded = conv_block(h, conv, norm, False, input_norm)
    assert recorded.requires_grad
    _assert_bytes_equal(out.data, ref.data)
    _assert_bytes_equal(recorded.data, out.data)


def test_input_norm_block_gives_its_input_no_gradient():
    conv, norm, input_norm = _input_norm_block((9, 7, 3, 4), 0)()
    h = Tensor(np.random.default_rng(0).normal(size=(3, 9, 7, 3)), requires_grad=True)
    with pytest.raises(ValueError, match="gives its input no gradient"):
        conv_block(h, conv, norm, True, input_norm)


def test_input_norm_block_checks_channels():
    conv, norm, _ = _input_norm_block((9, 7, 3, 4), 0)()
    with no_grad(), pytest.raises(ValueError, match="expected 2 channels, got 3"):
        conv_block(Tensor(np.zeros((3, 9, 7, 3))), conv, norm, False, BatchNorm(2))


def test_frozen_encoder_input_norm_keeps_its_statistics_and_gets_no_gradient():
    rng = np.random.default_rng(12)
    model = _model_with_running_stats("fusion_mil", seed=6)
    model.accel_encoder.freeze()
    input_norm = model.accel_encoder.input_norm
    before = {name: array.copy() for name, array in input_norm.named_tensors()}
    acc = rng.normal(loc=2.0, size=(4, 3, 51, 51, 2))
    result = model.forward(acc, rng.normal(size=(4, 10, 2)), rng.normal(size=(4, 5)), training=True, rng=rng)
    cce_loss(result.probs, rng.integers(0, 8, 4)).backward()
    assert input_norm.gain.grad is None and input_norm.bias.grad is None
    for name, array in input_norm.named_tensors():
        _assert_bytes_equal(array, before[name])
