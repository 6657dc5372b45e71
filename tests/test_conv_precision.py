"""``conv_block``'s float32 path against its float64 mode.

Training, validation and prediction run the conv stack in float32 inside
``conv_block``; everything it takes and hands on is float64. Its float64 mode
(``double_precision()``, which ``grad_check`` enters) is held to the chain of
standalone float64 nodes by ``tests/test_conv_stack_oracle.py``; here the
float32 path is held to that mode, to a tolerance of 1e-5 times each array's
largest |float64 value|.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from modemil.model import TransportModeClassifier
from modemil.nn import Adam, BatchNorm, Conv2D, Tensor, cce_loss, conv_block, grad_check, no_grad
from modemil.nn.layers import CONV_BLOCK
from modemil.nn.tensor import conv_dtype, double_precision

ENCODER_CONVS = [(51, 51, 2, 16), (25, 25, 16, 32), (12, 12, 32, 64)]
F32_TOL = 1e-5


def _block(conv_shape, seed):
    """An encoder-shaped Conv2D and BatchNorm with random running statistics and gains of
    both signs."""
    rng = np.random.default_rng(seed)
    _, _, c_in, c_out = conv_shape
    conv, norm = Conv2D(c_in, c_out, rng), BatchNorm(c_out)
    norm.gain.data[...] = rng.normal(size=c_out)
    norm.bias.data[...] = rng.normal(size=c_out)
    norm._buffers["running_mean"][...] = rng.normal(size=c_out)
    norm._buffers["running_var"][...] = rng.uniform(0.1, 3.0, size=c_out)
    return conv, norm


def _input_norm(c_in, seed, spread):
    """An input norm with random running statistics, gains of both signs scaled by ``spread``
    and biases around 1: below a spread of about 0.3 the conv output's channel means are
    several times their spread."""
    rng = np.random.default_rng(seed)
    input_norm = BatchNorm(c_in)
    input_norm.gain.data[...] = spread * rng.normal(size=c_in)
    input_norm.bias.data[...] = rng.normal(loc=1.0, scale=0.2, size=c_in)
    input_norm._buffers["running_mean"][...] = rng.normal(size=c_in)
    input_norm._buffers["running_var"][...] = rng.uniform(0.5, 2.0, size=c_in)
    return input_norm


def _run(conv_shape, h_data, grad, training, spread=None):
    """One recorded ``conv_block`` pass and backward on a fresh block (with an input norm of
    that ``spread`` unless it is None): the output, the gradients of (h, kernel, gain, norm bias)
    or of (kernel, gain, norm bias, input gain, input bias), the running statistics, and the
    output of an inference pass."""
    conv, norm = _block(conv_shape, seed=conv_shape[2])
    input_norm = () if spread is None else (_input_norm(conv_shape[2], 5, spread),)
    h = Tensor(h_data, requires_grad=not input_norm)
    out = conv_block(h, conv, norm, training, *input_norm)
    out.backward(grad)
    with no_grad():
        inference = conv_block(Tensor(h_data), conv, norm, False, *input_norm).data
    norms = (norm, *input_norm)
    leaves = [h, conv.kernel] + [p for n in norms for p in (n.gain, n.bias)]
    grads = [leaf.grad for leaf in leaves if leaf.requires_grad]
    return out.data, grads, [n._buffers[k] for n in norms for k in ("running_mean", "running_var")], inference


def _assert_close(actual, reference, scale):
    assert actual.dtype == np.float64
    np.testing.assert_allclose(actual, reference, rtol=0, atol=F32_TOL * scale)


def _largest(array):
    return np.abs(array).max()


@pytest.mark.parametrize("training", [True, False], ids=["batch_stats", "recorded_eval"])
@pytest.mark.parametrize("loc", [0.0, 5.0])
@pytest.mark.parametrize("batch", [2, CONV_BLOCK, 40])
@pytest.mark.parametrize("conv_shape", ENCODER_CONVS, ids=["conv1", "conv2", "conv3"])
def test_float32_conv_block_matches_the_float64_mode(conv_shape, batch, loc, training):
    # At an input mean of 5 its spread (conv2 and conv3 take post-ReLU maps, whose means are
    # positive) the conv outputs' channel means are up to 5-7 times their spread: the float32
    # block sums behind the batch statistics must hold there too.
    height, width, c_in, c_out = conv_shape
    rng = np.random.default_rng(batch)
    h_data = rng.normal(loc=loc, size=(batch, height, width, c_in))
    grad = rng.normal(size=(batch, height // 2, width // 2, c_out))
    _assert_matches_the_float64_mode(conv_shape, h_data, grad, training)


def _assert_matches_the_float64_mode(conv_shape, h_data, grad, training, spread=None):
    out, grads, stats, inference = _run(conv_shape, h_data, grad, training, spread)
    with double_precision():
        ref_out, ref_grads, ref_stats, ref_inference = _run(conv_shape, h_data, grad, training, spread)
    _assert_close(out, ref_out, _largest(ref_out))
    _assert_close(inference, ref_inference, _largest(ref_inference))
    for value, ref in zip(stats, ref_stats, strict=True):
        _assert_close(value, ref, _largest(ref))
    for k, (value, ref) in enumerate(zip(grads, ref_grads, strict=True)):
        # Under batch statistics dy sums to zero over the image, so the input bias's gradient
        # is what the border leaves of cancelling sums: about 1e-5 of itself apart here, as
        # with a standalone input norm. It is held to the kernel gradient's scale (the first).
        cancelling = training and spread is not None and k == len(grads) - 1
        _assert_close(value, ref, _largest(ref_grads[0] if cancelling else ref))


@pytest.mark.parametrize("training", [True, False], ids=["batch_stats", "recorded_eval"])
@pytest.mark.parametrize("batch", [2, CONV_BLOCK, 40])
@pytest.mark.parametrize("spread", [1.0, 0.1])
def test_float32_input_norm_block_matches_the_float64_mode(spread, batch, training):
    # conv1 with the input norm fused in, on a spectrogram-like input far from zero mean. At
    # a gain spread of 0.1 the conv output's channel means are several times their spread.
    rng = np.random.default_rng(batch)
    h_data = rng.normal(loc=30.0, scale=4.0, size=(batch, 51, 51, 2))
    grad = rng.normal(size=(batch, 25, 25, 16))
    _assert_matches_the_float64_mode(ENCODER_CONVS[0], h_data, grad, training, spread)


def test_float32_stays_inside_conv_block():
    rng = np.random.default_rng(0)
    conv, norm = _block(ENCODER_CONVS[0], seed=1)
    h = Tensor(rng.normal(size=(3, 51, 51, 2)), requires_grad=True)
    out = conv_block(h, conv, norm, training=True)
    out.backward(np.ones(out.shape))
    for array in (out.data, h.grad, conv.kernel.grad, norm.gain.grad, norm.bias.grad):
        assert array.dtype == np.float64

    model = TransportModeClassifier("fusion_mil", 3, 2, 0.3)
    optimizer = Adam(dict(model.named_parameters()), lr=1e-3)
    acc = rng.normal(size=(4, 3, 51, 51, 2))
    result = model.forward(acc, rng.normal(size=(4, 10, 2)), rng.normal(size=(4, 5)), training=True, rng=rng)
    cce_loss(result.probs, rng.integers(0, 8, 4)).backward()
    optimizer.step()
    assert result.probs.data.dtype == np.float64
    assert all(p.grad.dtype == np.float64 for p in model.parameters())
    assert all(array.dtype == np.float64 for array in model.state_dict().values())
    assert all(m.dtype == v.dtype == np.float64 for m, v in zip(optimizer._m, optimizer._v))


def test_grad_check_runs_the_float64_mode():
    rng = np.random.default_rng(3)
    conv, norm = _block((9, 7, 3, 4), seed=4)
    h = Tensor(rng.normal(size=(3, 9, 7, 3)))
    weights = rng.normal(size=(3, 4, 3, 4))
    seen = []

    def objective():
        out = conv_block(h, conv, norm, training=False)
        seen.append(out.data)
        return (out * weights).sum()

    grad_check(objective, [norm.bias], max_coords=1)
    assert conv_dtype() == np.float32
    with double_precision():
        float64 = conv_block(h, conv, norm, training=False).data
    float32 = conv_block(h, conv, norm, training=False).data
    assert seen[0].tobytes() == float64.tobytes()
    assert float32.tobytes() != float64.tobytes()


def test_float32_training_block_peak_is_at_most_0_6_of_float64():
    # Per conv1 image the float32 forward holds its im2col columns (187 kB) and conv
    # output (166 kB) in float32 beside its float64 pooled output (80 kB); float64 holds
    # twice the first two.
    rng = np.random.default_rng(6)
    conv, norm = Conv2D(2, 16, rng), BatchNorm(16)
    h = Tensor(rng.normal(size=(96, 51, 51, 2)))
    peaks = []
    for mode in (contextlib.nullcontext, double_precision):
        tracemalloc.start()
        try:
            with mode():
                out = conv_block(h, conv, norm, training=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        peaks.append(peak)
    assert peaks[0] <= 0.6 * peaks[1]


def test_float32_predictions_do_not_depend_on_how_bags_are_chunked():
    # The float32 gemm split by rows sums each output alike, as the float64 one does.
    rng = np.random.default_rng(4)
    model = TransportModeClassifier("fusion_mil", 3, 0, 0.3)
    acc = rng.normal(size=(40, 3, 51, 51, 2))
    loc_seq, loc_scalars = rng.normal(size=(40, 10, 2)), rng.normal(size=(40, 5))

    def predict(step):
        parts = [slice(i, i + step) for i in range(0, 40, step)]
        return np.concatenate([model.predict(acc[p], loc_seq[p], loc_scalars[p]).probs.data for p in parts])

    whole = predict(40)
    assert predict(16).tobytes() == whole.tobytes()
    assert predict(17).tobytes() == whole.tobytes()
